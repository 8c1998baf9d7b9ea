(** Reader/writer for cell libraries in a simple text format.

    One cell per line:

    {v
    # comment
    cell nand2 inputs=2 t_int=0.12 drive=1.0 c_in=0.25 limit=3 area=1
    v}

    Every field except [name] and [inputs] is optional and falls back to
    {!Cell.make}'s defaults.  This lets experiments run against a
    technology description without recompiling (CLI flag
    [--library FILE]). *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse_string : string -> (Cell.Library.t, error) result

val parse_file : string -> (Cell.Library.t, error) result
(** Never raises: missing, unreadable or truncated files come back as
    [Error] with [line = 0], like syntax errors do. *)

val read_file : string -> (string, string) result
(** [read_file path] is the whole file's contents, or the reason it
    cannot be read (missing, unreadable, a directory, truncated while
    reading).  Never raises; the [parse_file] readers of this module,
    [Blif] and [Bench_format] all load their input through it. *)

val to_string : Cell.Library.t -> string
(** Cells sorted by name; [parse_string] of the result reproduces the
    library. *)

val write_file : Cell.Library.t -> string -> unit
