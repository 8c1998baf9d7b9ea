(** Minimal self-contained JSON for the line-oriented serve protocol.

    The repo deliberately carries no JSON dependency; this module
    implements the small subset the daemon needs, with one property the
    usual libraries do not promise: {e float round-trips are exact}.
    {!to_string} emits every finite double as the shortest decimal that
    parses back to the identical bits (Ryu, Adams PLDI 2018), laid out
    as C's [%.Pg] would lay it out with P = max(15, digits), so a
    response travelled through the wire format compares Int64-bit-equal
    to the in-process value — the foundation of the serve-soundness
    invariant and the soak test's served-vs-batch identity check.

    {!parse} accepts exactly RFC 8259's number grammar (no [+1], [.5],
    [1.], [01]) and converts correctly rounded.  [\u] escapes cover all
    of Unicode: a UTF-16 surrogate pair decodes to one UTF-8 code point
    and a lone surrogate is an error.

    Not a general-purpose JSON library: numbers are [float]s (ints
    survive exactly up to 2^53) and NaN/infinities serialize as the
    strings ["nan"]/["inf"]/["-inf"] (they never appear on the ok
    path). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Floats of float array
      (** An array of numbers, unboxed.  {!parse} returns every
          non-empty all-number array in this form; it renders exactly as
          the [List] of its [Num]s. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no newlines — the protocol is line-framed). *)

val parse : string -> (t, string) result
(** Parses one complete JSON value; trailing garbage is an error. *)

val number_to_string : float -> string
(** The exact-round-trip float rendering used by {!to_string}. *)

(** {1 Accessors} — total, [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_ : t -> int option
val bool_ : t -> bool option

val list_ : t -> t list option
(** The elements of either array form. *)

val floats : t -> float array option
(** The numbers of an array whose elements are all numbers. *)
