(** Reader for the ISCAS-85/89 [.bench] netlist format.

    The other format the paper's benchmark circuits circulate in:

    {v
    # comment
    INPUT(G1)
    OUTPUT(G22)
    G10 = NAND(G1, G3)
    G22 = NOT(G10)
    v}

    Gate operators are mapped to library cells by name and arity
    ([NAND(a,b)] -> [nand2], [NOT] -> [inv], [BUFF] -> [buf], and so on).
    [DFF]s are cut in the standard way for combinational timing: the
    flip-flop output becomes a pseudo primary input and its data input a
    pseudo primary output, so ISCAS-89 sequential circuits analyse as
    their combinational core.

    The gate driving each assigned net is named after that net; the
    extra gates a wide operator decomposes into keep the default
    [g<id>] names.  Every net has one driver: an [INPUT], a [DFF] and an
    assignment to the same net are rejected as [net <name> driven
    twice]. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

exception Error of error

val parse_string :
  ?wire_load:float ->
  library:Cell.Library.t ->
  string ->
  (Netlist.t, error) result

val parse_file :
  ?wire_load:float ->
  library:Cell.Library.t ->
  string ->
  (Netlist.t, error) result
(** Never raises: missing, unreadable or truncated files come back as
    [Error] with [line = 0], like syntax errors do.  Errors raised by a
    statement carry its line; [line = 0] marks whole-file errors (a
    combinational cycle or undriven net, an unreadable file). *)
