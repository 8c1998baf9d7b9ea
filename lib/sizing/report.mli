(** Formatting of sizing results in the paper's table style. *)

val split_objective : Objective.t -> string * string
(** [(minimize, constraint)] column cells in the paper's notation. *)

val row : Engine.solution -> string list
(** [objective; constraint; mu; sigma; area; cpu] cells for a Table-1-style
    row; the CPU cell of a solve that did not converge carries
    {!status_mark}. *)

val status_mark : Engine.solution -> string
(** [""] for a converged solve, else its termination and a footnote
    mark, e.g. [" (stalled)*"]. *)

val footnote : string
(** The note a table prints under rows carrying {!status_mark}. *)

val header : string list
(** Matching header: name, minimize, constraint, muTmax, sigmaTmax,
    sum-S, CPU. *)

val table : name:string -> Engine.solution list -> Util.Table.t
(** A Table-1-style block for one circuit. *)

val speed_factors : Circuit.Netlist.t -> Engine.solution -> (string * float) list
(** Gate-name/speed-factor pairs (Table 3 style), in gate order. *)

val cpu_string : float -> string
(** Seconds rendered like the paper's CPU column (["41 m 13.5 s"] or
    ["18.5 s"]). *)

val pp_solution : Format.formatter -> Engine.solution -> unit
(** One-line summary, including the termination reason and recovery trail
    when the solve did not converge cleanly. *)

val diagnosis_json : Engine.solution -> string
(** Machine-readable failure diagnosis: status, termination reason, the
    recovery rungs taken (with outcome/violation/evaluations each), and
    the typed breakdown when a guard fired.  Printed by the CLI on
    abnormal exits. *)
