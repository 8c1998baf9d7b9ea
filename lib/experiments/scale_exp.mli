(** F-SCALE: solver scalability over circuit size.

    Table 1's headline is that the statistical sizing NLP is solvable "for
    circuits of up to a few thousand gates" (hours on 1999 hardware).
    This experiment sweeps random mapped DAGs from 100 to 5000 cells and
    reports the CPU time and iteration counts of a delay minimisation and
    an area minimisation under a delay bound — demonstrating the paper's
    scale and one notch beyond it. *)

type row = {
  gates : int;
  min_delay_time : float;
  min_delay_iterations : int;
  min_delay_mark : string;  (** {!Sizing.Report.status_mark} of the solve *)
  bounded_time : float;
  bounded_iterations : int;
  bounded_mark : string;
  speedup : float;  (** unsized mu / sized mu *)
}

type result = { rows : row list }

val run :
  ?model:Circuit.Sigma_model.t ->
  ?sizes_list:int list ->
  ?seed:int ->
  ?pool:Util.Pool.t ->
  unit ->
  result
(** Default sweep: 100, 300, 1000, 3000, 5000 gates.  [pool]
    parallelises the SSTA evaluations inside every solve. *)

val print : result -> unit
