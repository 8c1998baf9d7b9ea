(** Ablations of the design choices the paper calls out in Section 4.

    - [sigma_sweep]: the sigma model {m \sigma_t = f(\mu_t)} is pluggable;
      sweeping the proportionality ratio shows how delay uncertainty
      magnitude changes what sizing buys.
    - [formulation]: eq. 14 (raw {m 1/S}) versus eq. 15 (multiplied
      through by {m S}, mostly-linear constraint terms) — the paper's
      stated reason for the reformulation is solver efficiency.
    - [baseline]: statistical sizing versus a deterministic TILOS-style
      greedy sizer at the same deadline — what the statistical objective
      buys in yield for comparable area. *)

type sigma_row = {
  ratio : float;
  mu : float;
  sigma : float;
  area : float;
}

type formulation_row = {
  form : string;  (** ["eq15 (linearised)"] or ["eq14 (1/S)"] *)
  inner_iterations : int;
  evaluations : int;
  cpu_time : float;
  objective_value : float;  (** final {m \mu + 3\sigma} *)
  converged : bool;
}

type baseline_row = {
  method_name : string;
  area : float;
  worst_case_delay : float;  (** deterministic STA delay *)
  mu : float;
  sigma : float;
  mc_yield : float;  (** fraction of sampled circuits meeting the deadline *)
}

type solver_row = {
  solver_name : string;  (** ["projected L-BFGS"] or ["trust-region Newton-CG"] *)
  s_iterations : int;
  s_evaluations : int;
  s_cpu_time : float;
  s_objective : float;  (** final objective value *)
  s_converged : bool;
}

type result = {
  sigma_sweep : sigma_row list;
  formulation : formulation_row list;
  deadline : float;
  baseline : baseline_row list;
  solver : solver_row list;
      (** A-SOLVER: first-order vs second-order inner solver on the same
          sizing problem (LANCELOT is second-order; our default is
          first-order) *)
}

val run : ?samples:int -> ?seed:int -> unit -> result
val print : result -> unit
