(** Memoized statistical timing over one owned arena.

    A served circuit answers a stream of analyze, whatif and gradient
    requests.  This engine keeps one {!Arena} warm for them and
    remembers the sizes of its last completed forward sweep: an
    {!analyze} at bitwise-identical sizes is answered from the arena's
    planes, any other sizes run one full forward sweep
    ({!Ssta.forward_raw}), and a gradient adds one adjoint sweep
    ({!Ssta.reverse_raw}).  These are the arena sweeps {!Ssta.analyze} /
    {!Ssta.value_and_gradient} run, so results are bit-identical to
    them by construction, at any pool width.

    The cache is invalidated {e before} a sweep starts and validated only
    once it has finished, so a sweep that raises leaves no stale hit
    behind.  Sweeps are counted by the [ssta.*] {!Util.Instr} counters
    and timers. *)

type t
(** A persistent engine bound to one netlist, sigma model and optional
    pool.  Not thread-safe: one engine per caller. *)

val create : ?pool:Util.Pool.t -> model:Circuit.Sigma_model.t -> Circuit.Netlist.t -> t
(** A fresh engine with an empty cache; the first {!analyze} sweeps.
    Primary-input arrivals are the default deterministic zero. *)

val analyze : t -> sizes:float array -> Ssta.result
(** Forward timing at [sizes]: a cache hit when [sizes] is bitwise equal
    to the last completed sweep's, a full forward sweep otherwise.  The
    returned result is a fresh snapshot (safe to hold across later
    calls), bit-identical to [Ssta.analyze ~model net ~sizes]. *)

val value_and_gradient :
  t ->
  sizes:float array ->
  seed:(Ssta.result -> Ssta.seed) ->
  Ssta.result * float array
(** {!analyze} plus one adjoint sweep; both components are bit-identical
    to {!Ssta.value_and_gradient}. *)

val arena : t -> Arena.t
(** The arena holding the engine's cached state, owned by the engine.
    Read-only for callers: after {!analyze} its forward planes and
    {!Arena.circuit_mu} / {!Arena.circuit_var} reflect the last
    [sizes]. *)

val invalidate : t -> unit
(** Forget the cached state: the next {!analyze} sweeps. *)

type counters = {
  analyzes : int;  (** {!analyze} calls, including via the gradient *)
  cache_hits : int;  (** calls answered without a sweep *)
  gates_reevaluated : int;  (** gates swept: [n_gates] per forward sweep *)
}

val counters : t -> counters
(** This engine's lifetime totals. *)
