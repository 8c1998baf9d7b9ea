(** Circuit registry with an LRU of warmed engines.

    Registered circuits (netlists, committed sizes, per-circuit
    {!Breaker}) are resident forever; the expensive part — a warmed
    {!Exec.target} whose {!Sta.Incr} engine owns a full timing arena —
    is bounded: at most [capacity] targets are live, and warming one
    more evicts the least recently used ([serve.evicted] counter).
    Committed sizes survive eviction; only the engine's cached sweep is
    lost.

    Single-threaded — owned by the daemon's executor thread. *)

type entry = {
  name : string;
  net : Circuit.Netlist.t;
  model : Circuit.Sigma_model.t;
  mutable sizes : float array;
  breaker : Breaker.t;
  mutable warm : warm option;
}

and warm = { target : Exec.target; mutable last_used : int }

type t

val create : ?pool:Util.Pool.t -> capacity:int -> unit -> t
(** [capacity] bounds {e warmed} engines, not registered circuits.
    Raises [Invalid_argument] when [capacity < 1]. *)

val register :
  ?breaker:Breaker.config ->
  ?now:(unit -> int) ->
  t ->
  name:string ->
  model:Circuit.Sigma_model.t ->
  Circuit.Netlist.t ->
  unit
(** Adds a circuit (cold, all-min sizes).  [now] is forwarded to the
    circuit's breaker clock.  Raises [Invalid_argument] on a duplicate
    name. *)

val find : t -> string -> entry option

val target : t -> entry -> Exec.target
(** The entry's warmed target, warming (and possibly LRU-evicting
    another circuit) on demand; bumps recency. *)

val evict : t -> string -> bool
(** Force-evicts one circuit's warm state; [true] if it was warm. *)

val names : t -> string list
(** Registration order. *)

val resident : t -> string list
(** Circuits currently holding a warmed engine, registration order. *)

val warm_count : t -> int
val evictions : t -> int
