type t = {
  model : Circuit.Sigma_model.t;
  pool : Util.Pool.t option;
  a : Arena.t;
  last : float array;  (* old-id sizes of the last completed sweep *)
  mutable valid : bool;  (* [a] holds the forward state at [last] *)
  mutable n_analyzes : int;
  mutable n_hits : int;
  mutable n_reevaluated : int;
}

type counters = { analyzes : int; cache_hits : int; gates_reevaluated : int }

let create ?pool ~model net =
  {
    model;
    pool;
    a = Arena.create net;
    last = Array.make (Circuit.Netlist.n_gates net) 0.;
    valid = false;
    n_analyzes = 0;
    n_hits = 0;
    n_reevaluated = 0;
  }

let arena t = t.a
let invalidate t = t.valid <- false

let counters t =
  { analyzes = t.n_analyzes; cache_hits = t.n_hits; gates_reevaluated = t.n_reevaluated }

let same_sizes t (sizes : float array) =
  let same = ref true and i = ref 0 in
  while !same && !i < Array.length sizes do
    same := Int64.equal (Int64.bits_of_float sizes.(!i)) (Int64.bits_of_float t.last.(!i));
    incr i
  done;
  !same

(* Bring the arena's forward state to [sizes].  [valid] is cleared before
   the sweep and set only after it completes, so a sweep that raises
   cannot leave a stale cache hit. *)
let sweep t ~sizes =
  Arena.check_sizes t.a sizes;
  t.n_analyzes <- t.n_analyzes + 1;
  if t.valid && same_sizes t sizes then t.n_hits <- t.n_hits + 1
  else begin
    t.valid <- false;
    Ssta.forward_raw ?pool:t.pool ~model:t.model t.a ~sizes;
    Array.blit sizes 0 t.last 0 (Array.length sizes);
    t.n_reevaluated <- t.n_reevaluated + t.a.Arena.n;
    t.valid <- true
  end

let analyze t ~sizes =
  sweep t ~sizes;
  Ssta.of_arena t.a

let value_and_gradient t ~sizes ~seed =
  let res = analyze t ~sizes in
  let root = seed res in
  Ssta.reverse_raw ?pool:t.pool ~model:t.model t.a ~d_mu:root.Ssta.d_mu
    ~d_var:root.Ssta.d_var;
  let grad = Array.make t.a.Arena.n 0. in
  Arena.gradient_into t.a grad;
  (res, grad)
