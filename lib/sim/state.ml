(* The world the simulation harness drives: one circuit, one persistent
   incremental engine, the current sizes/objective/budgets, and the
   fault sites armed for the next solve.  Op semantics live here;
   Sim.Invariant reads this state to check the engine stack after every
   op. *)

type t = {
  net : Circuit.Netlist.t;
  model : Circuit.Sigma_model.t;
  seed : int;  (* scenario seed; keys the fault plans of Solve ops *)
  sizes : float array;  (* current speed factors, old-id order *)
  maxs : float array;
  incr : Sta.Incr.t;  (* the persistent engine under test *)
  serve : Serve.Exec.target;  (* the daemon execution path under test *)
  scratch : Sta.Arena.t;  (* arena for from-scratch differential sweeps *)
  pools : (int * Util.Pool.t) list;  (* extra domain counts to cross-check *)
  unsized_mu : float;  (* mean delay at all-min sizes: anchors objectives *)
  mutable varmodel : Circuit.Varmodel.t;
      (* shared-source model the corr-sound invariant analyzes under *)
  mutable canon_arena : Sta.Arena.t option;
      (* canonical-sweep arena for the current varmodel; None when
         independent.  Rebuilt by Set_varmodel: arenas bake in the
         parameter-plane width. *)
  mutable objective : Sizing.Objective.t;
  mutable warm_start : [ `None | `Gp | `Baseline ];
  mutable pending_faults : (Util.Fault.kind * int) list;
  mutable budget_deadline : float option;
  mutable budget_max_evals : int option;
  mutable last_result : Sta.Ssta.result option;
  mutable last_gradient : (Op.seed_kind * float array) option;
  mutable last_serve : (Op.serve * Serve.Protocol.payload) option;
  mutable last_solve : Sizing.Engine.solution option;
  mutable last_solve_faults : int;  (* faults fired during the last solve *)
  mutable solves : int;
  mutable faults_fired : int;
  mutable prev_counters : Sta.Incr.counters;
}

let create ?(pools = []) ?incr_pool ~seed ~model net =
  let scratch = Sta.Arena.create net in
  let unsized =
    Sta.Ssta.analyze ~arena:scratch ~model net ~sizes:(Circuit.Netlist.min_sizes net)
  in
  let incr = Sta.Incr.create ?pool:incr_pool ~model net in
  {
    net;
    model;
    seed;
    sizes = Array.copy (Circuit.Netlist.min_sizes net);
    maxs = Circuit.Netlist.max_sizes net;
    incr;
    serve = Serve.Exec.create ~model net;
    scratch;
    pools;
    unsized_mu = Statdelay.Normal.mu unsized.Sta.Ssta.circuit;
    varmodel = Circuit.Varmodel.independent;
    canon_arena = None;
    objective = Sizing.Objective.Min_delay 0.;
    warm_start = `None;
    pending_faults = [];
    budget_deadline = None;
    budget_max_evals = None;
    last_result = None;
    last_gradient = None;
    last_serve = None;
    last_solve = None;
    last_solve_faults = 0;
    solves = 0;
    faults_fired = 0;
    prev_counters = Sta.Incr.counters incr;
  }

let seed_fun = function
  | Op.Seed_mu -> fun _ -> { Sta.Ssta.d_mu = 1.; d_var = 0. }
  | Op.Seed_var -> fun _ -> { Sta.Ssta.d_mu = 0.; d_var = 1. }
  | Op.Seed_mu_k_sigma k -> Sta.Ssta.mu_plus_k_sigma_seed k

let objective_of t = function
  | Op.Obj_min_delay k -> Sizing.Objective.Min_delay k
  | Op.Obj_min_area_bounded { k; frac } ->
      Sizing.Objective.Min_area_bounded { k; bound = frac *. t.unsized_mu }
  | Op.Obj_min_sigma { frac } ->
      Sizing.Objective.Min_sigma { mu = frac *. t.unsized_mu }

let fault_kind = function
  | Op.Nan_value -> Util.Fault.Nan_value
  | Op.Inf_value -> Util.Fault.Inf_value
  | Op.Nan_gradient -> Util.Fault.Nan_gradient
  | Op.Inf_gradient -> Util.Fault.Inf_gradient
  | Op.Perturb amp -> Util.Fault.Perturb amp

(* Gate indices are reduced modulo the gate count and sizes clamped into
   the gate's box, so ops survive circuit shrinking (and hand-edited
   traces cannot push the engines out of their domain). *)
let resolve_gate t gate =
  let n = Array.length t.sizes in
  ((gate mod n) + n) mod n

let clamp_size t g size =
  if Util.Guard.is_finite size then Float.max 1.0 (Float.min size t.maxs.(g))
  else 1.0

let set_size t gate size =
  let g = resolve_gate t gate in
  t.sizes.(g) <- clamp_size t g size

(* Like gate indices and sizes: any Set_varmodel op must produce a valid
   model, so grids are clamped (n_params is 1 + grid^2 — a hand-edited
   trace must not trigger a huge allocation) and the source fractions
   are projected into the unit disc Varmodel.make demands. *)
let resolve_varmodel ~grid ~global_frac ~grid_frac =
  let grid = min 8 (max 0 grid) in
  let sane f = if Util.Guard.is_finite f then Float.min 1. (Float.max 0. f) else 0. in
  let g = sane global_frac in
  let c = if grid = 0 then 0. else sane grid_frac in
  let norm2 = (g *. g) +. (c *. c) in
  let scale = if norm2 > 1. then 1. /. sqrt norm2 else 1. in
  Circuit.Varmodel.make ~grid ~global_frac:(g *. scale) ~grid_frac:(c *. scale) ()

let resolve_deltas t deltas =
  Array.map
    (fun (g, s) ->
      let g = resolve_gate t g in
      (g, clamp_size t g s))
    deltas

let protocol_seed = function
  | Op.Seed_mu -> Serve.Protocol.Seed_mu
  | Op.Seed_var -> Serve.Protocol.Seed_var
  | Op.Seed_mu_k_sigma k -> Serve.Protocol.Seed_mu_k_sigma k

(* An already-expired budget on a hand-driven clock: creation reads the
   first tick, every later probe a strictly larger instant, so the
   zero-second deadline is deterministically past — no wall clock, so
   replays degrade at the same op on any machine. *)
let expired_budget () =
  let t = ref 0 in
  Util.Guard.budget
    ~now:(fun () ->
      incr t;
      !t)
    ~deadline:0. ()

let serve_request t req =
  let explicit () = Serve.Protocol.Explicit (Array.copy t.sizes) in
  let payload =
    match req with
    | Op.Srv_analyze ->
        Serve.Exec.exec t.serve (Serve.Protocol.Analyze { sizes = explicit () })
    | Op.Srv_whatif deltas ->
        Serve.Exec.exec t.serve
          (Serve.Protocol.Whatif { deltas = resolve_deltas t deltas })
    | Op.Srv_gradient kind ->
        Serve.Exec.exec t.serve
          (Serve.Protocol.Gradient
             { sizes = explicit (); seed = protocol_seed kind })
    | Op.Srv_degraded ->
        Serve.Exec.exec ~budget:(expired_budget ()) t.serve
          (Serve.Protocol.Analyze { sizes = explicit () })
  in
  t.last_serve <- Some (req, payload)

let solve t =
  let plan =
    match t.pending_faults with
    | [] -> None
    | sites ->
        Some
          (Util.Fault.plan ~seed:t.seed
             (List.rev_map
                (fun (kind, first) ->
                  {
                    Util.Fault.kind;
                    Util.Fault.component = None;
                    Util.Fault.trigger = Util.Fault.First first;
                  })
                sites))
  in
  let instrument =
    Option.map
      (fun plan problem ->
        Nlp.Problem.map_components
          (fun ~component f ->
            Util.Fault.wrap plan
              ~component:(Nlp.Problem.component_index component)
              f)
          problem)
      plan
  in
  let options =
    {
      Sizing.Engine.default_options with
      Sizing.Engine.deadline = t.budget_deadline;
      (* Always bounded: a runaway solve must not stall the harness. *)
      Sizing.Engine.max_evaluations =
        (match t.budget_max_evals with Some _ as b -> b | None -> Some 2000);
      Sizing.Engine.warm_start = t.warm_start;
      Sizing.Engine.instrument;
    }
  in
  let solution =
    Sizing.Engine.solve ~options ~model:t.model t.net t.objective
  in
  let fired = match plan with None -> 0 | Some p -> List.length (Util.Fault.log p) in
  t.last_solve <- Some solution;
  t.last_solve_faults <- fired;
  t.faults_fired <- t.faults_fired + fired;
  t.solves <- t.solves + 1;
  t.pending_faults <- []

let apply t op =
  match op with
  | Op.Resize { gate; size } -> set_size t gate size
  | Op.Batch_resize pairs -> Array.iter (fun (g, s) -> set_size t g s) pairs
  | Op.Set_objective o -> t.objective <- objective_of t o
  | Op.Invalidate -> Sta.Incr.invalidate t.incr
  | Op.Analyze -> t.last_result <- Some (Sta.Incr.analyze t.incr ~sizes:t.sizes)
  | Op.Gradient kind ->
      let _, grad =
        Sta.Incr.value_and_gradient t.incr ~sizes:t.sizes ~seed:(seed_fun kind)
      in
      t.last_gradient <- Some (kind, grad)
  | Op.Inject_fault { kind; first } ->
      t.pending_faults <- (fault_kind kind, max 1 first) :: t.pending_faults
  | Op.Set_budget { deadline; max_evals } ->
      t.budget_deadline <- deadline;
      t.budget_max_evals <- max_evals
  | Op.Solve -> solve t
  | Op.Switch_warm_start w -> t.warm_start <- w
  | Op.Serve_request req -> serve_request t req
  | Op.Set_varmodel { grid; global_frac; grid_frac } ->
      let vm = resolve_varmodel ~grid ~global_frac ~grid_frac in
      t.varmodel <- vm;
      t.canon_arena <-
        (if Circuit.Varmodel.is_independent vm then None
         else Some (Sta.Arena.create ~varmodel:vm t.net))
  | Op.Corrupt_cache { gate; bump } ->
      (* Fault-inject the engine's cached state: poke the arrival-mean
         plane of its arena.  A cold or invalidated engine, or one asked
         for other sizes, overwrites the poke on its next sweep; a warm
         one at unchanged sizes serves the corrupt value from cache —
         which the differential invariants must catch. *)
      let g = resolve_gate t gate in
      let arena = Sta.Incr.arena t.incr in
      let g' = (Circuit.Netlist.flat t.net).Circuit.Netlist.perm.(g) in
      let arr = arena.Sta.Arena.arr in
      Statdelay.Clark.vset arr (2 * g')
        (Statdelay.Clark.vget arr (2 * g') +. bump)
