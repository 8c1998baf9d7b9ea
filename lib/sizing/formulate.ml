open Circuit
open Statdelay

type operand = Const of Normal.t | Vars of { mu : int; var : int }

type max_step = { a : operand; b : operand; out_mu : int; out_var : int }

type t = {
  net : Netlist.t;
  model : Sigma_model.t;
  objective : Objective.t;
  pi_arrival : int -> Normal.t;
  dim : int;
  s_ix : int array;  (* speed factor variable per gate *)
  mu_t_ix : int array;
  var_t_ix : int array;
  mu_arr_ix : int array;  (* arrival mean variable per gate *)
  var_arr_ix : int array;
  u_of : operand array;  (* input-max operand per gate *)
  max_steps : max_step list;  (* all intermediate two-operand maxima *)
  tmax : operand;  (* circuit-level distribution *)
  problem : Nlp.Problem.constrained;
  arena : Sta.Arena.t;  (* reused by every forward evaluation on [net] *)
}

let operand_value x = function
  | Const n -> n
  | Vars { mu; var } -> Normal.of_var ~mu:x.(mu) ~var:(max 0. x.(var))

(* ---- constraint builders ------------------------------------------------ *)

(* The gate-delay equality constraint.  [linearized = true] is the paper's
   eq. 15 (multiplied through by S so most terms are linear):
     mu_t * S - t_int * S - c*(wire + sum m*C_in*S_c) = 0
   [linearized = false] is the raw eq. 14 with the 1/S nonlinearity:
     mu_t - t_int - c*(wire + sum m*C_in*S_c)/S = 0
   Both define the same feasible set; the paper reports the former solves
   faster, which the A-FORM ablation bench measures. *)
let delay_constraint ~linearized net (g : Netlist.gate) ~s_ix ~mu_t_ix ~dim =
  let id = g.Netlist.id in
  let cell = g.Netlist.cell in
  let consumers =
    List.map
      (fun (c, m) ->
        let cc = Netlist.gate net c in
        (s_ix.(c), float_of_int m *. cc.Netlist.cell.Cell.c_in))
      (Netlist.fanout net id)
  in
  let eval x =
    let s = x.(s_ix.(id)) and mu_t = x.(mu_t_ix.(id)) in
    let cap =
      List.fold_left (fun acc (ix, w) -> acc +. (w *. x.(ix))) g.Netlist.wire_load
        consumers
    in
    let grad = Array.make dim 0. in
    if linearized then begin
      let v = (mu_t *. s) -. (cell.Cell.t_int *. s) -. (cell.Cell.drive *. cap) in
      grad.(mu_t_ix.(id)) <- s;
      grad.(s_ix.(id)) <- mu_t -. cell.Cell.t_int;
      List.iter
        (fun (ix, w) -> grad.(ix) <- grad.(ix) -. (cell.Cell.drive *. w))
        consumers;
      (v, grad)
    end
    else begin
      let v = mu_t -. cell.Cell.t_int -. (cell.Cell.drive *. cap /. s) in
      grad.(mu_t_ix.(id)) <- 1.;
      grad.(s_ix.(id)) <- cell.Cell.drive *. cap /. (s *. s);
      List.iter
        (fun (ix, w) -> grad.(ix) <- grad.(ix) -. (cell.Cell.drive *. w /. s))
        consumers;
      (v, grad)
    end
  in
  Nlp.Problem.eq ~name:(Printf.sprintf "delay[%s]" g.Netlist.gate_name) eval

(* eq. 16: var_t - f(mu_t)^2 = 0 *)
let sigma_constraint model (g : Netlist.gate) ~mu_t_ix ~var_t_ix ~dim =
  let id = g.Netlist.id in
  let eval x =
    let mu_t = x.(mu_t_ix.(id)) in
    let v = x.(var_t_ix.(id)) -. Sigma_model.var model mu_t in
    let grad = Array.make dim 0. in
    grad.(var_t_ix.(id)) <- 1.;
    grad.(mu_t_ix.(id)) <- -.Sigma_model.dvar_dmu model mu_t;
    (v, grad)
  in
  Nlp.Problem.eq ~name:(Printf.sprintf "sigma[%s]" g.Netlist.gate_name) eval

(* eq. 4: mu_T - mu_U - mu_t = 0 and var_T - var_U - var_t = 0 *)
let add_constraints (g : Netlist.gate) ~u ~mu_t_ix ~var_t_ix ~mu_arr_ix ~var_arr_ix ~dim
    =
  let id = g.Netlist.id in
  let mu_eval x =
    let u_val = operand_value x u in
    let v = x.(mu_arr_ix.(id)) -. Normal.mu u_val -. x.(mu_t_ix.(id)) in
    let grad = Array.make dim 0. in
    grad.(mu_arr_ix.(id)) <- 1.;
    grad.(mu_t_ix.(id)) <- -1.;
    (match u with Vars { mu; _ } -> grad.(mu) <- -1. | Const _ -> ());
    (v, grad)
  in
  let var_eval x =
    let u_val = operand_value x u in
    let v = x.(var_arr_ix.(id)) -. Normal.var u_val -. x.(var_t_ix.(id)) in
    let grad = Array.make dim 0. in
    grad.(var_arr_ix.(id)) <- 1.;
    grad.(var_t_ix.(id)) <- -1.;
    (match u with Vars { var; _ } -> grad.(var) <- -1. | Const _ -> ());
    (v, grad)
  in
  [
    Nlp.Problem.eq ~name:(Printf.sprintf "add_mu[%s]" g.Netlist.gate_name) mu_eval;
    Nlp.Problem.eq ~name:(Printf.sprintf "add_var[%s]" g.Netlist.gate_name) var_eval;
  ]

(* out = max(a, b): two equality constraints with Clark Jacobians. *)
let max_constraints step ~dim =
  let spread grad (op : operand) ~dmu ~dvar =
    match op with
    | Const _ -> ()
    | Vars { mu; var } ->
        grad.(mu) <- grad.(mu) -. dmu;
        grad.(var) <- grad.(var) -. dvar
  in
  let mu_eval x =
    let a = operand_value x step.a and b = operand_value x step.b in
    let c, p = Clark.max2_full a b in
    let v = x.(step.out_mu) -. Normal.mu c in
    let grad = Array.make dim 0. in
    grad.(step.out_mu) <- 1.;
    spread grad step.a ~dmu:p.Clark.dmu_dmu_a ~dvar:p.Clark.dmu_dvar_a;
    spread grad step.b ~dmu:p.Clark.dmu_dmu_b ~dvar:p.Clark.dmu_dvar_b;
    (v, grad)
  in
  let var_eval x =
    let a = operand_value x step.a and b = operand_value x step.b in
    let c, p = Clark.max2_full a b in
    let v = x.(step.out_var) -. Normal.var c in
    let grad = Array.make dim 0. in
    grad.(step.out_var) <- 1.;
    spread grad step.a ~dmu:p.Clark.dvar_dmu_a ~dvar:p.Clark.dvar_dvar_a;
    spread grad step.b ~dmu:p.Clark.dvar_dmu_b ~dvar:p.Clark.dvar_dvar_b;
    (v, grad)
  in
  [ Nlp.Problem.eq ~name:"max_mu" mu_eval; Nlp.Problem.eq ~name:"max_var" var_eval ]

(* ---- build -------------------------------------------------------------- *)

let build ?(pi_arrival = fun _ -> Normal.deterministic 0.) ?(linearized = true) ~model
    net objective =
  (match objective with
  | Objective.Min_area ->
      invalid_arg "Formulate.build: unconstrained Min_area needs no NLP"
  | _ -> ());
  let n = Netlist.n_gates net in
  let counter = ref 0 in
  let fresh () =
    let i = !counter in
    incr counter;
    i
  in
  let s_ix = Array.init n (fun _ -> fresh ()) in
  let mu_t_ix = Array.init n (fun _ -> fresh ()) in
  let var_t_ix = Array.init n (fun _ -> fresh ()) in
  let mu_arr_ix = Array.init n (fun _ -> fresh ()) in
  let var_arr_ix = Array.init n (fun _ -> fresh ()) in
  let max_steps = ref [] in
  (* Fold a list of operands with two-operand maxima; constant pairs are
     folded at build time, mixed pairs allocate output variables. *)
  let fold_max operands =
    List.fold_left
      (fun acc op ->
        match (acc, op) with
        | Const a, Const b -> Const (Clark.max2 a b)
        | a, b ->
            let out_mu = fresh () and out_var = fresh () in
            max_steps := { a; b; out_mu; out_var } :: !max_steps;
            Vars { mu = out_mu; var = out_var })
      (List.hd operands) (List.tl operands)
  in
  let arrival_operand = function
    | Netlist.Pi i -> Const (pi_arrival i)
    | Netlist.Gate g -> Vars { mu = mu_arr_ix.(g); var = var_arr_ix.(g) }
  in
  let u_of =
    Array.map
      (fun (g : Netlist.gate) ->
        fold_max (Array.to_list (Array.map arrival_operand g.Netlist.fanin)))
      (Netlist.gates net)
  in
  let tmax =
    fold_max (Array.to_list (Array.map arrival_operand (Netlist.pos net)))
  in
  let dim = !counter in
  (* Bounds: speed factors in [1, limit]; variance variables >= 0; means free. *)
  let lower = Array.make dim neg_infinity and upper = Array.make dim infinity in
  Array.iter
    (fun (g : Netlist.gate) ->
      lower.(s_ix.(g.Netlist.id)) <- 1.;
      upper.(s_ix.(g.Netlist.id)) <- g.Netlist.cell.Cell.max_size;
      lower.(var_t_ix.(g.Netlist.id)) <- 0.;
      lower.(var_arr_ix.(g.Netlist.id)) <- 0.)
    (Netlist.gates net);
  List.iter (fun st -> lower.(st.out_var) <- 0.) !max_steps;
  let bounds = Nlp.Problem.bounds ~lower ~upper in
  (* Objective over (tmax, sizes). *)
  let tmax_value x = operand_value x tmax in
  let guard_band k x =
    let c = tmax_value x in
    let var = Normal.var c in
    let sigma = sqrt (max 0. var) in
    let value = Normal.mu c +. (k *. sigma) in
    let grad = Array.make dim 0. in
    (match tmax with
    | Vars { mu; var = var_ix } ->
        grad.(mu) <- 1.;
        grad.(var_ix) <- (if k = 0. || sigma <= 0. then 0. else k /. (2. *. sigma))
    | Const _ -> ());
    (value, grad)
  in
  let area_objective x =
    let grad = Array.make dim 0. in
    let v = ref 0. in
    Array.iter
      (fun (g : Netlist.gate) ->
        let a = g.Netlist.cell.Cell.area in
        grad.(s_ix.(g.Netlist.id)) <- a;
        v := !v +. (a *. x.(s_ix.(g.Netlist.id))))
      (Netlist.gates net);
    (!v, grad)
  in
  let sigma_objective sign x =
    let c = tmax_value x in
    let sigma = sqrt (max 0. (Normal.var c)) in
    let grad = Array.make dim 0. in
    (match tmax with
    | Vars { var = var_ix; _ } ->
        grad.(var_ix) <- (if sigma <= 0. then 0. else sign /. (2. *. sigma))
    | Const _ -> ());
    (sign *. sigma, grad)
  in
  let mu_constraint target x =
    let c = tmax_value x in
    let grad = Array.make dim 0. in
    (match tmax with
    | Vars { mu; _ } -> grad.(mu) <- 1. /. target
    | Const _ -> ());
    ((Normal.mu c /. target) -. 1., grad)
  in
  let objective_fn, extra_constraints =
    match objective with
    | Objective.Min_area -> assert false
    | Objective.Min_delay k -> (guard_band k, [])
    | Objective.Min_area_bounded { k; bound } ->
        ( area_objective,
          [
            Nlp.Problem.le ~name:"delay_bound" (fun x ->
                let v, g = guard_band k x in
                ((v /. bound) -. 1., Array.map (fun gi -> gi /. bound) g));
          ] )
    | Objective.Min_sigma { mu } ->
        (sigma_objective 1., [ Nlp.Problem.eq ~name:"mu_target" (mu_constraint mu) ])
    | Objective.Max_sigma { mu } ->
        (sigma_objective (-1.), [ Nlp.Problem.eq ~name:"mu_target" (mu_constraint mu) ])
    | Objective.Min_weighted { weights; k; bound; _ } ->
        if Array.length weights <> n then
          invalid_arg "Formulate.build: weight vector dimension mismatch";
        let weighted x =
          let grad = Array.make dim 0. in
          let v = ref 0. in
          Array.iter
            (fun (g : Netlist.gate) ->
              let w = weights.(g.Netlist.id) in
              grad.(s_ix.(g.Netlist.id)) <- w;
              v := !v +. (w *. x.(s_ix.(g.Netlist.id))))
            (Netlist.gates net);
          (!v, grad)
        in
        ( weighted,
          [
            Nlp.Problem.le ~name:"delay_bound" (fun x ->
                let v, g = guard_band k x in
                ((v /. bound) -. 1., Array.map (fun gi -> gi /. bound) g));
          ] )
  in
  let structural =
    List.concat
      [
        Array.to_list
          (Array.map (fun g -> delay_constraint ~linearized net g ~s_ix ~mu_t_ix ~dim)
             (Netlist.gates net));
        Array.to_list
          (Array.map (fun g -> sigma_constraint model g ~mu_t_ix ~var_t_ix ~dim)
             (Netlist.gates net));
        List.concat_map
          (fun (g : Netlist.gate) ->
            add_constraints g ~u:u_of.(g.Netlist.id) ~mu_t_ix ~var_t_ix ~mu_arr_ix
              ~var_arr_ix ~dim)
          (Array.to_list (Netlist.gates net));
        List.concat_map (fun st -> max_constraints st ~dim) !max_steps;
      ]
  in
  let problem =
    Nlp.Problem.constrain
      (Nlp.Problem.make ~bounds ~objective:objective_fn)
      (structural @ extra_constraints)
  in
  {
    net;
    model;
    objective;
    pi_arrival;
    dim;
    s_ix;
    mu_t_ix;
    var_t_ix;
    mu_arr_ix;
    var_arr_ix;
    u_of;
    max_steps = !max_steps;
    tmax;
    problem;
    arena = Sta.Arena.create net;
  }

let n_variables t = t.dim
let n_constraints t = Array.length t.problem.Nlp.Problem.constraints
let problem t = t.problem

let sizes_of t x = Array.map (fun ix -> x.(ix)) t.s_ix

let consistent_point t ~sizes =
  let net = t.net in
  Netlist.check_sizes net sizes;
  let res =
    Sta.Ssta.analyze ~arena:t.arena ~pi_arrival:t.pi_arrival ~model:t.model net
      ~sizes
  in
  let x = Array.make t.dim 0. in
  Array.iteri (fun g ix -> x.(ix) <- sizes.(g)) t.s_ix;
  Array.iteri
    (fun g ix -> x.(ix) <- Normal.mu res.Sta.Ssta.gate_delay.(g))
    t.mu_t_ix;
  Array.iteri
    (fun g ix -> x.(ix) <- Normal.var res.Sta.Ssta.gate_delay.(g))
    t.var_t_ix;
  Array.iteri (fun g ix -> x.(ix) <- Normal.mu res.Sta.Ssta.arrival.(g)) t.mu_arr_ix;
  Array.iteri (fun g ix -> x.(ix) <- Normal.var res.Sta.Ssta.arrival.(g)) t.var_arr_ix;
  (* Make the intermediate max variables consistent: evaluate each recorded
     step given the already-filled inputs.  Steps were pushed in topological
     order, so replay them oldest-first. *)
  List.iter
    (fun st ->
      let a = operand_value x st.a and b = operand_value x st.b in
      let c = Clark.max2 a b in
      x.(st.out_mu) <- Normal.mu c;
      x.(st.out_var) <- Normal.var c)
    (List.rev t.max_steps);
  x

let initial_point t start =
  let net = t.net in
  let lo = Netlist.min_sizes net and hi = Netlist.max_sizes net in
  let sizes =
    match start with
    | `Low -> lo
    | `High -> hi
    | `Mid -> Array.init (Netlist.n_gates net) (fun i -> 0.5 *. (lo.(i) +. hi.(i)))
  in
  consistent_point t ~sizes

(* The auxiliary-variable NLP is larger and much worse conditioned than the
   reduced problem; the first-order inner solver needs thousands of
   iterations and can stall, while the trust-region Newton-CG solves it in
   tens — matching the paper's observation that LANCELOT needs second-order
   information to deal with these highly nonlinear constraints
   efficiently.  So the full formulation defaults to the second-order
   inner solver. *)
let default_solver_options =
  {
    Nlp.Auglag.default_options with
    Nlp.Auglag.inner_solver =
      `Newton { Nlp.Newton.default_options with Nlp.Newton.max_iterations = 500 };
  }

let solve ?(solver = default_solver_options) ?(start = `Mid) t =
  let started = Sys.time () in
  let x0 = initial_point t start in
  let report = Nlp.Auglag.solve ~options:solver t.problem ~x0 in
  let sizes = sizes_of t report.Nlp.Auglag.x in
  (* Clip rounding noise and re-evaluate with the forward engine. *)
  Array.iteri
    (fun g s ->
      let cell = (Netlist.gate t.net g).Netlist.cell in
      sizes.(g) <- Util.Numerics.clamp ~lo:1. ~hi:cell.Cell.max_size s)
    sizes;
  let timing, area = Engine.evaluate ~arena:t.arena ~model:t.model t.net ~sizes in
  {
    Engine.objective = t.objective;
    sizes;
    timing;
    mu = Normal.mu timing.Sta.Ssta.circuit;
    sigma = Normal.sigma timing.Sta.Ssta.circuit;
    area;
    cpu_time = Sys.time () -. started;
    evaluations = report.Nlp.Auglag.evaluations;
    iterations = report.Nlp.Auglag.inner_iterations;
    max_violation = report.Nlp.Auglag.max_violation;
    converged = report.Nlp.Auglag.converged;
    termination = report.Nlp.Auglag.termination;
    recovery = [];
  }
