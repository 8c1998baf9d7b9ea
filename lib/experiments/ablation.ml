open Circuit
open Sizing

type sigma_row = { ratio : float; mu : float; sigma : float; area : float }

type formulation_row = {
  form : string;
  inner_iterations : int;
  evaluations : int;
  cpu_time : float;
  objective_value : float;
  converged : bool;
}

type baseline_row = {
  method_name : string;
  area : float;
  worst_case_delay : float;
  mu : float;
  sigma : float;
  mc_yield : float;
}

type solver_row = {
  solver_name : string;
  s_iterations : int;
  s_evaluations : int;
  s_cpu_time : float;
  s_objective : float;
  s_converged : bool;
}

type result = {
  sigma_sweep : sigma_row list;
  formulation : formulation_row list;
  deadline : float;
  baseline : baseline_row list;
  solver : solver_row list;
}

let sigma_sweep net =
  List.map
    (fun ratio ->
      let model = Sigma_model.Proportional ratio in
      let s = Engine.solve ~model net (Objective.Min_delay 3.) in
      { ratio; mu = s.Engine.mu; sigma = s.Engine.sigma; area = s.Engine.area })
    [ 0.05; 0.1; 0.25; 0.4; 0.5 ]

let formulation_ablation () =
  let model = Sigma_model.paper_default in
  let net = Generate.tree () in
  let objective = Objective.Min_delay 3. in
  List.map
    (fun (form, linearized) ->
      let f = Formulate.build ~linearized ~model net objective in
      let s = Formulate.solve f in
      {
        form;
        inner_iterations = s.Engine.iterations;
        evaluations = s.Engine.evaluations;
        cpu_time = s.Engine.cpu_time;
        objective_value = s.Engine.mu +. (3. *. s.Engine.sigma);
        converged = s.Engine.converged;
      })
    [ ("eq15 (linearised)", true); ("eq14 (1/S)", false) ]

let baseline_comparison ~samples ~seed net deadline =
  let model = Sigma_model.paper_default in
  let yield_of sizes =
    Sta.Yield.monte_carlo ~rng:(Util.Rng.create seed) ~model net ~sizes ~deadline
      ~n:samples
  in
  let stat_row name objective =
    let s = Engine.solve ~model net objective in
    {
      method_name = name;
      area = s.Engine.area;
      worst_case_delay = (Sta.Dsta.analyze net ~sizes:s.Engine.sizes).Sta.Dsta.circuit;
      mu = s.Engine.mu;
      sigma = s.Engine.sigma;
      mc_yield = yield_of s.Engine.sizes;
    }
  in
  let greedy = Baseline.meet_deadline net ~deadline in
  let timing, _ = Engine.evaluate ~model net ~sizes:greedy.Baseline.sizes in
  let greedy_row =
    {
      method_name = "deterministic greedy (TILOS)";
      area = greedy.Baseline.area;
      worst_case_delay = greedy.Baseline.delay;
      mu = Statdelay.Normal.mu timing.Sta.Ssta.circuit;
      sigma = Statdelay.Normal.sigma timing.Sta.Ssta.circuit;
      mc_yield = yield_of greedy.Baseline.sizes;
    }
  in
  [
    greedy_row;
    stat_row "statistical, mu <= D" (Objective.Min_area_bounded { k = 0.; bound = deadline });
    stat_row "statistical, mu+3sigma <= D"
      (Objective.Min_area_bounded { k = 3.; bound = deadline });
  ]

(* A-SOLVER: the same sizing problem solved with the first-order and the
   second-order inner solver. *)
let solver_ablation net deadline =
  let model = Sigma_model.paper_default in
  let objective = Objective.Min_area_bounded { k = 3.; bound = deadline } in
  let run_with solver_name inner_solver =
    let solver = { Nlp.Auglag.default_options with Nlp.Auglag.inner_solver } in
    let s =
      Engine.solve
        ~options:{ Engine.default_options with Engine.solver }
        ~model net objective
    in
    {
      solver_name;
      s_iterations = s.Engine.iterations;
      s_evaluations = s.Engine.evaluations;
      s_cpu_time = s.Engine.cpu_time;
      s_objective = s.Engine.area;
      s_converged = s.Engine.converged;
    }
  in
  [
    run_with "projected L-BFGS" `Lbfgs;
    run_with "trust-region Newton-CG" (`Newton Nlp.Newton.default_options);
  ]

let run ?(samples = 20_000) ?(seed = 31) () =
  let net = Generate.apex2_like () in
  let model = Sigma_model.paper_default in
  let unsized = Engine.solve ~model net Objective.Min_area in
  let deadline = 0.85 *. unsized.Engine.mu in
  {
    sigma_sweep = sigma_sweep net;
    formulation = formulation_ablation ();
    deadline;
    baseline = baseline_comparison ~samples ~seed net deadline;
    solver = solver_ablation net deadline;
  }

let print r =
  Printf.printf "# A-SIGMA: sigma-model ratio sweep (apex2*, min mu+3sigma)\n";
  let t = Util.Table.create ~header:[ "sigma/mu ratio"; "muTmax"; "sigmaTmax"; "sum S_i" ] in
  for i = 0 to 3 do
    Util.Table.set_align t i Util.Table.Right
  done;
  List.iter
    (fun s ->
      Util.Table.add_row t
        [
          Printf.sprintf "%.2f" s.ratio;
          Util.Table.fmt_float s.mu;
          Util.Table.fmt_float ~decimals:3 s.sigma;
          Util.Table.fmt_float s.area;
        ])
    r.sigma_sweep;
  Util.Table.print t;
  Printf.printf "\n# A-FORM: eq. 15 vs eq. 14 delay-constraint form (tree, full NLP)\n";
  let t2 =
    Util.Table.create
      ~header:[ "form"; "inner iters"; "evaluations"; "CPU"; "mu+3sigma"; "converged" ]
  in
  List.iter
    (fun f ->
      Util.Table.add_row t2
        [
          f.form;
          string_of_int f.inner_iterations;
          string_of_int f.evaluations;
          Report.cpu_string f.cpu_time;
          Util.Table.fmt_float ~decimals:3 f.objective_value;
          string_of_bool f.converged;
        ])
    r.formulation;
  Util.Table.print t2;
  Printf.printf "\n# baseline: deterministic vs statistical at deadline D = %.2f\n"
    r.deadline;
  let t3 =
    Util.Table.create
      ~header:[ "method"; "sum S_i"; "worst-case delay"; "mu"; "sigma"; "MC yield" ]
  in
  for i = 1 to 5 do
    Util.Table.set_align t3 i Util.Table.Right
  done;
  List.iter
    (fun b ->
      Util.Table.add_row t3
        [
          b.method_name;
          Util.Table.fmt_float b.area;
          Util.Table.fmt_float b.worst_case_delay;
          Util.Table.fmt_float b.mu;
          Util.Table.fmt_float ~decimals:3 b.sigma;
          Printf.sprintf "%.1f%%" (100. *. b.mc_yield);
        ])
    r.baseline;
  Util.Table.print t3;
  Printf.printf
    "\n# A-SOLVER: inner solver of the augmented Lagrangian (min area s.t. mu+3sigma <= D)\n";
  let t4 =
    Util.Table.create
      ~header:[ "inner solver"; "iterations"; "evaluations"; "CPU"; "sum S_i"; "converged" ]
  in
  List.iter
    (fun s ->
      Util.Table.add_row t4
        [
          s.solver_name;
          string_of_int s.s_iterations;
          string_of_int s.s_evaluations;
          Report.cpu_string s.s_cpu_time;
          Util.Table.fmt_float s.s_objective;
          string_of_bool s.s_converged;
        ])
    r.solver;
  Util.Table.print t4;
  print_newline ()
