type point = { bound : float; solution : Engine.solution }

type curve = {
  net : Circuit.Netlist.t;
  k : float;
  mu_fast : float;
  mu_slow : float;
  points : point list;
}

let area_delay ?options ?(model = Circuit.Sigma_model.paper_default) ?(k = 0.)
    ?(points = 5) net =
  if points < 2 then invalid_arg "Sweep.area_delay: need at least two points";
  let fastest = Engine.solve ?options ~model net (Objective.Min_delay k) in
  let slowest = Engine.solve ?options ~model net Objective.Min_area in
  let metric (s : Engine.solution) = s.Engine.mu +. (k *. s.Engine.sigma) in
  let lo = metric fastest and hi = metric slowest in
  (* Margins keep every budget strictly feasible: the fast end of the curve
     is only reachable in the limit. *)
  let lo = lo +. (0.02 *. (hi -. lo)) and hi = hi -. (0.02 *. (hi -. lo)) in
  let budgets = Util.Numerics.linspace hi lo points in
  let points =
    Array.to_list
      (Array.map
         (fun bound ->
           {
             bound;
             solution =
               Engine.solve ?options ~model net (Objective.Min_area_bounded { k; bound });
           })
         budgets)
  in
  {
    net;
    k;
    mu_fast = fastest.Engine.mu;
    mu_slow = slowest.Engine.mu;
    points;
  }

let print curve =
  Printf.printf "# area-delay curve: %s, metric %s, feasible mu range [%.2f, %.2f]\n"
    (Circuit.Netlist.name curve.net)
    (Objective.metric_name curve.k)
    curve.mu_fast curve.mu_slow;
  let t =
    Util.Table.create ~header:[ "budget D"; "muTmax"; "sigmaTmax"; "sum S_i"; "CPU" ]
  in
  for i = 0 to 4 do
    Util.Table.set_align t i Util.Table.Right
  done;
  List.iter
    (fun { bound; solution } ->
      Util.Table.add_row t
        [
          Printf.sprintf "%.2f" bound;
          Util.Table.fmt_float solution.Engine.mu;
          Util.Table.fmt_float ~decimals:3 solution.Engine.sigma;
          Util.Table.fmt_float ~decimals:1 solution.Engine.area;
          Report.cpu_string solution.Engine.cpu_time;
        ])
    curve.points;
  Util.Table.print t;
  print_newline ()
