open Sizing

type row = {
  gates : int;
  min_delay_time : float;
  min_delay_iterations : int;
  min_delay_mark : string;
  bounded_time : float;
  bounded_iterations : int;
  bounded_mark : string;
  speedup : float;
}

type result = { rows : row list }

let run ?(model = Circuit.Sigma_model.paper_default)
    ?(sizes_list = [ 100; 300; 1000; 3000; 5000 ]) ?(seed = 53) ?pool () =
  let rows =
    List.map
      (fun gates ->
        let spec =
          {
            Circuit.Generate.default_spec with
            Circuit.Generate.n_gates = gates;
            n_pis = max 8 (gates / 20);
            target_depth = max 6 (int_of_float (3. *. sqrt (float_of_int gates)) / 2);
            seed = seed + gates;
          }
        in
        let net = Circuit.Generate.random_dag spec in
        let unsized = Engine.solve ?pool ~model net Objective.Min_area in
        let fast = Engine.solve ?pool ~model net (Objective.Min_delay 3.) in
        let bound = 0.75 *. unsized.Engine.mu in
        let bounded =
          Engine.solve ?pool ~model net (Objective.Min_area_bounded { k = 3.; bound })
        in
        {
          gates;
          min_delay_time = fast.Engine.cpu_time;
          min_delay_iterations = fast.Engine.iterations;
          min_delay_mark = Report.status_mark fast;
          bounded_time = bounded.Engine.cpu_time;
          bounded_iterations = bounded.Engine.iterations;
          bounded_mark = Report.status_mark bounded;
          speedup = unsized.Engine.mu /. fast.Engine.mu;
        })
      sizes_list
  in
  { rows }

let print r =
  Printf.printf "# F-SCALE: solver cost vs circuit size (reduced-space engine)\n";
  let t =
    Util.Table.create
      ~header:
        [
          "gates"; "min mu+3s CPU"; "iters"; "area s.t. delay CPU"; "iters"; "speed-up";
        ]
  in
  for i = 0 to 5 do
    Util.Table.set_align t i Util.Table.Right
  done;
  List.iter
    (fun row ->
      Util.Table.add_row t
        [
          string_of_int row.gates;
          Report.cpu_string row.min_delay_time;
          string_of_int row.min_delay_iterations ^ row.min_delay_mark;
          Report.cpu_string row.bounded_time;
          string_of_int row.bounded_iterations ^ row.bounded_mark;
          Printf.sprintf "%.2fx" row.speedup;
        ])
    r.rows;
  Util.Table.print t;
  if List.exists (fun row -> row.min_delay_mark ^ row.bounded_mark <> "") r.rows then
    print_endline Report.footnote;
  Printf.printf
    "(the paper reports minutes-to-hours with LANCELOT on 1999 hardware for up\n\
     to 1692 cells; the adjoint-gradient reduced formulation keeps the cost\n\
     near-linear in circuit size)\n\n"
