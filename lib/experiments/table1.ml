open Circuit
open Sizing

type case = { cname : string; net : Netlist.t; bound_fraction : float }

(* The paper's bounds sit at 120/173.7 = 0.69 (apex1), 29/31.5 = 0.92
   (apex2) and 120/184.0 = 0.65 (k2) of the unsized mean delay. *)
let cases ?(small = false) () =
  if small then
    [
      {
        cname = "mini1";
        net = Generate.random_dag { Generate.default_spec with n_gates = 60; seed = 5 };
        bound_fraction = 0.8;
      };
    ]
  else
    [
      { cname = "apex1*"; net = Generate.apex1_like (); bound_fraction = 0.69 };
      { cname = "apex2*"; net = Generate.apex2_like (); bound_fraction = 0.92 };
      { cname = "k2*"; net = Generate.k2_like (); bound_fraction = 0.65 };
    ]

type case_result = {
  case : case;
  bound : float;
  rows : Engine.solution list;
}

let run_case ?(model = Sigma_model.paper_default) ?pool case =
  let net = case.net in
  let unsized = Engine.solve ?pool ~model net Objective.Min_area in
  let bound = case.bound_fraction *. unsized.Engine.mu in
  let objectives =
    [
      Objective.Min_delay 0.;
      Objective.Min_delay 1.;
      Objective.Min_delay 3.;
      Objective.Min_area_bounded { k = 0.; bound };
      Objective.Min_area_bounded { k = 1.; bound };
      Objective.Min_area_bounded { k = 3.; bound };
    ]
  in
  let rows = unsized :: List.map (Engine.solve ?pool ~model net) objectives in
  { case; bound; rows }

let run ?small ?model ?pool () = List.map (run_case ?model ?pool) (cases ?small ())

let print results =
  List.iter
    (fun r ->
      Printf.printf "# %s: %d cells, delay bound D = %.2f\n" r.case.cname
        (Netlist.n_gates r.case.net) r.bound;
      Util.Table.print (Report.table ~name:r.case.cname r.rows);
      if List.exists (fun s -> not s.Engine.converged) r.rows then print_endline Report.footnote;
      print_newline ())
    results
