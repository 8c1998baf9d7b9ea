open Util

let cpu_string seconds =
  if seconds >= 60. then
    let minutes = int_of_float (seconds /. 60.) in
    Printf.sprintf "%d m %.1f s" minutes (seconds -. (60. *. float_of_int minutes))
  else Printf.sprintf "%.1f s" seconds

let split_objective (o : Objective.t) =
  match o with
  | Objective.Min_area -> ("sum S_i", "")
  | Objective.Min_delay k -> (Printf.sprintf "min %s" (Objective.metric_name k), "")
  | Objective.Min_area_bounded { k; bound } ->
      ("sum S_i", Printf.sprintf "%s <= %g" (Objective.metric_name k) bound)
  | Objective.Min_sigma { mu } -> ("min sigma", Printf.sprintf "mu = %g" mu)
  | Objective.Max_sigma { mu } -> ("max sigma", Printf.sprintf "mu = %g" mu)
  | Objective.Min_weighted { label; k; bound; _ } ->
      ("min " ^ label, Printf.sprintf "%s <= %g" (Objective.metric_name k) bound)

let status_mark (s : Engine.solution) =
  if s.Engine.converged then ""
  else Printf.sprintf " (%s)*" (Nlp.Auglag.termination_name s.Engine.termination)

let footnote =
  "* not converged: the solver stopped for the reason shown; the row is its best iterate, not \
   a certified optimum"

let row (s : Engine.solution) =
  let minimize, constr = split_objective s.Engine.objective in
  [
    minimize;
    constr;
    Table.fmt_float ~decimals:2 s.Engine.mu;
    Table.fmt_float ~decimals:3 s.Engine.sigma;
    Table.fmt_float ~decimals:0 s.Engine.area;
    cpu_string s.Engine.cpu_time ^ status_mark s;
  ]

let header = [ "minimize"; "constraint"; "muTmax"; "sigmaTmax"; "sum S_i"; "CPU" ]

let table ~name solutions =
  let t = Table.create ~header:("name" :: header) in
  for i = 0 to 6 do
    Table.set_align t i (if i <= 2 then Table.Left else Table.Right)
  done;
  List.iteri
    (fun i s -> Table.add_row t ((if i = 0 then name else "") :: row s))
    solutions;
  t

let speed_factors net (s : Engine.solution) =
  Array.to_list
    (Array.map
       (fun (g : Circuit.Netlist.gate) ->
         (g.Circuit.Netlist.gate_name, s.Engine.sizes.(g.Circuit.Netlist.id)))
       (Circuit.Netlist.gates net))

let pp_solution ppf (s : Engine.solution) =
  Format.fprintf ppf "%s: mu=%.3f sigma=%.4f area=%.1f%s%s (%s)"
    (Objective.describe s.Engine.objective)
    s.Engine.mu s.Engine.sigma s.Engine.area
    (if s.Engine.converged then ""
     else
       Printf.sprintf " [NOT CONVERGED: %s]"
         (Nlp.Auglag.termination_name s.Engine.termination))
    (match s.Engine.recovery with
    | [] -> ""
    | rungs ->
        Printf.sprintf " [recovery: %s]"
          (String.concat " -> " (List.map (fun a -> Engine.rung_name a.Engine.rung) rungs)))
    (cpu_string s.Engine.cpu_time)

(* Machine-readable failure diagnosis for the CLI: what stopped the solve,
   which ladder rungs ran, and the typed breakdown when a guard fired. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Util.Guard.is_finite f then Printf.sprintf "%.6g" f else Printf.sprintf "\"%h\"" f

let diagnosis_json (s : Engine.solution) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  Buffer.add_string b
    (Printf.sprintf "\"status\": %S, " (if s.Engine.converged then "ok" else "failed"));
  Buffer.add_string b
    (Printf.sprintf "\"termination\": %S, "
       (Nlp.Auglag.termination_name s.Engine.termination));
  Buffer.add_string b
    (Printf.sprintf "\"max_violation\": %s, " (json_float s.Engine.max_violation));
  Buffer.add_string b (Printf.sprintf "\"evaluations\": %d, " s.Engine.evaluations);
  let breakdown =
    List.find_map (fun (a : Engine.attempt) -> a.Engine.breakdown) s.Engine.recovery
  in
  (match breakdown with
  | None -> ()
  | Some bd ->
      Buffer.add_string b
        (Printf.sprintf "\"breakdown\": {\"component\": %d, \"fault\": \"%s\", \"eval\": %d}, "
           (Nlp.Problem.component_index bd.Nlp.Problem.b_component)
           (json_escape (Format.asprintf "%a" Nlp.Problem.pp_fault bd.Nlp.Problem.b_fault))
           bd.Nlp.Problem.b_eval));
  Buffer.add_string b "\"recovery\": [";
  List.iteri
    (fun i (a : Engine.attempt) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"rung\": %S, \"outcome\": %S, \"violation\": %s, \"evaluations\": %d}"
           (Engine.rung_name a.Engine.rung)
           (Nlp.Auglag.termination_name a.Engine.outcome)
           (json_float a.Engine.violation) a.Engine.evals))
    s.Engine.recovery;
  Buffer.add_string b "]}";
  Buffer.contents b
