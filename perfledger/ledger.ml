(* The repository's performance ledger: one workload per run, its
   end-to-end metrics (or, with --trace 1, its per-layer metrics) as the
   last line of stdout.  Exits 1 when a correctness check fails. *)

module M = Measure

(* Every per-layer metric BENCHMARK.json lists, in its order, with its
   unit.  A workload reports 0 for a layer it does not run. *)
let layer_names () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let str key j = Option.bind (Serve.Json.member key j) Serve.Json.str in
  match Result.to_option (Serve.Json.parse text) with
  | None -> failwith "BENCHMARK.json: not valid JSON"
  | Some j ->
      List.map
        (fun entry ->
          match (str "name" entry, str "unit" entry) with
          | Some name, Some unit_ -> (name, unit_)
          | _ -> failwith "BENCHMARK.json: per_layer entry without name or unit")
        (Option.value ~default:[] (Option.bind (Serve.Json.member "per_layer" j) Serve.Json.list_))

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : M.metric) -> x.name = name) measured with
      | Some x -> x
      | None -> M.m name 0. unit_)
    (layer_names ())

let usage () =
  prerr_endline
    "usage: ledger --workload paper_tables|dag|serve --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " paper_tables | dag | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
    ]
    (fun _ -> usage ())
    "ledger";
  let run =
    match !workload with
    | "paper_tables" -> Tables.run
    | "dag" -> Dag.run
    | "serve" -> Served.run
    | _ -> usage ()
  in
  let trace = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~trace in
  M.print_metrics "end to end:" o.M.e2e;
  let reported =
    if trace then begin
      let layers = complete o.M.layers in
      M.print_metrics "per layer:" layers;
      layers
    end
    else o.M.e2e
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) o.M.errors;
  let correct = o.M.errors = [] in
  print_endline (M.result_line ~correct ~attempted:o.M.attempted ~failed:o.M.failed reported);
  if not correct then exit 1
