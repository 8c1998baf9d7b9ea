(* paper_tables: Tables 1-3 and the fig. 2 example, regenerated row by
   row through [Sizing.Engine.solve] by one closed-loop caller.  The
   inputs are the paper's circuits; the seed only permutes the order of
   the table blocks and of the rows that do not feed another row (a
   Table 1 bound needs its unsized row, Table 2's targets need its
   min-area and min-mu rows), so every seed solves the same 36 problems. *)

open Sizing
module M = Measure

let model = Circuit.Sigma_model.paper_default

type circuits = {
  table1 : Experiments.Table1.case list;
  tree : Circuit.Netlist.t;
  fig2 : Circuit.Netlist.t;
}

let make_circuits () =
  {
    table1 = Experiments.Table1.cases ();
    tree = Circuit.Generate.tree ();
    fig2 = Circuit.Generate.example_fig2 ();
  }

type row = {
  key : string;
  n_gates : int;
  objective : Objective.t;
  sol : Engine.solution;
  ns : int;  (** time of the [Engine.solve] call, scaled to the reference speed *)
  raw_ns : int;  (** unscaled wall time of the call *)
  minor_words : float;
  recovery_ns : int;  (** traced: time after the first attempt's evaluations *)
  reevaluated : int;  (** traced: [incr.gates_reevaluated] during the solve *)
  analyzes : int;  (** traced: [incr.analyze] during the solve *)
}

(* ---- traced evaluation hook ---------------------------------------------- *)

(* One segment per problem the engine builds: a min/max-sigma row builds
   two (its feasible warm solve, then the row itself). *)
type segment = { seg_start : int; mutable obj_ends : int list; mutable n_obj : int }

type tracer = {
  spans : M.Span.t;
  mutable parent : int;
  mutable segments : segment list;  (** newest first *)
}

let hook tr (p : Nlp.Problem.constrained) =
  let seg = { seg_start = M.now_ns (); obj_ends = []; n_obj = 0 } in
  tr.segments <- seg :: tr.segments;
  Nlp.Problem.map_components
    (fun ~component f x ->
      let t0 = M.now_ns () in
      let r = f x in
      let t1 = M.now_ns () in
      ignore (M.Span.add tr.spans ~name:"eval" ~parent:tr.parent ~start:t0 ~stop:t1);
      (match component with
      | Nlp.Problem.Objective ->
          seg.obj_ends <- t1 :: seg.obj_ends;
          seg.n_obj <- seg.n_obj + 1
      | Nlp.Problem.Constraint _ -> ());
      r)
    p

(* Splits the row's evaluation timeline where the ladder took over: each
   run of attempts that starts with [Initial] belongs to the segment
   whose objective-evaluation count best matches the run's evaluations,
   and the ladder starts after the Initial attempt's last evaluation.
   Objective calls and solver evaluations agree up to the odd
   bookkeeping call, so the split is exact to about one evaluation. *)
let recovery_split (sol : Engine.solution) segments =
  let groups =
    List.fold_left
      (fun acc (a : Engine.attempt) ->
        match (a.rung, acc) with
        | Engine.Initial, _ -> [ a ] :: acc
        | _, g :: rest -> (a :: g) :: rest
        | _, [] -> acc)
      [] sol.recovery
  in
  let segs = List.rev segments in
  List.fold_left
    (fun best group ->
      match List.rev group with
      | [] -> best
      | initial :: _ as g -> (
          let total = List.fold_left (fun s (a : Engine.attempt) -> s + a.evals) 0 g in
          let closest =
            List.fold_left
              (fun acc seg ->
                match acc with
                | Some s when abs (s.n_obj - total) <= abs (seg.n_obj - total) -> acc
                | _ -> Some seg)
              None segs
          in
          match closest with
          | None -> best
          | Some seg ->
              let ends = Array.of_list (List.rev seg.obj_ends) in
              let n0 = initial.evals in
              let split =
                if n0 <= 0 || Array.length ends = 0 then seg.seg_start
                else ends.(min n0 (Array.length ends) - 1)
              in
              min best split))
    max_int groups

(* ---- one pass ------------------------------------------------------------ *)

type order = {
  blocks : int array;  (** permutation of the 5 blocks *)
  t1_rows : int array array;  (** per circuit, permutation of its 6 solved rows *)
  t2_rows : int array;  (** the 9 fixed-mean rows *)
  t3_rows : int array;
}

let make_order seed =
  let rng = Util.Rng.create seed in
  let perm n =
    let a = Array.init n Fun.id in
    Util.Rng.shuffle rng a;
    a
  in
  let blocks = perm 5 in
  let t1_rows = Array.init 3 (fun _ -> perm 6) in
  let t2_rows = perm 9 in
  let t3_rows = perm 3 in
  { blocks; t1_rows; t2_rows; t3_rows }

let c_reeval = Util.Instr.counter "incr.gates_reevaluated"
let c_analyze = Util.Instr.counter "incr.analyze"

let solve_row ~calib ~tracer ~pass_span rows key net objective =
  let options, span =
    match tracer with
    | None -> (Engine.default_options, -1)
    | Some tr ->
        let span = M.Span.open_ tr.spans ~name:("row:" ^ key) ~parent:pass_span in
        tr.parent <- span;
        tr.segments <- [];
        ({ Engine.default_options with instrument = Some (hook tr) }, span)
  in
  let r0 = Util.Instr.count c_reeval and a0 = Util.Instr.count c_analyze in
  let w0 = Gc.minor_words () in
  let t0 = M.now_ns () in
  let sol = Engine.solve ~options ~model net objective in
  let t1 = M.now_ns () in
  let w1 = Gc.minor_words () in
  let recovery_ns =
    match tracer with
    | None -> 0
    | Some tr ->
        M.Span.close tr.spans span;
        if sol.recovery = [] then 0
        else
          let split = recovery_split sol tr.segments in
          if split = max_int then 0 else t1 - split
  in
  let f = M.Calib.mark calib in
  rows :=
    {
      key;
      n_gates = Circuit.Netlist.n_gates net;
      objective;
      sol;
      ns = M.scale f (t1 - t0);
      raw_ns = t1 - t0;
      minor_words = w1 -. w0;
      recovery_ns;
      reevaluated = Util.Instr.count c_reeval - r0;
      analyzes = Util.Instr.count c_analyze - a0;
    }
    :: !rows;
  sol

(* Table 2's fixed-mean targets sit at 20/55/90% of the feasible range,
   rounded to 0.1, as in [Experiments.Table2]. *)
let target_fractions = [| 0.2; 0.55; 0.9 |]

(* One regeneration of every table; a calibration slice follows each
   row.  Returns the rows and their summed scaled time. *)
let pass ~calib ~order ~tracer c =
  let rows = ref [] in
  let pass_span =
    match tracer with None -> -1 | Some tr -> M.Span.open_ tr.spans ~name:"pass" ~parent:(-1)
  in
  let solve = solve_row ~calib ~tracer ~pass_span rows in
  let table1_block i () =
    let case = List.nth c.table1 i in
    let name = case.Experiments.Table1.cname and net = case.Experiments.Table1.net in
    let unsized = solve (name ^ "/sum S_i") net Objective.Min_area in
    let bound = case.Experiments.Table1.bound_fraction *. unsized.Engine.mu in
    let rows =
      [|
        ("min mu", Objective.Min_delay 0.);
        ("min mu+sigma", Objective.Min_delay 1.);
        ("min mu+3sigma", Objective.Min_delay 3.);
        ("min area s.t. mu<=D", Objective.Min_area_bounded { k = 0.; bound });
        ("min area s.t. mu+sigma<=D", Objective.Min_area_bounded { k = 1.; bound });
        ("min area s.t. mu+3sigma<=D", Objective.Min_area_bounded { k = 3.; bound });
      |]
    in
    Array.iter
      (fun j ->
        let label, o = rows.(j) in
        ignore (solve (name ^ "/" ^ label) net o))
      order.t1_rows.(i)
  in
  let tree_block () =
    let net = c.tree in
    let slow = solve "table2/min area" net Objective.Min_area in
    let fast = solve "table2/min mu" net (Objective.Min_delay 0.) in
    let targets =
      Array.map
        (fun f ->
          Float.round ((fast.Engine.mu +. (f *. (slow.Engine.mu -. fast.Engine.mu))) *. 10.) /. 10.)
        target_fractions
    in
    let fixed t =
      [|
        ("min area", Objective.Min_area_bounded { k = 0.; bound = t });
        ("min sigma", Objective.Min_sigma { mu = t });
        ("max sigma", Objective.Max_sigma { mu = t });
      |]
    in
    Array.iter
      (fun j ->
        let label, o = (fixed targets.(j / 3)).(j mod 3) in
        ignore (solve (Printf.sprintf "table2/%s @ target %d" label (j / 3)) net o))
      order.t2_rows;
    Array.iter
      (fun j ->
        let label, o = (fixed targets.(1)).(j) in
        ignore (solve ("table3/" ^ label) net o))
      order.t3_rows
  in
  let fig2_block () = ignore (solve "fig2/min mu+3sigma" c.fig2 (Objective.Min_delay 3.)) in
  let blocks = [| table1_block 0; table1_block 1; table1_block 2; tree_block; fig2_block |] in
  ignore (M.Calib.mark calib);
  Array.iter (fun b -> blocks.(b) ()) order.blocks;
  (match tracer with Some tr -> M.Span.close tr.spans pass_span | None -> ());
  (List.rev !rows, List.fold_left (fun s r -> s + r.ns) 0 !rows)

(* Passes until [seconds] have elapsed (at least one). *)
let measure ~calib ~order ~tracer ~seconds c =
  let t0 = M.now_ns () in
  let rec go acc =
    let rows, wall = pass ~calib ~order ~tracer c in
    let acc = (rows, wall) :: acc in
    if M.s_of_ns (M.now_ns () - t0) >= seconds then List.rev acc else go acc
  in
  go []

(* ---- checks --------------------------------------------------------------- *)

(* Lower is better for every row: area, mu + k sigma, sigma, or -sigma. *)
let objective_value r =
  let s = r.sol in
  match r.objective with
  | Objective.Min_area | Objective.Min_area_bounded _ | Objective.Min_weighted _ -> s.Engine.area
  | Objective.Min_delay k -> s.Engine.mu +. (k *. s.Engine.sigma)
  | Objective.Min_sigma _ -> s.Engine.sigma
  | Objective.Max_sigma _ -> -.s.Engine.sigma

(* Relative slack of the row's constraint (positive = violated). *)
let violation r =
  let s = r.sol in
  match r.objective with
  | Objective.Min_area_bounded { k; bound } | Objective.Min_weighted { k; bound; _ } ->
      ((s.Engine.mu +. (k *. s.Engine.sigma)) /. bound) -. 1.
  | Objective.Min_sigma { mu } | Objective.Max_sigma { mu } -> abs_float ((s.Engine.mu /. mu) -. 1.)
  | Objective.Min_area | Objective.Min_delay _ -> 0.

let check rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if List.length rows <> List.length Reference.tables then
    err "paper_tables: %d rows, reference has %d" (List.length rows) (List.length Reference.tables);
  List.iter
    (fun r ->
      let v = objective_value r in
      (match List.assoc_opt r.key Reference.tables with
      | None -> err "%s: no reference objective" r.key
      | Some ref_v ->
          if not (v <= ref_v +. (Reference.objective_tolerance *. abs_float ref_v)) then
            err "%s: objective %.9g worse than reference %.9g" r.key v ref_v);
      let viol = violation r in
      if not (viol <= Reference.feasibility_tolerance) then
        err "%s: constraint violated by %.3g (relative)" r.key viol)
    rows;
  (* Table 3 re-solves Table 2's mid-target rows: the same problem must
     give the same bits. *)
  let find k = List.find_opt (fun r -> r.key = k) rows in
  List.iter
    (fun label ->
      match (find ("table3/" ^ label), find ("table2/" ^ label ^ " @ target 1")) with
      | Some a, Some b ->
          if not (Array.for_all2 (fun x y -> Int64.equal (M.bits x) (M.bits y)) a.sol.sizes b.sol.sizes)
          then err "table3/%s: sizes differ from the identical Table 2 solve" label
      | _ -> err "table3/%s: row missing" label)
    [ "min area"; "min sigma"; "max sigma" ];
  List.rev !errors

(* Row sizes and moments, bit for bit, keyed by row. *)
let fingerprint rows =
  List.map
    (fun r ->
      ( r.key,
        M.checksum (Array.append r.sol.Engine.sizes [| r.sol.Engine.mu; r.sol.Engine.sigma |]) ))
    rows

(* ---- metrics -------------------------------------------------------------- *)

let rungs r =
  List.length (List.filter (fun (a : Engine.attempt) -> a.rung <> Engine.Initial) r.sol.Engine.recovery)

(* The unit of work is one regeneration of every table (a pass). *)
let e2e_of passes =
  let rows = List.concat_map fst passes in
  let n_pass = float_of_int (List.length passes) in
  let pass_ms = Array.of_list (List.map (fun (_, w) -> M.ms_of_ns w) passes) in
  let evals = List.fold_left (fun s r -> s + r.sol.Engine.evaluations) 0 rows in
  let attempts = List.fold_left (fun s r -> s + 1 + rungs r) 0 rows in
  let ok = List.length (List.filter (fun r -> r.sol.Engine.converged) rows) in
  ( (M.m "ops_per_s" (n_pass /. (M.sum pass_ms /. 1e3)) "1/s" :: M.latency_metrics [ pass_ms ])
    @ [
        M.m "evals_per_op" (float_of_int evals /. n_pass) "count";
        M.m "attempts_per_op" (float_of_int attempts /. n_pass) "count";
      ],
    ok,
    List.length rows )

let print_rows rows =
  Printf.printf "%-44s %14s %9s %5s %10s %10s %-24s %s\n" "row" "objective" "evals" "conv" "ms"
    "raw_ms" "objective_hex" "ladder";
  List.iter
    (fun r ->
      Printf.printf "%-44s %14.6f %9d %5b %10.1f %10.1f %-24h %s\n" r.key (objective_value r)
        r.sol.Engine.evaluations r.sol.Engine.converged (M.ms_of_ns r.ns) (M.ms_of_ns r.raw_ns)
        (objective_value r)
        (String.concat ","
           (List.map
              (fun (a : Engine.attempt) -> Printf.sprintf "%s:%d" (Engine.rung_name a.rung) a.evals)
              r.sol.Engine.recovery)))
    rows

let print_named_metrics passes =
  let n_pass = float_of_int (List.length passes) in
  let rows = List.concat_map fst passes in
  let wall = List.fold_left (fun s (_, w) -> s + w) 0 passes in
  let evals = List.fold_left (fun s r -> s + r.sol.Engine.evaluations) 0 rows in
  let not_conv = List.length (List.filter (fun r -> not r.sol.Engine.converged) rows) in
  M.print_metrics "paper_tables (per pass):"
    [
      M.m "tables_wall_s" (M.s_of_ns wall /. n_pass) "s";
      M.m "tables_evals" (float_of_int evals /. n_pass) "count";
      M.m "tables_rungs" (float_of_int (List.fold_left (fun s r -> s + rungs r) 0 rows) /. n_pass) "count";
      M.m "failed_frac" (float_of_int not_conv /. float_of_int (List.length rows)) "ratio";
    ]

let layers_of ~spans passes =
  let n_pass = float_of_int (List.length passes) in
  let rows = List.concat_map fst passes in
  let snap = Util.Instr.snapshot ~all:true () in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Util.Instr.counters)) in
  let timer name =
    match List.assoc_opt name snap.Util.Instr.timers with
    | Some t -> t.Util.Instr.seconds
    | None -> 0.
  in
  (* Unscaled, like the spans it is compared with. *)
  let solve_s = List.fold_left (fun s r -> s +. M.s_of_ns r.raw_ns) 0. rows /. n_pass in
  let eval_s = M.Span.total_s spans "eval" /. n_pass in
  let evals = float_of_int (List.fold_left (fun s r -> s + r.sol.Engine.evaluations) 0 rows) in
  let words = List.fold_left (fun s r -> s +. r.minor_words) 0. rows in
  let first_try = List.length (List.filter (fun r -> r.sol.Engine.recovery = []) rows) in
  let reeval = List.fold_left (fun s r -> s + r.reevaluated) 0 rows in
  let swept = List.fold_left (fun s r -> s + (r.analyzes * r.n_gates)) 0 rows in
  [
    M.m "sizing.solve_s" solve_s "s";
    M.m "sizing.eval_s" eval_s "s";
    M.m "sizing.cache_hit_ratio"
      (M.ratio (count "engine.cache_hit") (count "engine.cache_hit" +. count "engine.cache_miss"))
      "ratio";
    M.m "sizing.recovery_s"
      (List.fold_left (fun s r -> s +. M.s_of_ns r.recovery_ns) 0. rows /. n_pass)
      "s";
    M.m "sizing.first_try_ratio" (float_of_int first_try /. float_of_int (List.length rows)) "ratio";
    M.m "nlp.self_s" (solve_s -. eval_s) "s";
    M.m "nlp.inner_iterations" (count "auglag.inner_iterations" /. n_pass) "count";
    M.m "nlp.outer_iterations" (count "auglag.outer_iterations" /. n_pass) "count";
    M.m "nlp.evals_per_iteration"
      (M.ratio (count "auglag.evaluations") (count "auglag.inner_iterations"))
      "ratio";
    M.m "sta.incr_forward_s" (timer "incr.forward" /. n_pass) "s";
    M.m "sta.incr_reverse_s" (timer "incr.reverse" /. n_pass) "s";
    M.m "sta.reverse_per_eval"
      (M.ratio (count "incr.gradient" +. count "ssta.gradient") (count "engine.cache_miss"))
      "ratio";
    M.m "sta.dirty_fraction" (M.ratio (float_of_int reeval) (float_of_int swept)) "ratio";
    M.m "util.minor_words_per_eval" (M.ratio words evals) "words";
  ]

let run ~seed ~seconds ~trace =
  (* A set-up takes milliseconds, short enough to fall wholly inside a
     burst of machine-share slowdown: half the repetitions run before the
     timed phase and half after it. *)
  let calib = M.Calib.start M.Calib.Cache in
  let before, circuits = M.time_setups calib 8 make_circuits in
  let order = make_order seed in
  let passes = measure ~calib ~order ~tracer:None ~seconds circuits in
  let rss = M.peak_rss_mb () in
  let after, _ = M.time_setups calib 8 make_circuits in
  Printf.printf "host speed: %.3f of the reference\n" (M.Calib.speed calib);
  let setup_s = M.median (Array.append before after) in
  let rows = fst (List.hd passes) in
  print_rows rows;
  print_named_metrics passes;
  let errors = check rows in
  let e2e, ok, attempted = e2e_of passes in
  let e2e =
    M.m "setup_s" setup_s "s"
    :: M.m "peak_rss_mb" rss "MB"
    :: M.m "ok_frac" (float_of_int ok /. float_of_int attempted) "ratio"
    :: e2e
  in
  if not trace then { M.attempted; failed = attempted - ok; errors; e2e; layers = [] }
  else begin
    let spans = M.Span.create () in
    let tracer = { spans; parent = -1; segments = [] } in
    Util.Instr.reset ();
    Util.Instr.enable ();
    let traced = measure ~calib ~order ~tracer:(Some tracer) ~seconds circuits in
    Util.Instr.disable ();
    let traced_rows = fst (List.hd traced) in
    let identity =
      if fingerprint traced_rows = fingerprint rows then []
      else [ "paper_tables: traced rows differ from untraced rows" ]
    in
    let traced_e2e, _, _ = e2e_of traced in
    let layers = layers_of ~spans traced in
    M.Span.write spans (Printf.sprintf ".bench_build/spans/paper_tables-%d.jsonl" seed);
    {
      M.attempted;
      failed = attempted - ok;
      errors = errors @ identity;
      e2e;
      layers = layers @ M.overhead ~untraced:e2e ~traced:traced_e2e;
    }
  end
