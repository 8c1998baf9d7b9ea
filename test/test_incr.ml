(* Differential tests for the memoized timing engine (Sta.Incr).

   The headline harness drives randomized sparse size-delta sequences
   over generated and .bench netlists and asserts that the engine is
   bit-identical to a from-scratch Ssta analysis at every step — values
   and gradients — at 1, 2 and 4 domains.  Further groups cover cache
   hits, wholesale invalidation, and that a sweep that raises leaves no
   stale cache hit behind. *)

open Circuit

let model = Sigma_model.paper_default

(* A pooled case spawns its pool and joins it when done: idle domains
   kept alive for the whole suite would still join every stop-the-world
   minor GC. *)
let with_jobs jobs f =
  if jobs = 1 then f None else Util.Pool.with_pool ~jobs (fun pool -> f (Some pool))

(* ---- bit-level comparison helpers ------------------------------------------- *)

let bits = Int64.bits_of_float

let check_normal_identical msg (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
  if
    not
      (Int64.equal (bits a.Statdelay.Normal.mu) (bits b.Statdelay.Normal.mu)
      && Int64.equal (bits a.Statdelay.Normal.var) (bits b.Statdelay.Normal.var))
  then
    Alcotest.failf "%s: (%h, %h) <> (%h, %h)" msg a.Statdelay.Normal.mu
      a.Statdelay.Normal.var b.Statdelay.Normal.mu b.Statdelay.Normal.var

let check_floats_identical msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.(i))) then
        Alcotest.failf "%s: slot %d: %h <> %h" msg i x b.(i))
    a

let check_results_identical msg (a : Sta.Ssta.result) (b : Sta.Ssta.result) =
  check_normal_identical (msg ^ ": circuit") a.Sta.Ssta.circuit b.Sta.Ssta.circuit;
  Array.iteri
    (fun i x -> check_normal_identical (msg ^ ": arrival") x b.Sta.Ssta.arrival.(i))
    a.Sta.Ssta.arrival;
  Array.iteri
    (fun i x ->
      check_normal_identical (msg ^ ": gate_delay") x b.Sta.Ssta.gate_delay.(i))
    a.Sta.Ssta.gate_delay;
  check_floats_identical (msg ^ ": loads") a.Sta.Ssta.loads b.Sta.Ssta.loads

(* ---- circuits under test ---------------------------------------------------- *)

let wide_dag ?(n_gates = 300) seed =
  Generate.random_dag
    {
      Generate.default_spec with
      Generate.n_gates;
      n_pis = 30;
      target_depth = 8;
      seed;
    }

(* examples/cla4.bench is a test/dune dep; `dune runtest` runs from the
   test build directory, a manual `dune exec` from the project root. *)
let bench_net =
  lazy
    (let path =
       match
         List.find_opt Sys.file_exists
           [ "../examples/cla4.bench"; "examples/cla4.bench" ]
       with
       | Some p -> p
       | None -> Alcotest.fail "examples/cla4.bench not found (is it a test dep?)"
     in
     match Bench_format.parse_file ~library:(Cell.Library.default ()) path with
     | Ok net -> net
     | Error e ->
         Alcotest.failf "cla4.bench: %s" (Format.asprintf "%a" Bench_format.pp_error e))

let nets_under_test () =
  [
    ("cla4.bench", Lazy.force bench_net);
    ("apex2*", Generate.apex2_like ());
    ("dag300", wide_dag 7);
  ]

(* ---- the differential harness ----------------------------------------------- *)

(* The randomized driver is the shared simulation harness (lib/sim): a
   keyed-seed op sequence of sparse batch resizes, forward-only
   analyzes and gradient queries (rotating over the mu / var / mu+3sigma
   seed roots, as the bespoke driver here used to), with the invariant
   suite — incremental vs scratch vs boxed vs pooled, bitwise — run
   after every op.  Cache-hit coverage comes for free: each invariant
   check re-analyzes the unchanged point. *)
let diff_weights =
  {
    Sim.Gen.zero_weights with
    Sim.Gen.batch_resize = 40;
    resize = 10;
    analyze = 20;
    gradient = 30;
  }

(* Run a [steps]-op generated sequence on [net] under the full invariant
   suite, failing the test on the first violation.  Returns the
   engine-under-test's counters so callers can assert caching engaged. *)
let run_differential ?(jobs = 1) ?pool ~steps ~seed name net =
  let config = { Sim.Gen.default with Sim.Gen.n_ops = steps; weights = diff_weights } in
  let ops = Sim.Gen.sequence ~net ~seed config in
  let pools = match pool with None -> [] | Some p -> [ (jobs, p) ] in
  let report = Sim.Harness.run_net ~pools ?incr_pool:pool ~seed net ops in
  (match report.Sim.Harness.outcome with
  | Sim.Harness.Passed -> ()
  | Sim.Harness.Failed f ->
      Alcotest.failf
        "%s: invariant %S violated at op %d (%s)\n  %s\n  reproduce: seed %d, %d ops"
        name f.Sim.Harness.violation.Sim.Invariant.name f.Sim.Harness.step
        (Sim.Op.to_line f.Sim.Harness.op)
        f.Sim.Harness.violation.Sim.Invariant.detail seed steps);
  report.Sim.Harness.counters

let test_differential_all_circuits () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun pool ->
          List.iter
            (fun (name, net) ->
              let name = Printf.sprintf "%s jobs=%d" name jobs in
              let c = run_differential ~jobs ?pool ~steps:25 ~seed:(17 * jobs) name net in
              Alcotest.(check bool)
                (name ^ ": cache hits happened")
                true
                (c.Sta.Incr.cache_hits > 0))
            (nets_under_test ())))
    [ 1; 2; 4 ]

let prop_random_dag_differential =
  QCheck.Test.make ~name:"incremental bit-identical on random netlists" ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 400)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      let c = run_differential ~steps:12 ~seed:(seed + 13) "qcheck" net in
      c.Sta.Incr.analyzes >= 12)

(* ---- cache accounting ------------------------------------------------------- *)

let test_cache_hit_on_identical_sizes () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let sizes = Netlist.min_sizes net in
  ignore (Sta.Incr.analyze eng ~sizes);
  ignore (Sta.Incr.analyze eng ~sizes);
  ignore (Sta.Incr.analyze eng ~sizes:(Array.copy sizes));
  let c = Sta.Incr.counters eng in
  Alcotest.(check int) "analyzes" 3 c.Sta.Incr.analyzes;
  Alcotest.(check int) "cache hits" 2 c.Sta.Incr.cache_hits;
  Alcotest.(check int) "reevaluated = n" (Netlist.n_gates net)
    c.Sta.Incr.gates_reevaluated

let test_invalidate_forces_full_sweep () =
  let net = Generate.apex2_like () in
  let eng = Sta.Incr.create ~model net in
  let sizes = Netlist.min_sizes net in
  ignore (Sta.Incr.analyze eng ~sizes);
  Sta.Incr.invalidate eng;
  let reference = Sta.Ssta.analyze ~model net ~sizes in
  let incremental = Sta.Incr.analyze eng ~sizes in
  check_results_identical "post-invalidate" reference incremental;
  let c = Sta.Incr.counters eng in
  Alcotest.(check int) "two sweeps" (2 * Netlist.n_gates net) c.Sta.Incr.gates_reevaluated;
  Alcotest.(check int) "cache hits" 0 c.Sta.Incr.cache_hits

(* A forward sweep that raises part-way has already overwritten the
   planes of every level before the failing gate.  The next analyze at
   the last good sizes must sweep again, not serve those planes. *)
let test_raising_sweep_leaves_no_stale_hit () =
  let net = Generate.apex2_like () in
  let n = Netlist.n_gates net in
  let eng = Sta.Incr.create ~model net in
  let good = Netlist.min_sizes net in
  ignore (Sta.Incr.analyze eng ~sizes:good);
  (* Every gate moves; the last gate in sweep order sits just below 1,
     which Netlist.check_sizes tolerates but the cell delay rejects. *)
  let bad = Array.make n 1.5 in
  bad.((Netlist.flat net).Netlist.inv_perm.(n - 1)) <- 1. -. 1e-10;
  Alcotest.check_raises "sweep raises" (Invalid_argument "Cell.delay: size below 1")
    (fun () -> ignore (Sta.Incr.analyze eng ~sizes:bad));
  check_results_identical "after raise" (Sta.Ssta.analyze ~model net ~sizes:good)
    (Sta.Incr.analyze eng ~sizes:good);
  Alcotest.(check int) "no cache hit" 0 (Sta.Incr.counters eng).Sta.Incr.cache_hits

let () =
  let open Alcotest in
  run "incr"
    [
      ( "differential",
        [
          test_case "all circuits x 1/2/4 domains" `Quick test_differential_all_circuits;
          Seed_info.to_alcotest prop_random_dag_differential;
        ] );
      ( "cache",
        [
          test_case "hit on identical sizes" `Quick test_cache_hit_on_identical_sizes;
          test_case "invalidate" `Quick test_invalidate_forces_full_sweep;
          test_case "raising sweep leaves no stale hit" `Quick
            test_raising_sweep_leaves_no_stale_hit;
        ] );
    ]
