(* Differential tests for the flat structure-of-arrays timing arena.

   Sta.Ssta.Boxed is the pre-refactor record-based implementation kept
   verbatim as a golden oracle: every arena-backed engine entry point
   must produce Int64-bit-identical values AND gradients against it, on
   generated and .bench circuits, at 1, 2 and 4 domains, across arena
   reuse (the same planes swept at many size vectors).  A second group
   is a Gc-based regression test: a steady-state forward (and reverse)
   sweep on a reused arena must not allocate — strictly in the release
   profile where the Clark kernels inline, within a loose per-gate
   ceiling in the dev profile (whose -opaque flag blocks cross-library
   inlining and re-boxes kernel arguments). *)

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
    ("fig2", Generate.example_fig2 ());
    ("tree", Generate.tree ());
    ("cla4.bench", Lazy.force bench_net);
    ("apex2*", Generate.apex2_like ());
    ("dag300", wide_dag 13);
  ]

(* ---- differential harness --------------------------------------------------- *)

let basis_mu _ = { Sta.Ssta.d_mu = 1.; d_var = 0. }
let basis_var _ = { Sta.Ssta.d_mu = 0.; d_var = 1. }

let seed_for step =
  match step mod 3 with
  | 0 -> ("mu", basis_mu)
  | 1 -> ("var", basis_var)
  | _ -> ("mu+3s", Sta.Ssta.mu_plus_k_sigma_seed 3.)

(* Sweep the SAME arena at a sequence of random interior points,
   asserting every snapshot and gradient bit-identical to the boxed
   golden path. *)
let run_differential ?pool ~steps ~seed name net =
  let rng = Util.Rng.create seed in
  let arena = Sta.Arena.create net in
  let n = Netlist.n_gates net in
  let maxs = Netlist.max_sizes net in
  let sizes = Array.copy (Netlist.min_sizes net) in
  for step = 1 to steps do
    for _ = 1 to 1 + Util.Rng.int rng (max 1 (n / 10)) do
      let i = Util.Rng.int rng n in
      sizes.(i) <- Util.Rng.uniform rng ~lo:1.0 ~hi:maxs.(i)
    done;
    let msg = Printf.sprintf "%s step %d" name step in
    if step mod 4 = 0 then
      check_results_identical msg
        (Sta.Ssta.Boxed.analyze ?pool ~model net ~sizes)
        (Sta.Ssta.analyze ?pool ~arena ~model net ~sizes)
    else begin
      let seed_name, seedf = seed_for step in
      let msg = Printf.sprintf "%s (%s)" msg seed_name in
      let res_b, grad_b =
        Sta.Ssta.Boxed.value_and_gradient ?pool ~model net ~sizes ~seed:seedf
      in
      let res_a, grad_a =
        Sta.Ssta.value_and_gradient ?pool ~arena ~model net ~sizes ~seed:seedf
      in
      check_results_identical msg res_b res_a;
      check_floats_identical (msg ^ ": grad") grad_b grad_a
    end
  done

let test_differential_all_circuits () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun pool ->
          List.iter
            (fun (name, net) ->
              let name = Printf.sprintf "%s jobs=%d" name jobs in
              run_differential ?pool ~steps:12 ~seed:(31 * jobs) name net)
            (nets_under_test ())))
    [ 1; 2; 4 ]

(* Non-default primary-input arrivals exercise the pi planes. *)
let test_differential_pi_arrival () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let pi_arrival i =
    Statdelay.Normal.make ~mu:(0.1 *. float_of_int (i mod 5)) ~sigma:0.05
  in
  let seedf = Sta.Ssta.mu_plus_k_sigma_seed 3. in
  let res_b, grad_b =
    Sta.Ssta.Boxed.value_and_gradient ~pi_arrival ~model net ~sizes ~seed:seedf
  in
  let res_a, grad_a =
    Sta.Ssta.value_and_gradient ~pi_arrival ~model net ~sizes ~seed:seedf
  in
  check_results_identical "pi arrivals" res_b res_a;
  check_floats_identical "pi arrivals: grad" grad_b grad_a

(* The satellite engines must not drift when handed an arena. *)
let test_engines_arena_identical () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let arena = Sta.Arena.create net in
  let mc = Sta.Mcsta.sample ~seed:5 ~model net ~sizes ~n:256 in
  let mc_arena = Sta.Mcsta.sample ~arena ~seed:5 ~model net ~sizes ~n:256 in
  check_floats_identical "mcsta samples" mc mc_arena;
  let y =
    Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 7) ~model net ~sizes
      ~n:64
  in
  let y_arena =
    Sta.Yield.sample_circuit_delays ~rng:(Util.Rng.create 7) ~arena ~model net
      ~sizes ~n:64
  in
  check_floats_identical "yield samples" y y_arena;
  let c = Sta.Crit.monte_carlo ~rng:(Util.Rng.create 11) ~model net ~sizes ~n:64 in
  let c_arena =
    Sta.Crit.monte_carlo ~rng:(Util.Rng.create 11) ~arena ~model net ~sizes ~n:64
  in
  check_floats_identical "criticalities" c.Sta.Crit.criticality
    c_arena.Sta.Crit.criticality

(* Dsta.propagate_into against its allocating wrapper. *)
let test_propagate_into_identical () =
  let net = Generate.apex2_like () in
  let sizes = Netlist.min_sizes net in
  let gate_delay = Sta.Dsta.delays net ~sizes in
  let r = Sta.Dsta.analyze_with_delays net ~gate_delay in
  let arrival = Array.make (Netlist.n_gates net) nan in
  let circuit = Sta.Dsta.propagate_into net ~gate_delay ~arrival in
  check_floats_identical "arrival" r.Sta.Dsta.arrival arrival;
  check_floats_identical "circuit" [| r.Sta.Dsta.circuit |] [| circuit |]

let test_arena_netlist_mismatch () =
  let arena = Sta.Arena.create (Generate.tree ()) in
  let net = Generate.example_fig2 () in
  Alcotest.check_raises "wrong netlist"
    (Invalid_argument "Ssta: arena was created for a different netlist")
    (fun () ->
      ignore (Sta.Ssta.analyze ~arena ~model net ~sizes:(Netlist.min_sizes net)))

let prop_random_dag_differential =
  QCheck.Test.make ~name:"arena bit-identical on random netlists" ~count:8
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 400)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      run_differential ~steps:6 ~seed
        (Printf.sprintf "dag%d seed=%d" n_gates seed)
        net;
      true)

(* ---- two-lane reverse sweep ------------------------------------------------- *)

let grid2 =
  match Varmodel.of_spec "grid=2x2,global=0.4,cell=0.3" with
  | Ok vm -> vm
  | Error e -> failwith e

(* One [reverse2] against two single-seed [reverse] sweeps on a second
   arena: each lane's gradient Int64-equal to its seed's sweep, and for
   independent arenas to the boxed oracle as well.  The seed pairs cover
   the engine's basis seeds, a dead lane (all-zero seed, so its active
   mask stays empty) and general seeds. *)
let check_two_lane ?pool ?varmodel msg net sizes =
  let a2 = Sta.Arena.create ?varmodel net and a1 = Sta.Arena.create ?varmodel net in
  let n = Netlist.n_gates net in
  let g1 = Array.make n nan and g2 = Array.make n nan and g = Array.make n nan in
  List.iter
    (fun ((m1, v1), (m2, v2)) ->
      let msg = Printf.sprintf "%s seeds (%g,%g)/(%g,%g)" msg m1 v1 m2 v2 in
      Sta.Arena.forward ?pool ~model a2 ~sizes;
      Sta.Arena.reverse2 ?pool ~model a2 ~d_mu:m1 ~d_var:v1 ~d_mu2:m2 ~d_var2:v2;
      Sta.Arena.gradient_into a2 g1;
      Sta.Arena.gradient2_into a2 g2;
      Sta.Arena.forward ?pool ~model a1 ~sizes;
      List.iter
        (fun (lane, (d_mu, d_var), got) ->
          Sta.Arena.reverse ?pool ~model a1 ~d_mu ~d_var;
          Sta.Arena.gradient_into a1 g;
          check_floats_identical (Printf.sprintf "%s: lane %d vs reverse" msg lane) g got;
          if varmodel = None then
            check_floats_identical
              (Printf.sprintf "%s: lane %d vs boxed" msg lane)
              (Sta.Ssta.Boxed.gradient ~model net ~sizes ~seed:(fun _ ->
                   { Sta.Ssta.d_mu; d_var }))
              got)
        [ (1, (m1, v1), g1); (2, (m2, v2), g2) ])
    [ ((1., 0.), (0., 1.)); ((0., 1.), (0., 0.)); ((1., 0.37), (-2.5, 0.)) ]

let prop_two_lane_differential =
  QCheck.Test.make ~name:"two-lane reverse matches single-seed sweeps" ~count:6
    (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 80 300)))
    (fun (seed, n_gates) ->
      let net = wide_dag ~n_gates (seed + 1) in
      let rng = Util.Rng.create seed in
      let maxs = Netlist.max_sizes net in
      let sizes = Array.map (fun hi -> Util.Rng.uniform rng ~lo:1.0 ~hi) maxs in
      List.iter
        (fun jobs ->
          with_jobs jobs (fun pool ->
              List.iter
                (fun (vname, varmodel) ->
                  check_two_lane ?pool ?varmodel
                    (Printf.sprintf "dag%d seed=%d %s x%d" n_gates seed vname jobs)
                    net sizes)
                [ ("independent", None); ("grid=2", Some grid2) ]))
        [ 1; 2 ];
      true)

let test_gradient2_needs_reverse2 () =
  let arena = Sta.Arena.create (Generate.tree ()) in
  Alcotest.check_raises "no second lane"
    (Invalid_argument "Arena.gradient2_into: no two-lane reverse sweep has run")
    (fun () -> Sta.Arena.gradient2_into arena (Array.make arena.Sta.Arena.n 0.))

(* ---- zero-allocation regression --------------------------------------------- *)

let test_steady_state_allocation () =
  let net = wide_dag ~n_gates:400 29 in
  let n = Netlist.n_gates net in
  let sizes = Netlist.min_sizes net in
  let arena = Sta.Arena.create net in
  (* Strict bound when the kernels inline: a handful of words from the
     instrumentation shims ([Gc.minor_words] itself boxes, [Instr.time]
     closes over the section).  Loose per-gate ceiling otherwise (boxed
     kernel arguments only — still far below the boxed sweeps' hundreds
     of words per gate). *)
  let ceiling =
    if Sim.Invariant.kernels_inlined () then 256. else 128. *. float_of_int n
  in
  let w_fwd =
    Sim.Invariant.words_per_eval ~reps:10 (fun () ->
        Sta.Ssta.forward_raw ~model arena ~sizes)
  in
  if w_fwd > ceiling then
    Alcotest.failf "steady-state forward sweep allocates %.0f words/eval (ceiling %.0f)"
      w_fwd ceiling;
  let w_rev =
    Sim.Invariant.words_per_eval ~reps:10 (fun () ->
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.)
  in
  if w_rev > 2. *. ceiling then
    Alcotest.failf
      "steady-state forward+reverse pair allocates %.0f words/eval (ceiling %.0f)"
      w_rev (2. *. ceiling);
  let w_rev2 =
    Sim.Invariant.words_per_eval ~reps:10 (fun () ->
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse2_raw ~model arena ~d_mu:1. ~d_var:0. ~d_mu2:0. ~d_var2:1.)
  in
  if w_rev2 > 2. *. ceiling then
    Alcotest.failf
      "steady-state forward+two-lane reverse allocates %.0f words/eval (ceiling %.0f)"
      w_rev2 (2. *. ceiling)

(* ---- generated-DAG golden ------------------------------------------------ *)

(* The generated mapped-DAG family at two sizes (seed 77, wider and
   deeper as n grows): its structure and its min-size circuit moments
   are pinned exactly.  A structural drift means the generator or the
   levelizer changed; a moment drift means the sweep's arithmetic
   changed.  The 17-significant-digit literals round-trip to the exact
   doubles, so the moment check is Int64 equality. *)
let golden_dags =
  [
    (2_400, 96, 12, 11, 12, 5_341, 31.392444063267252, 0.21639659362745078);
    (24_000, 300, 24, 23, 24, 53_348, 64.410889935422617, 0.1874654479088349);
  ]

let test_generated_dag_golden () =
  List.iter
    (fun (n, n_pis, target_depth, depth, levels, fanin_edges, mu, var) ->
      let net =
        Generate.random_dag
          {
            Generate.default_spec with
            Generate.n_gates = n;
            n_pis;
            target_depth;
            seed = 77;
          }
      in
      let fl = Netlist.flat net in
      let msg what = Printf.sprintf "n=%d %s" n what in
      Alcotest.(check int) (msg "n_gates") n (Netlist.n_gates net);
      Alcotest.(check int) (msg "n_pis") n_pis (Netlist.n_pis net);
      Alcotest.(check int) (msg "levels") levels (Array.length fl.Netlist.lvl_off - 1);
      Alcotest.(check int) (msg "depth") depth (Array.length fl.Netlist.lvl_off - 2);
      Alcotest.(check int) (msg "fanin edges") fanin_edges fl.Netlist.fi_off.(n);
      let arena = Sta.Arena.create net in
      Sta.Ssta.forward_raw ~model arena ~sizes:(Netlist.min_sizes net);
      let pin what expected actual =
        if not (Int64.equal (bits expected) (bits actual)) then
          Alcotest.failf "%s: %.17g (%h) <> golden %.17g (%h)" (msg what) actual actual
            expected expected
      in
      pin "circuit mu" mu (Sta.Arena.circuit_mu arena);
      pin "circuit var" var (Sta.Arena.circuit_var arena))
    golden_dags

(* ---- large-DAG smoke -------------------------------------------------------- *)

(* A 10^5-gate generated DAG swept forward and reverse on one arena.
   Only meaningful in the release profile (where the kernels inline
   and the sweep speed makes it cheap); the dev profile skips it, via
   the same inlining canary the allocation test keys on. *)
let test_large_dag_smoke () =
  if not (Sim.Invariant.kernels_inlined ()) then
    Alcotest.skip ()
  else begin
    let net =
      Generate.random_dag
        {
          Generate.default_spec with
          Generate.n_gates = 120_000;
          n_pis = 300;
          target_depth = 32;
          seed = 101;
        }
    in
    let arena = Sta.Arena.create net in
    let sizes = Netlist.min_sizes net in
    Sta.Ssta.forward_raw ~model arena ~sizes;
    let mu = Sta.Arena.circuit_mu arena and var = Sta.Arena.circuit_var arena in
    if not (Float.is_finite mu && Float.is_finite var && mu > 0. && var >= 0.)
    then Alcotest.failf "degenerate circuit moments (%h, %h)" mu var;
    Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.;
    let grad = Array.make (Netlist.n_gates net) 0. in
    Sta.Arena.gradient_into arena grad;
    let nonzero = Array.exists (fun g -> g <> 0.) grad in
    if not nonzero then Alcotest.fail "gradient identically zero";
    if not (Array.for_all Float.is_finite grad) then
      Alcotest.fail "non-finite gradient entry"
  end

let () =
  let q = Seed_info.to_alcotest in
  Alcotest.run "arena"
    [
      ( "differential",
        [
          Alcotest.test_case "all circuits x 1/2/4 domains" `Quick
            test_differential_all_circuits;
          Alcotest.test_case "pi arrivals" `Quick test_differential_pi_arrival;
          Alcotest.test_case "satellite engines" `Quick test_engines_arena_identical;
          Alcotest.test_case "dsta propagate_into" `Quick
            test_propagate_into_identical;
          Alcotest.test_case "netlist mismatch rejected" `Quick
            test_arena_netlist_mismatch;
          q prop_random_dag_differential;
        ] );
      ( "two-lane reverse",
        [
          q prop_two_lane_differential;
          Alcotest.test_case "second lane needs reverse2" `Quick
            test_gradient2_needs_reverse2;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady-state sweeps" `Quick
            test_steady_state_allocation;
        ] );
      ( "golden",
        [
          Alcotest.test_case "generated DAGs at 2400 and 24000 gates" `Quick
            test_generated_dag_golden;
        ] );
      ( "scale",
        [
          Alcotest.test_case "100k-gate smoke (release only)" `Slow
            test_large_dag_smoke;
        ] );
    ]
