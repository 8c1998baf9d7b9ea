(* Benchmark harness.

   Two halves:

   1. The table harness regenerates every table and figure of the paper's
      evaluation (see DESIGN.md's per-experiment index): Table 1 (large
      benchmark circuits), Table 2 (tree circuit), Table 3 (tree speed
      factors), the Section-5 worked example, the Section-4 conformance
      (yield) claim, the Monte-Carlo accuracy figure and the ablations.

   2. Bechamel micro-benchmarks of the primitives (Clark max, SSTA forward
      and adjoint sweeps, deterministic STA, BLIF parsing, solver runs) —
      one Test.make per operation, plus one per paper table so the cost of
      regenerating each artefact is itself measured.

   Usage:
     dune exec bench/main.exe             # tables then micro-benchmarks
     dune exec bench/main.exe -- tables   # tables only
     dune exec bench/main.exe -- micro    # micro-benchmarks only
     dune exec bench/main.exe -- table1|table2|table3|example|yield|mc|ablation
     dune exec bench/main.exe -- --jobs 4 parallel   # serial vs pooled SSTA
     dune exec bench/main.exe -- --jobs 4 mcsta      # serial vs pooled MC sampling
     dune exec bench/main.exe -- --jobs 4 table1     # pooled table regeneration

   [--jobs N] creates an N-domain Util.Pool; the sections that evaluate
   large circuits (table1, scale, parallel) thread it into the SSTA
   sweeps.  The [parallel] section checks serial/parallel bit-identity
   and reports the measured speedup on a >= 2000-gate circuit. *)

let model = Circuit.Sigma_model.paper_default

let section name f =
  Printf.printf "==== %s ====\n%!" name;
  let t0 = Sys.time () in
  f ();
  Printf.printf "[%s: %.1f s CPU]\n\n%!" name (Sys.time () -. t0)

let run_table1 ?pool () =
  section "Table 1: statistical sizing of large benchmark circuits" (fun () ->
      Experiments.Table1.(print (run ~model ?pool ())))

let run_table2 () =
  section "Table 2: tree circuit objectives and constraints" (fun () ->
      Experiments.Table2.(print (run ~model ())))

let run_table3 () =
  section "Table 3: tree speed factors" (fun () ->
      Experiments.Table3.(print (run ~model ())))

let run_example () =
  section "Section 5 example (fig. 2, eq. 18)" (fun () ->
      Experiments.Example_fig2.(print (run ~model ())))

let run_yield () =
  section "Conformance / yield claim (50% / 84.1% / 99.8%)" (fun () ->
      (* The tree respects the independence assumption exactly; the apex2
         stand-in shows the reconvergence-correlation error the paper lists
         as future work. *)
      Experiments.Yield_exp.(print (run ~model ~net:(Circuit.Generate.tree ()) ()));
      Experiments.Yield_exp.(print (run ~model ())))

let run_mc () =
  section "Analytic operators vs Monte Carlo" (fun () ->
      Experiments.Mc_accuracy.(print (run ~model ())))

let run_corner () =
  section "Corner-analysis pessimism (Section 1 motivation)" (fun () ->
      Experiments.Corner_exp.(print (run ~model ())))

let run_scale ?pool () =
  section "Scalability sweep" (fun () ->
      Experiments.Scale_exp.(print (run ~model ?pool ())))

let run_ablation () =
  section "Ablations (sigma model, eq14/eq15 form, deterministic baseline)"
    (fun () -> Experiments.Ablation.(print (run ())))

let run_extensions () =
  section "Extensions (the paper's future work, implemented)" (fun () ->
      Experiments.Nary_exp.(print (run ()));
      Experiments.Correlation_exp.(print (run ~model ()));
      Experiments.Power_exp.(print (run ~model ()));
      Experiments.Robust_exp.(print (run ()));
      (* EXT-PARETO: the full area-delay curve whose endpoints are Table 1's
         first two rows. *)
      Sizing.Sweep.print
        (Sizing.Sweep.area_delay ~model ~k:3. ~points:6 (Circuit.Generate.apex2_like ())))

let run_tables ?pool () =
  run_example ();
  run_table2 ();
  run_table3 ();
  run_yield ();
  run_mc ();
  run_corner ();
  run_ablation ();
  run_extensions ();
  run_table1 ?pool ();
  run_scale ?pool ()

(* ---- serial vs parallel SSTA ----------------------------------------------- *)

(* Wall-clock per-call seconds of [f] (the monotonic clock — [Sys.time]
   sums CPU over domains and would hide any speedup). *)
let wall_time_per_call ~reps f =
  ignore (f ());
  let t0 = Util.Instr.now_ns () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  float_of_int (Util.Instr.now_ns () - t0) *. 1e-9 /. float_of_int reps

let run_parallel ~jobs () =
  section
    (Printf.sprintf "Parallel levelized SSTA (jobs=%d, %d cores available)" jobs
       (Domain.recommended_domain_count ()))
    (fun () ->
      let spec =
        {
          Circuit.Generate.default_spec with
          Circuit.Generate.n_gates = 2400;
          n_pis = 96;
          target_depth = 12;
          seed = 77;
        }
      in
      let net = Circuit.Generate.random_dag spec in
      let sizes = Circuit.Netlist.min_sizes net in
      let seed = Sta.Ssta.mu_plus_k_sigma_seed 3. in
      Format.printf "%a@." Circuit.Netlist.pp_summary net;
      let reps = 20 in
      let serial_analyze () = Sta.Ssta.analyze ~model net ~sizes in
      let serial_grad () = Sta.Ssta.value_and_gradient ~model net ~sizes ~seed in
      let res_s, grad_s = serial_grad () in
      let t_a_serial = wall_time_per_call ~reps serial_analyze in
      let t_g_serial = wall_time_per_call ~reps serial_grad in
      let t = Util.Table.create ~header:[ "sweep"; "jobs"; "time/run"; "speedup"; "bit-identical" ] in
      for i = 1 to 4 do
        Util.Table.set_align t i Util.Table.Right
      done;
      let ms s = Printf.sprintf "%.2f ms" (s *. 1e3) in
      Util.Table.add_row t [ "analyze"; "1"; ms t_a_serial; "1.00x"; "-" ];
      Util.Table.add_row t [ "value_and_gradient"; "1"; ms t_g_serial; "1.00x"; "-" ];
      if jobs > 1 then
        Util.Pool.with_pool ~jobs (fun pool ->
            let par_analyze () = Sta.Ssta.analyze ~pool ~model net ~sizes in
            let par_grad () =
              Sta.Ssta.value_and_gradient ~pool ~model net ~sizes ~seed
            in
            let res_p, grad_p = par_grad () in
            let bits = Int64.bits_of_float in
            let same_normal (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
              Int64.equal (bits a.Statdelay.Normal.mu) (bits b.Statdelay.Normal.mu)
              && Int64.equal (bits a.Statdelay.Normal.var) (bits b.Statdelay.Normal.var)
            in
            let identical =
              same_normal res_s.Sta.Ssta.circuit res_p.Sta.Ssta.circuit
              && Array.for_all2 same_normal res_s.Sta.Ssta.arrival
                   res_p.Sta.Ssta.arrival
              && Array.for_all2
                   (fun (a : float) b -> Int64.equal (bits a) (bits b))
                   grad_s grad_p
            in
            let t_a_par = wall_time_per_call ~reps par_analyze in
            let t_g_par = wall_time_per_call ~reps par_grad in
            let row name ts tp =
              Util.Table.add_row t
                [
                  name;
                  string_of_int jobs;
                  ms tp;
                  Printf.sprintf "%.2fx" (ts /. tp);
                  (if identical then "yes" else "NO");
                ]
            in
            row "analyze" t_a_serial t_a_par;
            row "value_and_gradient" t_g_serial t_g_par;
            if not identical then
              Printf.printf "ERROR: parallel results differ from serial!\n")
      else
        Printf.printf "(pass --jobs N with N > 1 to time the pooled path)\n";
      Util.Table.print t;
      print_newline ())

(* ---- resilience layer ------------------------------------------------------- *)

(* Measures the guard overhead on a healthy solve and drills the
   recovery ladder with injected faults, printing the trail each fault
   class takes.  The guard adds an O(dim) finiteness scan per
   evaluation — visible on the toy tree where an SSTA evaluation is
   sub-microsecond, amortised to noise on real circuits — and never
   changes a bit of the result. *)
let run_resilience () =
  section "Resilience: guard overhead and recovery ladder" (fun () ->
      let net = Circuit.Generate.tree () in
      let obj = Sizing.Objective.Min_delay 3. in
      let solve ?instrument ?(guard = true) () =
        let solver =
          {
            Sizing.Engine.default_options.Sizing.Engine.solver with
            Nlp.Auglag.guard;
          }
        in
        Sizing.Engine.solve
          ~options:
            {
              Sizing.Engine.default_options with
              Sizing.Engine.solver = solver;
              instrument;
            }
          ~model net obj
      in
      let t_guarded = wall_time_per_call ~reps:5 (fun () -> solve ()) in
      let t_raw = wall_time_per_call ~reps:5 (fun () -> solve ~guard:false ()) in
      let s_g = solve () and s_r = solve ~guard:false () in
      Printf.printf
        "guarded %.2f ms, unguarded %.2f ms (overhead %+.1f%%), bit-identical: %s\n\n"
        (t_guarded *. 1e3) (t_raw *. 1e3)
        (100. *. (t_guarded -. t_raw) /. t_raw)
        (if s_g.Sizing.Engine.sizes = s_r.Sizing.Engine.sizes then "yes" else "NO");
      let t =
        Util.Table.create ~header:[ "injected fault"; "termination"; "ladder" ]
      in
      let drill name sites =
        let plan = Util.Fault.plan sites in
        let inject problem =
          Nlp.Problem.map_components
            (fun ~component f ->
              Util.Fault.wrap plan
                ~component:(Nlp.Problem.component_index component)
                f)
            problem
        in
        let s = solve ~instrument:inject () in
        Util.Table.add_row t
          [
            name;
            Nlp.Auglag.termination_name s.Sizing.Engine.termination;
            (match s.Sizing.Engine.recovery with
            | [] -> "(none)"
            | l ->
                String.concat " -> "
                  (List.map
                     (fun (a : Sizing.Engine.attempt) ->
                       Sizing.Engine.rung_name a.Sizing.Engine.rung)
                     l));
          ]
      in
      let site kind trigger =
        { Util.Fault.kind; Util.Fault.component = Some 0; Util.Fault.trigger }
      in
      drill "none" [];
      drill "nan value, first eval" [ site Util.Fault.Nan_value (Util.Fault.First 1) ];
      drill "inf gradient, first eval"
        [ site Util.Fault.Inf_gradient (Util.Fault.First 1) ];
      drill "nan value, first 3" [ site Util.Fault.Nan_value (Util.Fault.First 3) ];
      drill "nan value, always" [ site Util.Fault.Nan_value Util.Fault.Always ];
      Util.Table.print t;
      print_newline ())

(* ---- GP cross-check ----------------------------------------------------------- *)

(* Differential table for the geometric-programming backend: GP vs the
   deterministic greedy at equal area (the GP can never be slower on the
   mean model — it is the global optimum), the GP-vs-augmented-Lagrangian
   objective gap at sigma = 0 (the statistical problem at sigma = 0 IS
   the GP, so the two solvers must agree), and the warm-start evaluation
   savings on apex2*.  Exits non-zero when a certificate fails or the
   warm start stops saving evaluations, so CI can use this section as a
   regression smoke test. *)
let run_gp () =
  section "Geometric programming: GP vs greedy, GP vs auglag, warm starts" (fun () ->
      let failed = ref false in
      let flag fmt = Printf.ksprintf (fun s -> failed := true; Printf.printf "FAIL %s\n" s) fmt in
      let circuits =
        [ ("fig2", Some (Circuit.Generate.example_fig2 ()));
          ("tree", Some (Circuit.Generate.tree ()));
          ( "cla4",
            (match
               List.find_opt Sys.file_exists
                 [ "examples/cla4.bench"; "../examples/cla4.bench" ]
             with
            | None -> None
            | Some p -> (
                match
                  Circuit.Bench_format.parse_file
                    ~library:(Circuit.Cell.Library.default ()) p
                with
                | Ok net -> Some net
                | Error _ -> None)) );
          ("apex2*", Some (Circuit.Generate.apex2_like ()));
        ]
      in
      let t =
        Util.Table.create
          ~header:
            [ "circuit"; "greedy delay"; "GP delay"; "KKT res"; "gap m/t"; "newton"; "s" ]
      in
      List.iter
        (fun (name, net) ->
          match net with
          | None -> Printf.printf "(%s: circuit file not found, skipped)\n" name
          | Some net ->
              let base = Sizing.Baseline.minimize_delay net in
              let sol =
                Sizing.Gp.solve net
                  (Sizing.Gp.Min_delay { area_budget = Some base.Sizing.Baseline.area })
              in
              (match sol.Sizing.Gp.status with
              | Sizing.Gp.Optimal -> ()
              | _ -> flag "%s: GP not optimal at equal area" name);
              let res = Nlp.Check.kkt_residual sol.Sizing.Gp.kkt in
              if res >= 1e-6 then flag "%s: KKT residual %.3e >= 1e-6" name res;
              if sol.Sizing.Gp.mean_delay > base.Sizing.Baseline.delay *. (1. +. 1e-6)
              then
                flag "%s: GP delay %.6f > greedy %.6f at equal area" name
                  sol.Sizing.Gp.mean_delay base.Sizing.Baseline.delay;
              Util.Table.add_row t
                [
                  name;
                  Printf.sprintf "%.4f" base.Sizing.Baseline.delay;
                  Printf.sprintf "%.4f" sol.Sizing.Gp.mean_delay;
                  Printf.sprintf "%.1e" res;
                  Printf.sprintf "%.1e" sol.Sizing.Gp.duality_gap;
                  string_of_int sol.Sizing.Gp.newton_iterations;
                  Printf.sprintf "%.3f" sol.Sizing.Gp.cpu_time;
                ])
        circuits;
      Util.Table.print t;
      print_newline ();
      (* At sigma = 0 the statistical min-delay problem IS the mean GP:
         the two independently-built solvers must land on the same
         objective (the auglag solve is local, the GP is global with a
         certificate, so agreement cross-validates both). *)
      List.iter
        (fun (name, net) ->
          match net with
          | None -> ()
          | Some net ->
              let s =
                Sizing.Engine.solve ~model:Circuit.Sigma_model.Zero net
                  (Sizing.Objective.Min_delay 0.)
              in
              let sw =
                Sizing.Engine.solve
                  ~options:
                    { Sizing.Engine.default_options with Sizing.Engine.warm_start = `Gp }
                  ~model:Circuit.Sigma_model.Zero net (Sizing.Objective.Min_delay 0.)
              in
              let g = Sizing.Gp.solve net (Sizing.Gp.Min_delay { area_budget = None }) in
              let gap mu = (mu -. g.Sizing.Gp.mean_delay) /. g.Sizing.Gp.mean_delay in
              Printf.printf
                "%-7s sigma=0: GP %.6f, auglag cold %+.2e, auglag GP-warm %+.2e\n" name
                g.Sizing.Gp.mean_delay
                (gap s.Sizing.Engine.mu)
                (gap sw.Sizing.Engine.mu);
              (* The GP optimum is global: the local solver can land above
                 it (apex2* cold is ~1.2% high - a real local minimum) but
                 can never beat it, and warm-started at the GP point it
                 must stay there. *)
              if gap s.Sizing.Engine.mu < -1e-4 then
                flag "%s: auglag beat the 'global' GP by %.2e - GP optimum is wrong"
                  name (gap s.Sizing.Engine.mu);
              if Float.abs (gap sw.Sizing.Engine.mu) > 1e-3 then
                flag "%s: GP-warm-started auglag drifted %.2e off the GP optimum" name
                  (gap sw.Sizing.Engine.mu))
        circuits;
      print_newline ();
      (* Warm-start savings: solver evaluations to converge on apex2*,
         cold vs GP-warm-started (the GP's own Newton iterations are not
         solver evaluations - its cost shows in the table above). *)
      let net = Circuit.Generate.apex2_like () in
      let obj = Sizing.Objective.Min_delay 3. in
      let cold = Sizing.Engine.solve ~model net obj in
      let warm =
        Sizing.Engine.solve
          ~options:{ Sizing.Engine.default_options with Sizing.Engine.warm_start = `Gp }
          ~model net obj
      in
      Printf.printf
        "apex2* min mu+3sigma: cold %d evaluations (mu %.4f), GP-warm %d evaluations \
         (mu %.4f)\n"
        cold.Sizing.Engine.evaluations cold.Sizing.Engine.mu
        warm.Sizing.Engine.evaluations warm.Sizing.Engine.mu;
      if not (cold.Sizing.Engine.converged && warm.Sizing.Engine.converged) then
        flag "apex2*: warm-start comparison did not converge on both paths";
      if warm.Sizing.Engine.evaluations >= cold.Sizing.Engine.evaluations then
        flag "apex2*: GP warm start no longer saves evaluations (%d >= %d)"
          warm.Sizing.Engine.evaluations cold.Sizing.Engine.evaluations;
      if !failed then exit 1)

(* ---- flat timing arena ------------------------------------------------------ *)

(* Differential + allocation smoke for the structure-of-arrays arena
   (DESIGN.md Section 9): the arena sweeps must agree with the boxed
   reference to the last bit, run materially faster serially, and a
   steady-state forward+reverse pair must stay under a committed
   words/eval ceiling.  The two-lane reverse sweep is timed against two
   single-seed sweeps, and each of its lanes must match its seed's
   single-seed gradient bit for bit.  Exits non-zero when identity or
   the ceiling is violated, so CI gates on this section. *)
let run_arena () =
  section "Flat timing arena: serial speedup, words/eval, bit-identity" (fun () ->
      let spec =
        {
          Circuit.Generate.default_spec with
          Circuit.Generate.n_gates = 2400;
          n_pis = 96;
          target_depth = 12;
          seed = 77;
        }
      in
      let net = Circuit.Generate.random_dag spec in
      let n_gates = Circuit.Netlist.n_gates net in
      let sizes = Circuit.Netlist.min_sizes net in
      let seed = Sta.Ssta.mu_plus_k_sigma_seed 3. in
      Format.printf "%a@." Circuit.Netlist.pp_summary net;
      let boxed () = Sta.Ssta.Boxed.value_and_gradient ~model net ~sizes ~seed in
      let res_b, grad_b = boxed () in
      let root = seed res_b in
      let arena = Sta.Arena.create net in
      (* The steady-state solver evaluation: raw sweeps on a reused
         arena, no result snapshot. *)
      let flat () =
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse_raw ~model arena ~d_mu:root.Sta.Ssta.d_mu
          ~d_var:root.Sta.Ssta.d_var
      in
      flat ();
      let res_a = Sta.Ssta.of_arena arena in
      let grad_a = Array.make n_gates 0. in
      Sta.Arena.gradient_into arena grad_a;
      let bits = Int64.bits_of_float in
      let same (x : float) y = Int64.equal (bits x) (bits y) in
      let same_normal (a : Statdelay.Normal.t) (b : Statdelay.Normal.t) =
        same a.Statdelay.Normal.mu b.Statdelay.Normal.mu
        && same a.Statdelay.Normal.var b.Statdelay.Normal.var
      in
      let identical =
        same_normal res_b.Sta.Ssta.circuit res_a.Sta.Ssta.circuit
        && Array.for_all2 same_normal res_b.Sta.Ssta.arrival res_a.Sta.Ssta.arrival
        && Array.for_all2 same_normal res_b.Sta.Ssta.gate_delay
             res_a.Sta.Ssta.gate_delay
        && Array.for_all2 same res_b.Sta.Ssta.loads res_a.Sta.Ssta.loads
        && Array.for_all2 same grad_b grad_a
      in
      (* Two seeds, as a sizing evaluation needs them: two single-seed
         reverse sweeps against one two-lane sweep, whose lanes must
         match them bit for bit. *)
      let two_reverses () =
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse_raw ~model arena ~d_mu:root.Sta.Ssta.d_mu
          ~d_var:root.Sta.Ssta.d_var;
        Sta.Ssta.reverse_raw ~model arena ~d_mu:0. ~d_var:1.
      in
      let two_lanes () =
        Sta.Ssta.forward_raw ~model arena ~sizes;
        Sta.Ssta.reverse2_raw ~model arena ~d_mu:root.Sta.Ssta.d_mu
          ~d_var:root.Sta.Ssta.d_var ~d_mu2:0. ~d_var2:1.
      in
      let grad_var = Array.make n_gates 0. in
      two_reverses ();
      Sta.Arena.gradient_into arena grad_var;
      two_lanes ();
      let lane1 = Array.make n_gates 0. and lane2 = Array.make n_gates 0. in
      Sta.Arena.gradient_into arena lane1;
      Sta.Arena.gradient2_into arena lane2;
      let lanes_identical =
        Array.for_all2 same grad_a lane1 && Array.for_all2 same grad_var lane2
      in
      let reps = 20 in
      let t_boxed = wall_time_per_call ~reps boxed in
      let t_flat = wall_time_per_call ~reps flat in
      let t_two_rev = wall_time_per_call ~reps two_reverses in
      let t_two_lanes = wall_time_per_call ~reps two_lanes in
      let words_per_eval f =
        f ();
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        for _ = 1 to reps do
          f ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int reps
      in
      let w_boxed = words_per_eval (fun () -> ignore (boxed ())) in
      let w_flat = words_per_eval flat in
      (* Inlining canary: the dev profile compiles with -opaque, which
         blocks cross-library inlining of the Clark kernels — every call
         then boxes its float arguments.  The strict zero-allocation
         ceiling only holds when the kernels inline (release profile);
         otherwise the ceiling scales with the boxed kernel arguments. *)
      let canary =
        let out =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2
        in
        Bigarray.Array1.fill out 0.;
        (* Computed (not literal) float arguments: literals are static
           data and never allocate, computed ones box at every
           non-inlined call. *)
        let x = Sys.opaque_identity 0.5 in
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          Statdelay.Clark.add_into ~mu_a:(x +. 0.5) ~var_a:(x *. 0.2)
            ~mu_b:(x +. 1.5) ~var_b:(x *. 0.4) out 0
        done;
        ignore
          (Sys.opaque_identity
             (Statdelay.Clark.vget out 0 +. Statdelay.Clark.vget out 1));
        Gc.minor_words () -. w0
      in
      (* [Gc.minor_words] itself boxes its float result, so a perfectly
         clean loop still reads a few words; boxed kernel calls read
         thousands (>= 4 words per call over 1000 calls). *)
      let inlined = canary < 64. in
      let ceiling =
        if inlined then 512. else 128. *. float_of_int n_gates
      in
      let t =
        Util.Table.create
          ~header:[ "sweep pair (fwd+rev)"; "time/run"; "words/eval"; "bit-identical" ]
      in
      for i = 1 to 3 do
        Util.Table.set_align t i Util.Table.Right
      done;
      let ms s = Printf.sprintf "%.2f ms" (s *. 1e3) in
      Util.Table.add_row t
        [ "boxed reference"; ms t_boxed; Printf.sprintf "%.0f" w_boxed; "-" ];
      Util.Table.add_row t
        [
          "arena (raw)";
          ms t_flat;
          Printf.sprintf "%.0f" w_flat;
          (if identical then "yes" else "NO");
        ];
      Util.Table.add_row t [ "arena, 2 seeds: fwd + 2 rev"; ms t_two_rev; "-"; "-" ];
      Util.Table.add_row t
        [
          "arena, 2 seeds: fwd + two-lane rev";
          ms t_two_lanes;
          "-";
          (if lanes_identical then "yes" else "NO");
        ];
      Util.Table.print t;
      Printf.printf
        "serial speedup %.2fx, words/eval reduction %.0fx (kernels inlined: %s, \
         ceiling %.0f)\n"
        (t_boxed /. t_flat)
        (if w_flat > 0. then w_boxed /. w_flat else infinity)
        (if inlined then "yes" else "no — dev profile, -opaque")
        ceiling;
      if not identical then begin
        Printf.printf "ERROR: arena results differ from the boxed reference!\n";
        exit 1
      end;
      if not lanes_identical then begin
        Printf.printf "ERROR: two-lane reverse lanes differ from single-seed sweeps!\n";
        exit 1
      end;
      if w_flat > ceiling then begin
        Printf.printf "ERROR: arena words/eval %.0f exceeds the committed ceiling %.0f\n"
          w_flat ceiling;
        exit 1
      end;
      print_newline ())

(* Same inlining canary as run_arena / test_arena: computed float
   arguments to an in-place kernel allocate at every call unless the
   call inlined (dev's -opaque blocks cross-library inlining). *)
let kernels_inlined () =
  let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2 in
  Bigarray.Array1.fill out 0.;
  let x = Sys.opaque_identity 0.5 in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Statdelay.Clark.add_into ~mu_a:(x +. 0.5) ~var_a:(x *. 0.2) ~mu_b:(x +. 1.5)
      ~var_b:(x *. 0.4) out 0
  done;
  ignore
    (Sys.opaque_identity (Statdelay.Clark.vget out 0 +. Statdelay.Clark.vget out 1));
  Gc.minor_words () -. w0 < 64.

(* ---- canonical correlated SSTA ---------------------------------------------- *)

(* Smoke + throughput for the canonical first-order engine (DESIGN.md
   Section 14).  Three gates, any failure exits non-zero so CI uses this
   section as a release regression test:

     1. residual-only bit-identity: a grid varmodel with zero source
        weights must replay the independent sweep (values and gradient)
        to the last bit;
     2. sigma tracking: under a weighted grid model the canonical
        circuit sigma must be strictly closer to correlated Monte Carlo
        than the independent engine's sigma, on every reconvergent
        circuit tried — the accuracy claim of the whole refactor;
     3. words/eval: the canonical forward+reverse pair on a reused
        arena must stay within a small committed per-gate allocation
        budget in release builds (the Canon kernels loop over the
        parameter count, and the non-flambda inliner does not inline
        loop-bearing functions, so each cross-library kernel call boxes
        its float arguments — a constant handful of words per gate that
        cannot be removed without flambda). *)
let run_correlated () =
  section "Canonical correlated SSTA: bit-identity, sigma tracking, throughput"
    (fun () ->
      let failed = ref false in
      let flag fmt =
        Printf.ksprintf
          (fun s ->
            failed := true;
            Printf.printf "FAIL %s\n" s)
          fmt
      in
      let bits = Int64.bits_of_float in
      let same (x : float) y = Int64.equal (bits x) (bits y) in
      (* 1. Residual-only bit-identity on a mid-size DAG. *)
      let spec =
        {
          Circuit.Generate.default_spec with
          Circuit.Generate.n_gates = 2400;
          n_pis = 96;
          target_depth = 12;
          seed = 77;
        }
      in
      let net = Circuit.Generate.random_dag spec in
      let sizes = Circuit.Netlist.min_sizes net in
      let seed = Sta.Ssta.mu_plus_k_sigma_seed 3. in
      let residual_only = Circuit.Varmodel.make ~grid:2 () in
      let plain = Sta.Ssta.value_and_gradient ~model net ~sizes ~seed in
      let canon0 =
        Sta.Ssta.value_and_gradient ~varmodel:residual_only ~model net ~sizes
          ~seed
      in
      let identical =
        same
          (Statdelay.Normal.mu (fst plain).Sta.Ssta.circuit)
          (Statdelay.Normal.mu (fst canon0).Sta.Ssta.circuit)
        && same
             (Statdelay.Normal.var (fst plain).Sta.Ssta.circuit)
             (Statdelay.Normal.var (fst canon0).Sta.Ssta.circuit)
        && Array.for_all2 same (snd plain) (snd canon0)
      in
      Printf.printf
        "residual-only canonical vs independent (values + gradient): %s\n"
        (if identical then "bit-identical" else "DIVERGED");
      if not identical then
        flag "residual-only canonical sweep diverged from the independent path";
      (* 2. Sigma tracking vs correlated Monte Carlo on reconvergent
         circuits. *)
      let vm = Circuit.Varmodel.make ~grid:2 ~global_frac:0.5 ~grid_frac:0.5 () in
      let t =
        Util.Table.create
          ~header:
            [
              "circuit"; "sigma ind"; "sigma canon"; "sigma MC";
              "err ind"; "err canon";
            ]
      in
      for i = 1 to 5 do
        Util.Table.set_align t i Util.Table.Right
      done;
      List.iter
        (fun (name, net) ->
          let sizes = Circuit.Netlist.min_sizes net in
          let ind = Sta.Ssta.analyze ~model net ~sizes in
          let canon = Sta.Ssta.analyze ~varmodel:vm ~model net ~sizes in
          let mc =
            Sta.Mcsta.sample ~seed:3 ~varmodel:vm ~model net ~sizes ~n:20_000
          in
          let s_mc = Util.Stats.std_dev (Util.Stats.of_array mc) in
          let s_i = Statdelay.Normal.sigma ind.Sta.Ssta.circuit in
          let s_c = Statdelay.Normal.sigma canon.Sta.Ssta.circuit in
          let e_i = Float.abs (s_i -. s_mc) and e_c = Float.abs (s_c -. s_mc) in
          if e_c >= e_i then
            flag
              "%s: canonical sigma err %.4f not below independent err %.4f"
              name e_c e_i;
          Util.Table.add_row t
            [
              name;
              Printf.sprintf "%.4f" s_i;
              Printf.sprintf "%.4f" s_c;
              Printf.sprintf "%.4f" s_mc;
              Printf.sprintf "%.4f" e_i;
              Printf.sprintf "%.4f" e_c;
            ])
        [
          ("fig2", Circuit.Generate.example_fig2 ());
          ("apex1*", Circuit.Generate.apex1_like ());
          ("apex2*", Circuit.Generate.apex2_like ());
        ];
      Util.Table.print t;
      Printf.printf "(varmodel %s, 20000 correlated MC samples, seed 3)\n\n"
        (Circuit.Varmodel.to_string vm);
      (* 3. Canonical throughput and words/eval on the reused arena. *)
      let vm4 = Circuit.Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 () in
      let arena_i = Sta.Arena.create net in
      let arena_c = Sta.Arena.create ~varmodel:vm4 net in
      let pair a () =
        Sta.Ssta.forward_raw ~model a ~sizes;
        Sta.Ssta.reverse_raw ~model a ~d_mu:1. ~d_var:0.
      in
      let reps = 20 in
      let t_ind = wall_time_per_call ~reps (pair arena_i) in
      let t_can = wall_time_per_call ~reps (pair arena_c) in
      let words f =
        f ();
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        for _ = 1 to reps do
          f ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int reps
      in
      let w_can = words (pair arena_c) in
      let n_gates = Circuit.Netlist.n_gates net in
      let gps ms = float_of_int n_gates /. ms in
      Printf.printf
        "fwd+rev on %d gates: independent %.2f ms (%.0f gates/s), canonical \
         p=%d %.2f ms (%.0f gates/s, %.2fx), canonical words/eval %.0f\n"
        n_gates (t_ind *. 1e3)
        (gps t_ind)
        (Sta.Arena.n_params arena_c)
        (t_can *. 1e3)
        (gps t_can)
        (t_can /. t_ind)
        w_can;
      (* Same canary discipline as run_arena, but the canonical path can
         never reach the independent arena's 512-word ceiling on this
         toolchain: the Canon kernels (max2_into, partials_into,
         backprop_apply) are [@inline] yet contain `for` loops over the
         parameter count, and the non-flambda Closure inliner refuses to
         inline loop-bearing functions — so each cross-library kernel
         call boxes its float arguments, ~2 words/gate measured on the
         release profile.  The committed budget is 4 words/gate (2x
         headroom): tight enough that any per-gate scratch array (>= p+2
         words/gate) or accidental closure allocation still fails the
         gate.  The dev fallback scales with the parameter planes too —
         every per-plane kernel call boxes its floats when -opaque
         blocks inlining. *)
      let ceiling =
        if kernels_inlined () then 4. *. float_of_int n_gates
        else 128. *. float_of_int (n_gates * (1 + Sta.Arena.n_params arena_c))
      in
      if w_can > ceiling then
        flag "canonical fwd+rev allocates %.0f words/eval (ceiling %.0f)" w_can
          ceiling;
      if !failed then exit 1;
      print_newline ())

(* ---- timing-as-a-service daemon --------------------------------------------- *)

(* Drives an in-process Server through its programmatic API: per-kind
   request latency against a warmed engine (a repeated analyze is a
   cache hit, any other sizes one full sweep), the served-vs-batch bit-identity spot check, and an overload burst
   against a tiny queue showing the shedding policy sacrificing solves
   before analyses.  Exits non-zero when identity or the conservation
   law breaks, so CI can gate on this section. *)
let run_serve () =
  section "Serve: warmed-engine latency, shedding, conservation" (fun () ->
      let net = Circuit.Generate.apex2_like () in
      let sizes = Array.map (fun s -> s +. 0.25) (Circuit.Netlist.min_sizes net) in
      let t = Serve.Server.create () in
      Serve.Server.add_circuit t ~name:"apex2" ~model net;
      Serve.Server.start t;
      (* One blocking request round-trip through submit_line. *)
      let roundtrip line =
        let m = Mutex.create () and c = Condition.create () in
        let answer = ref None in
        Serve.Server.submit_line t
          ~reply:(fun l ->
            Mutex.lock m;
            answer := Some l;
            Condition.signal c;
            Mutex.unlock m)
          line;
        Mutex.lock m;
        while !answer = None do
          Condition.wait c m
        done;
        let l = Option.get !answer in
        Mutex.unlock m;
        l
      in
      let req body =
        Serve.Protocol.encode_request
          {
            Serve.Protocol.id = Serve.Json.Null;
            circuit = Some "apex2";
            deadline_ms = None;
            max_evals = None;
            body;
          }
      in
      let analyze =
        req (Serve.Protocol.Analyze { sizes = Serve.Protocol.Explicit sizes })
      in
      let tbl = Util.Table.create ~header:[ "request"; "time/round-trip" ] in
      Util.Table.set_align tbl 1 Util.Table.Right;
      let ms s = Printf.sprintf "%.3f ms" (s *. 1e3) in
      let time name line =
        let s = wall_time_per_call ~reps:20 (fun () -> roundtrip line) in
        Util.Table.add_row tbl [ name; ms s ]
      in
      let cold = wall_time_per_call ~reps:1 (fun () -> roundtrip analyze) in
      Util.Table.add_row tbl [ "analyze (cold engine)"; ms cold ];
      time "analyze (warm)" analyze;
      time "whatif (1 gate)" (req (Serve.Protocol.Whatif { deltas = [| (0, 2.0) |] }));
      time "gradient mu+3sigma"
        (req
           (Serve.Protocol.Gradient
              {
                sizes = Serve.Protocol.Explicit sizes;
                seed = Serve.Protocol.Seed_mu_k_sigma 3.;
              }));
      time "health" (req Serve.Protocol.Health);
      Util.Table.print tbl;
      (* Bit-identity: the served analyze renders the identical result
         object a batch evaluation does. *)
      let served =
        match Serve.Protocol.decode_response (roundtrip analyze) with
        | Ok { payload; _ } -> Serve.Json.to_string (Serve.Protocol.result_json payload)
        | Error m -> failwith m
      in
      let batch =
        let arena = Sta.Arena.create net in
        let r = Sta.Ssta.analyze ~arena ~model net ~sizes in
        Serve.Json.to_string
          (Serve.Protocol.result_json
             (Serve.Protocol.Analysis
                {
                  mu = Statdelay.Normal.mu r.Sta.Ssta.circuit;
                  var = Statdelay.Normal.var r.Sta.Ssta.circuit;
                  area = Circuit.Netlist.area net ~sizes;
                  n_gates = Circuit.Netlist.n_gates net;
                }))
      in
      Printf.printf "served == batch (string = Int64 bits): %s\n"
        (if String.equal served batch then "yes" else "NO");
      Serve.Server.stop ~drain:false t;
      (* Overload burst against a queue of 4, executor delayed: solves
         are shed before the analyses that arrive after them. *)
      let t2 =
        Serve.Server.create
          ~config:{ Serve.Server.default_config with queue_capacity = 4 }
          ()
      in
      Serve.Server.add_circuit t2 ~name:"tree" ~model (Circuit.Generate.tree ());
      let shed_kinds = ref [] in
      let lock = Mutex.create () in
      let reply line =
        match Serve.Protocol.decode_response line with
        | Ok { kind; payload = Serve.Protocol.Error { code = Serve.Protocol.Overloaded; _ }; _ }
          ->
            Mutex.lock lock;
            shed_kinds := kind :: !shed_kinds;
            Mutex.unlock lock
        | _ -> ()
      in
      let burst body =
        Serve.Server.submit_line t2 ~reply
          (Serve.Protocol.encode_request
             {
               Serve.Protocol.id = Serve.Json.Null;
               circuit = Some "tree";
               deadline_ms = None;
               max_evals = None;
               body;
             })
      in
      for _ = 1 to 4 do
        burst
          (Serve.Protocol.Size
             { objective = Serve.Protocol.Min_delay 3.; recovery = true })
      done;
      for _ = 1 to 4 do
        burst (Serve.Protocol.Analyze { sizes = Serve.Protocol.Committed })
      done;
      (* Start in drain mode: the queue's survivors answer shutting_down
         without burning solve time — this section measures shedding,
         not the solver. *)
      Serve.Server.stop ~drain:true t2;
      Serve.Server.start t2;
      Serve.Server.stop t2;
      let submitted, served_n, degraded, shed, refused = Serve.Server.counters t2 in
      Printf.printf
        "burst of 8 into a queue of 4: %d shed (%s), conservation %d = %d + %d + %d + %d: %s\n\n"
        shed
        (String.concat ", " (List.rev !shed_kinds))
        submitted served_n degraded shed refused
        (if submitted = served_n + degraded + shed + refused then "holds"
         else "VIOLATED");
      if not (String.equal served batch) then begin
        Printf.printf "ERROR: served analyze differs from batch evaluation!\n";
        exit 1
      end;
      if submitted <> served_n + degraded + shed + refused then begin
        Printf.printf "ERROR: conservation law violated!\n";
        exit 1
      end)

(* ---- batched Monte Carlo oracle -------------------------------------------- *)

let run_mcsta ~jobs () =
  section
    (Printf.sprintf "Batched Monte Carlo SSTA oracle (jobs=%d, %d cores available)"
       jobs
       (Domain.recommended_domain_count ()))
    (fun () ->
      let spec =
        {
          Circuit.Generate.default_spec with
          Circuit.Generate.n_gates = 2400;
          n_pis = 96;
          target_depth = 12;
          seed = 77;
        }
      in
      let net = Circuit.Generate.random_dag spec in
      let sizes = Circuit.Netlist.min_sizes net in
      Format.printf "%a@." Circuit.Netlist.pp_summary net;
      let n = 5_000 in
      let sample ?pool ?(batch = 1024) () =
        Sta.Mcsta.sample ?pool ~batch ~seed:7 ~model net ~sizes ~n
      in
      let serial = sample () in
      let t_serial = wall_time_per_call ~reps:2 (fun () -> sample ()) in
      let bits = Int64.bits_of_float in
      let same a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun (x : float) y -> Int64.equal (bits x) (bits y)) a b
      in
      (* Batch size must not change a single bit of the output. *)
      let batch_identical =
        List.for_all (fun batch -> same serial (sample ~batch ())) [ 1; 37; n ]
      in
      let t = Util.Table.create ~header:[ "jobs"; "samples/s"; "speedup"; "bit-identical" ] in
      for i = 0 to 3 do
        Util.Table.set_align t i Util.Table.Right
      done;
      let rate s = Printf.sprintf "%.0f" (float_of_int n /. s) in
      Util.Table.add_row t
        [ "1"; rate t_serial; "1.00x"; (if batch_identical then "yes" else "NO") ];
      if jobs > 1 then
        Util.Pool.with_pool ~jobs (fun pool ->
            let pooled = sample ~pool () in
            let t_pool = wall_time_per_call ~reps:2 (fun () -> sample ~pool ()) in
            Util.Table.add_row t
              [
                string_of_int jobs;
                rate t_pool;
                Printf.sprintf "%.2fx" (t_serial /. t_pool);
                (if same serial pooled then "yes" else "NO");
              ])
      else Printf.printf "(pass --jobs N with N > 1 to time the pooled path)\n";
      Util.Table.print t;
      if not batch_identical then
        Printf.printf "ERROR: batch size changed the sampled values!\n";
      print_newline ())

(* ---- micro-benchmarks ------------------------------------------------------ *)

open Bechamel
open Toolkit

let micro_tests () =
  let open Statdelay in
  let a = Normal.make ~mu:1.0 ~sigma:0.3 in
  let b = Normal.make ~mu:1.2 ~sigma:0.5 in
  let tree = Circuit.Generate.tree () in
  let apex2 = Circuit.Generate.apex2_like () in
  let tree_sizes = Circuit.Netlist.min_sizes tree in
  let apex2_sizes = Circuit.Netlist.min_sizes apex2 in
  let blif_text = Circuit.Blif.to_string apex2 in
  let blif_lib =
    (* to_string names cells from the default library *)
    Circuit.Cell.Library.default ()
  in
  let rng = Util.Rng.create 1 in
  let ops =
    Test.make_grouped ~name:"ops"
      [
        Test.make ~name:"normal_add" (Staged.stage (fun () -> Normal.add a b));
        Test.make ~name:"clark_max2" (Staged.stage (fun () -> Clark.max2 a b));
        Test.make ~name:"clark_max2_full" (Staged.stage (fun () -> Clark.max2_full a b));
        Test.make ~name:"normal_cdf" (Staged.stage (fun () -> Util.Special.normal_cdf 0.7));
      ]
  in
  let sta =
    Test.make_grouped ~name:"sta"
      [
        Test.make ~name:"dsta_apex2"
          (Staged.stage (fun () -> Sta.Dsta.analyze apex2 ~sizes:apex2_sizes));
        Test.make ~name:"ssta_tree"
          (Staged.stage (fun () -> Sta.Ssta.analyze ~model tree ~sizes:tree_sizes));
        Test.make ~name:"ssta_apex2"
          (Staged.stage (fun () -> Sta.Ssta.analyze ~model apex2 ~sizes:apex2_sizes));
        Test.make ~name:"ssta_gradient_apex2"
          (Staged.stage (fun () ->
               Sta.Ssta.gradient ~model apex2 ~sizes:apex2_sizes
                 ~seed:(Sta.Ssta.mu_plus_k_sigma_seed 3.)));
        Test.make ~name:"mc_sample_tree_x100"
          (Staged.stage (fun () ->
               Sta.Yield.sample_circuit_delays ~rng ~model tree ~sizes:tree_sizes ~n:100));
      ]
  in
  let infra =
    Test.make_grouped ~name:"infra"
      [
        Test.make ~name:"blif_parse_apex2"
          (Staged.stage (fun () ->
               match Circuit.Blif.parse_string ~library:blif_lib blif_text with
               | Ok n -> n
               | Error _ -> assert false));
        Test.make ~name:"generate_apex2" (Staged.stage Circuit.Generate.apex2_like);
      ]
  in
  let solves =
    Test.make_grouped ~name:"solve"
      [
        Test.make ~name:"tree_min_mu3sigma"
          (Staged.stage (fun () ->
               Sizing.Engine.solve ~model tree (Sizing.Objective.Min_delay 3.)));
        Test.make ~name:"tree_min_sigma"
          (Staged.stage (fun () ->
               Sizing.Engine.solve ~model tree (Sizing.Objective.Min_sigma { mu = 6.5 })));
        Test.make ~name:"fig2_full_formulation"
          (Staged.stage (fun () ->
               Sizing.Formulate.solve
                 (Sizing.Formulate.build ~model (Circuit.Generate.example_fig2 ())
                    (Sizing.Objective.Min_delay 3.))));
      ]
  in
  (* One Test.make per paper table: the cost of regenerating the artefact. *)
  let tables =
    Test.make_grouped ~name:"tables"
      [
        Test.make ~name:"table2_rows"
          (Staged.stage (fun () -> Experiments.Table2.run ~model ()));
        Test.make ~name:"table3_rows"
          (Staged.stage (fun () -> Experiments.Table3.run ~model ~target_mu:6.5 ()));
        Test.make ~name:"example_fig2"
          (Staged.stage (fun () -> Experiments.Example_fig2.run ~model ()));
        Test.make ~name:"table1_apex2_row"
          (Staged.stage (fun () ->
               Sizing.Engine.solve ~model apex2 (Sizing.Objective.Min_delay 0.)));
      ]
  in
  Test.make_grouped ~name:"statsize" [ ops; sta; infra; solves; tables ]

let run_micro () =
  Printf.printf "==== micro-benchmarks (Bechamel, monotonic clock) ====\n%!";
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let t = Util.Table.create ~header:[ "benchmark"; "time/run" ] in
  Util.Table.set_align t 1 Util.Table.Right;
  let pretty ns =
    if ns < 1e3 then Printf.sprintf "%.1f ns" ns
    else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else Printf.sprintf "%.2f s" (ns /. 1e9)
  in
  List.iter
    (fun (name, ns) -> Util.Table.add_row t [ name; pretty ns ])
    (List.sort compare rows);
  Util.Table.print t;
  print_newline ()

(* ---- machine-readable benchmark snapshot ("json" section) -------------------

   Emits the BENCH_<date>.json scaling trajectory committed at the repo
   root and diffed by CI (scripts/bench_diff.py): per circuit size, the
   forward-sweep and gradient throughput of the flat arena, the level
   structure the cache-blocked sweep sees, allocation per evaluation,
   arena footprint and peak RSS.  Timing is min-of-5 (minimum over 5
   batches of [reps] sweeps), the estimator least sensitive to
   machine-share noise. *)

let json_default_sizes = [ 2_400; 24_000; 240_000; 1_000_000 ]

(* The generated-DAG family used across bench sections: wider and
   deeper as n grows, seed fixed. *)
let json_spec n =
  let n_pis, target_depth =
    match n with
    | 2_400 -> (96, 12)
    | 24_000 -> (300, 24)
    | 240_000 -> (1_000, 48)
    | 1_000_000 -> (2_000, 64)
    | _ ->
        ( max 16 (n / 500),
          max 8 (int_of_float (16. *. log10 (float_of_int n))) )
  in
  {
    Circuit.Generate.default_spec with
    Circuit.Generate.n_gates = n;
    n_pis;
    target_depth;
    seed = 77;
  }

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0
        | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let arena_bytes (a : Sta.Arena.t) =
  let v (p : Sta.Arena.vec) = 8 * Bigarray.Array1.dim p in
  let iv (p : Sta.Arena.ivec) = 4 * Bigarray.Array1.dim p in
  v a.Sta.Arena.sizes + v a.Sta.Arena.load + v a.Sta.Arena.del
  + v a.Sta.Arena.arr + v a.Sta.Arena.pre + v a.Sta.Arena.opnd
  + v a.Sta.Arena.fosz + v a.Sta.Arena.pi + v a.Sta.Arena.pp
  + v a.Sta.Arena.adj + v a.Sta.Arena.dmu_t + v a.Sta.Arena.fadj
  + v a.Sta.Arena.grad + iv a.Sta.Arena.fi_b + iv a.Sta.Arena.fo_c
  + Bytes.length a.Sta.Arena.active

let json_one_size buf n =
  let spec = json_spec n in
  let t0 = Util.Instr.now_ns () in
  let net = Circuit.Generate.random_dag spec in
  let gen_s = float_of_int (Util.Instr.now_ns () - t0) /. 1e9 in
  let arena = Sta.Arena.create net in
  let sizes = Circuit.Netlist.min_sizes net in
  let fl = Circuit.Netlist.flat net in
  let lvl_off = fl.Circuit.Netlist.lvl_off in
  let levels = Array.length lvl_off - 1 in
  let wmin = ref max_int and wmax = ref 0 in
  for l = 0 to levels - 1 do
    let w = lvl_off.(l + 1) - lvl_off.(l) in
    if w < !wmin then wmin := w;
    if w > !wmax then wmax := w
  done;
  let n_gates = Circuit.Netlist.n_gates net in
  let reps = max 2 (2_000_000 / n_gates) in
  let min_of_5 f =
    (* warm-up *)
    f ();
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Util.Instr.now_ns () in
      for _ = 1 to reps do
        f ()
      done;
      let ms =
        float_of_int (Util.Instr.now_ns () - t0) /. 1e6 /. float_of_int reps
      in
      if ms < !best then best := ms
    done;
    !best
  in
  let fwd () = Sta.Ssta.forward_raw ~model arena ~sizes in
  let fwd_rev () =
    Sta.Ssta.forward_raw ~model arena ~sizes;
    Sta.Ssta.reverse_raw ~model arena ~d_mu:1. ~d_var:0.
  in
  let fwd_ms = min_of_5 fwd in
  let fwd_rev_ms = min_of_5 fwd_rev in
  let words_per_eval =
    fwd_rev ();
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let r = 5 in
    for _ = 1 to r do
      fwd_rev ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int r
  in
  let mu = Sta.Arena.circuit_mu arena and var = Sta.Arena.circuit_var arena in
  (* Canonical correlated sweep on the same circuit (grid=4 CLI-default
     model, p = 17 parameter planes).  Skipped above 240k gates: the
     per-node sensitivity planes multiply the arena footprint by ~p, and
     the scaling story is already carried by the smaller sizes. *)
  let canon =
    if n_gates > 240_000 then None
    else begin
      let vm =
        Circuit.Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 ()
      in
      let arena_c = Sta.Arena.create ~varmodel:vm net in
      let fwd_rev_c () =
        Sta.Ssta.forward_raw ~model arena_c ~sizes;
        Sta.Ssta.reverse_raw ~model arena_c ~d_mu:1. ~d_var:0.
      in
      let ms = min_of_5 fwd_rev_c in
      let words =
        fwd_rev_c ();
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let r = 5 in
        for _ = 1 to r do
          fwd_rev_c ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int r
      in
      Some (Sta.Arena.n_params arena_c, ms, words)
    end
  in
  Printf.printf
    "  n=%8d  depth=%3d  fwd=%10.4f ms (%.0f gates/s)  fwd+rev=%10.4f ms      (%.0f grads/s)  mu=%.6f\n%!"
    n_gates (levels - 1) fwd_ms
    (float_of_int n_gates /. (fwd_ms /. 1e3))
    fwd_rev_ms
    (float_of_int n_gates /. (fwd_rev_ms /. 1e3))
    mu;
  (match canon with
  | None -> ()
  | Some (p, ms, words) ->
      Printf.printf
        "  n=%8d  canonical p=%d  fwd+rev=%10.4f ms (%.0f grads/s)  words/eval=%.0f\n%!"
        n_gates p ms
        (float_of_int n_gates /. (ms /. 1e3))
        words);
  Printf.bprintf buf
    {|    { "n_gates": %d,
      "n_pis": %d,
      "depth": %d,
      "levels": %d,
      "level_width_min": %d,
      "level_width_max": %d,
      "level_width_mean": %.2f,
      "fanin_edges": %d,
      "gen_seconds": %.3f,
      "arena_bytes": %d,
      "reps": %d,
      "fwd_ms": %.4f,
      "fwd_gates_per_sec": %.0f,
      "fwd_rev_ms": %.4f,
      "grads_per_sec": %.0f,
      "words_per_eval": %.1f,
      "peak_rss_kb": %d,
      "circuit_mu": %.17g,
      "circuit_var": %.17g%s }|}
    n_gates
    (Circuit.Netlist.n_pis net)
    (levels - 1) levels !wmin !wmax
    (float_of_int n_gates /. float_of_int levels)
    fl.Circuit.Netlist.fi_off.(n_gates)
    gen_s (arena_bytes arena) reps fwd_ms
    (float_of_int n_gates /. (fwd_ms /. 1e3))
    fwd_rev_ms
    (float_of_int n_gates /. (fwd_rev_ms /. 1e3))
    words_per_eval (peak_rss_kb ()) mu var
    (match canon with
    | None -> ""
    | Some (p, ms, words) ->
        Printf.sprintf
          ",\n      \"canon_n_params\": %d,\n      \"canon_fwd_rev_ms\": %.4f,\n      \"canon_grads_per_sec\": %.0f,\n      \"canon_words_per_eval\": %.1f"
          p ms
          (float_of_int n_gates /. (ms /. 1e3))
          words)

let run_json ~out ~sizes () =
  section "Machine-readable benchmark snapshot" (fun () ->
      let sizes = match sizes with [] -> json_default_sizes | l -> l in
      let buf = Buffer.create 4096 in
      Printf.bprintf buf
        {|{ "schema_version": 1,
  "generator": "bench/main.exe json",
  "ocaml_version": %S,
  "word_size": %d,
  "kernels_inlined": %b,
  "timing": "min over 5 batches, mean over per-batch reps",
  "sizes": [
|}
        Sys.ocaml_version Sys.word_size (kernels_inlined ());
      List.iteri
        (fun i n ->
          if i > 0 then Buffer.add_string buf ",\n";
          json_one_size buf n)
        sizes;
      Buffer.add_string buf "\n  ]\n}\n";
      match out with
      | None -> print_string (Buffer.contents buf)
      | Some path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Buffer.contents buf));
          Printf.printf "  wrote %s\n" path)

let usage () =
  Printf.eprintf
    "usage: main.exe [--jobs N] [--out FILE] [--sizes N,N,...] \
     [all|tables|micro|parallel|arena|correlated|mcsta|resilience|gp|serve|table1|table2|table3|example|yield|mc|corner|ablation|extensions|scale|json]...\n"

let () =
  let out = ref None and size_list = ref [] in
  let rec parse jobs sections = function
    | [] -> (jobs, List.rev sections)
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> parse j sections rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects an argument\n";
        exit 2
    | "--out" :: path :: rest ->
        out := Some path;
        parse jobs sections rest
    | [ "--out" ] ->
        Printf.eprintf "--out expects an argument\n";
        exit 2
    | "--sizes" :: ns :: rest -> (
        match
          String.split_on_char ',' ns
          |> List.map (fun x -> int_of_string_opt (String.trim x))
        with
        | sizes when List.for_all (function Some n -> n > 0 | None -> false) sizes
          ->
            size_list := List.filter_map Fun.id sizes;
            parse jobs sections rest
        | _ ->
            Printf.eprintf "--sizes expects positive integers, got %S\n" ns;
            exit 2)
    | [ "--sizes" ] ->
        Printf.eprintf "--sizes expects an argument\n";
        exit 2
    | s :: rest -> parse jobs (s :: sections) rest
  in
  let jobs, sections = parse 1 [] (List.tl (Array.to_list Sys.argv)) in
  let sections = if sections = [] then [ "all" ] else sections in
  let pool = if jobs > 1 then Some (Util.Pool.create ~jobs ()) else None in
  let run_section = function
    | "all" ->
        run_tables ?pool ();
        run_parallel ~jobs ();
        run_arena ();
        run_correlated ();
        run_mcsta ~jobs ();
        run_gp ();
        run_micro ()
    | "tables" -> run_tables ?pool ()
    | "micro" -> run_micro ()
    | "parallel" -> run_parallel ~jobs ()
    | "arena" -> run_arena ()
    | "correlated" -> run_correlated ()
    | "mcsta" -> run_mcsta ~jobs ()
    | "resilience" -> run_resilience ()
    | "gp" -> run_gp ()
    | "serve" -> run_serve ()
    | "table1" -> run_table1 ?pool ()
    | "table2" -> run_table2 ()
    | "table3" -> run_table3 ()
    | "example" -> run_example ()
    | "yield" -> run_yield ()
    | "mc" -> run_mc ()
    | "ablation" -> run_ablation ()
    | "extensions" -> run_extensions ()
    | "corner" -> run_corner ()
    | "scale" -> run_scale ?pool ()
    | "json" -> run_json ~out:!out ~sizes:!size_list ()
    | other ->
        Printf.eprintf "unknown section %S\n" other;
        usage ();
        exit 2
  in
  List.iter run_section sections;
  Option.iter Util.Pool.shutdown pool
