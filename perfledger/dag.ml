(* dag: back-to-back timing sweeps on one 240k-gate generated DAG (the
   bench harness's [json_spec 240_000]: 1000 inputs, depth 48, DAG seed
   77).  Each round makes three calls, each on its own seed-generated
   size vector: an independent forward sweep, an independent forward +
   reverse sweep, and a canonical (grid=4, p=17) forward + reverse sweep.
   Only [Sta.Arena] and the statdelay kernels run; no solver is
   involved. *)

module M = Measure

let model = Circuit.Sigma_model.paper_default

let spec =
  {
    Circuit.Generate.default_spec with
    Circuit.Generate.n_gates = 240_000;
    n_pis = 1_000;
    target_depth = 48;
    seed = 77;
  }

(* The CLI's grid=4 model: p = 1 global + 16 grid cells = 17 planes. *)
let varmodel () = Circuit.Varmodel.make ~grid:4 ~global_frac:0.25 ~grid_frac:0.25 ()

(* Size vectors made before the timed phase; call [i] uses vector
   [i mod bank_size], so consecutive calls never share sizes.  Arena
   sweeps keep no state between calls that a repeated vector could hit. *)
let bank_size = 30

type setup = { net : Circuit.Netlist.t; arena : Sta.Arena.t; arena_c : Sta.Arena.t }

let kinds = [| "analyze"; "grad"; "canon_grad" |]

(* Durations are scaled to the reference machine speed ([M.Calib]);
   [raw_ns] is the call's unscaled time. *)
type call = {
  kind : int;
  ns : int;
  raw_ns : int;
  fwd_ns : int;
  rev_ns : int;
  words : float;
  max2 : int;  (** traced: Clark (kind < 2) or Canon (kind 2) max2 calls *)
  mu : float;
  var : float;
  grad_sum : int64;  (** checksum of the gradient bits; 0 for analyze *)
}

(* Bytes the arena's planes hold: what a sweep can touch. *)
let arena_bytes (a : Sta.Arena.t) =
  let v (p : Sta.Arena.vec) = 8 * Bigarray.Array1.dim p in
  let iv (p : Sta.Arena.ivec) = 4 * Bigarray.Array1.dim p in
  v a.sizes + v a.load + v a.del + v a.arr + v a.pre + v a.opnd + v a.fosz + v a.pp + v a.adj
  + v a.dmu_t + v a.fadj + v a.grad + v a.asens + v a.presens + v a.sadj + v a.fsadj + v a.cpp
  + iv a.fi_b + iv a.fo_c + Bytes.length a.active

let make_bank ~seed net =
  let lo = Circuit.Netlist.min_sizes net and hi = Circuit.Netlist.max_sizes net in
  Array.init bank_size (fun j ->
      let rng = Util.Rng.keyed seed ~key:j in
      Array.init (Array.length lo) (fun i -> Util.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i)))

let c_clark = Util.Instr.counter "clark.max2"
let c_canon = Util.Instr.counter "canon.max2"

(* One call on the given vector; timing covers only the sweeps. *)
let run_call ?spans ~parent st buf kind sizes =
  let a = if kind = 2 then st.arena_c else st.arena in
  let ctr = if kind = 2 then c_canon else c_clark in
  let m0 = Util.Instr.count ctr in
  let w0 = Gc.minor_words () in
  let t0 = M.now_ns () in
  Sta.Ssta.forward_raw ~model a ~sizes;
  let t1 = M.now_ns () in
  if kind > 0 then Sta.Ssta.reverse_raw ~model a ~d_mu:1. ~d_var:0.;
  let t2 = M.now_ns () in
  let w1 = Gc.minor_words () in
  (match spans with
  | None -> ()
  | Some sp ->
      let c = M.Span.add sp ~name:("call:" ^ kinds.(kind)) ~parent ~start:t0 ~stop:t2 in
      ignore (M.Span.add sp ~name:"forward" ~parent:c ~start:t0 ~stop:t1);
      if kind > 0 then ignore (M.Span.add sp ~name:"reverse" ~parent:c ~start:t1 ~stop:t2));
  let grad_sum =
    if kind = 0 then 0L
    else begin
      Sta.Arena.gradient_into a buf;
      M.checksum buf
    end
  in
  {
    kind;
    ns = t2 - t0;
    raw_ns = t2 - t0;
    fwd_ns = t1 - t0;
    rev_ns = t2 - t1;
    words = w1 -. w0;
    max2 = Util.Instr.count ctr - m0;
    mu = Sta.Arena.circuit_mu a;
    var = Sta.Arena.circuit_var a;
    grad_sum;
  }

(* Whole rounds until [seconds] have elapsed, a calibration slice after
   each.  Returns the calls and the scaled time of the rounds without
   their slices. *)
let measure ?spans ~calib ~seconds st bank =
  let buf = Array.make (Circuit.Netlist.n_gates st.net) 0. in
  let parent = match spans with Some sp -> M.Span.open_ sp ~name:"pass" ~parent:(-1) | None -> -1 in
  let calls = ref [] in
  let busy = ref 0 in
  let t0 = M.now_ns () in
  let r = ref 0 in
  while !r = 0 || M.s_of_ns (M.now_ns () - t0) < seconds do
    let r0 = M.now_ns () in
    let round =
      List.init 3 (fun k -> run_call ?spans ~parent st buf k bank.(((3 * !r) + k) mod bank_size))
    in
    let d = M.now_ns () - r0 in
    let f = M.Calib.mark calib in
    busy := !busy + M.scale f d;
    List.iter
      (fun c ->
        calls :=
          { c with ns = M.scale f c.ns; fwd_ns = M.scale f c.fwd_ns; rev_ns = M.scale f c.rev_ns }
          :: !calls)
      round;
    incr r
  done;
  (match spans with Some sp -> M.Span.close sp parent | None -> ());
  (Array.of_list (List.rev !calls), !busy)

let same_result a b =
  Int64.equal (M.bits a.mu) (M.bits b.mu)
  && Int64.equal (M.bits a.var) (M.bits b.var)
  && Int64.equal a.grad_sum b.grad_sum

(* Call 1 (an independent gradient) against the record-based reference
   sweeps, and calls 0 and 2 repeated after the run: an arena must give
   the same bits whatever it swept before. *)
let check st bank calls =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let r, g =
    Sta.Ssta.Boxed.value_and_gradient ~model st.net ~sizes:bank.(1) ~seed:(fun _ ->
        { Sta.Ssta.d_mu = 1.; d_var = 0. })
  in
  let oracle =
    {
      (calls.(1)) with
      mu = r.Sta.Ssta.circuit.Statdelay.Normal.mu;
      var = r.Sta.Ssta.circuit.Statdelay.Normal.var;
      grad_sum = M.checksum g;
    }
  in
  if not (same_result calls.(1) oracle) then
    err "dag: arena gradient sweep differs from the boxed reference (mu %h vs %h)" calls.(1).mu
      oracle.mu;
  let buf = Array.make (Circuit.Netlist.n_gates st.net) 0. in
  List.iter
    (fun i ->
      let again = run_call ~parent:(-1) st buf calls.(i).kind bank.(i) in
      if not (same_result calls.(i) again) then err "dag: %s call repeated with different bits" kinds.(i))
    [ 0; 2 ];
  Array.iter
    (fun c ->
      if not (Float.is_finite c.mu && Float.is_finite c.var && c.var > 0.) then
        err "dag: %s call gave non-finite moments" kinds.(c.kind))
    calls;
  List.rev !errors

let of_kind k calls = Array.of_list (List.filter (fun c -> c.kind = k) (Array.to_list calls))
let med f cs = M.median (Array.map f cs)

let e2e_of (calls, wall) =
  [
    M.m "ops_per_s" (float_of_int (Array.length calls) /. M.s_of_ns wall) "1/s";
  ]
  @ M.latency_metrics
      (List.init 3 (fun k -> Array.map (fun c -> M.ms_of_ns c.ns) (of_kind k calls)))
  @ [
    M.m "evals_per_op" 1. "count";
    M.m "attempts_per_op" 1. "count";
  ]

let print_named_metrics calls =
  Printf.printf "dag (%d calls, median per call, scaled; raw in brackets):\n" (Array.length calls);
  Array.iteri
    (fun k name ->
      let cs = of_kind k calls in
      let ms = Array.map (fun c -> M.ms_of_ns c.ns) cs in
      Printf.printf "  %-20s %12.6f ms  (n=%d, p25 %.3f, p75 %.3f) [%.3f]\n" name (M.median ms)
        (Array.length ms) (M.quantile 0.25 ms) (M.quantile 0.75 ms)
        (med (fun c -> M.ms_of_ns c.raw_ns) cs))
    [| "dag_analyze_ms"; "dag_grad_ms"; "dag_canon_grad_ms" |]

let run ~seed ~seconds ~trace =
  let gen_s = ref [] in
  let setup () =
    let t0 = M.now_ns () in
    let net = Circuit.Generate.random_dag spec in
    gen_s := M.s_of_ns (M.now_ns () - t0) :: !gen_s;
    { net; arena = Sta.Arena.create net; arena_c = Sta.Arena.create ~varmodel:(varmodel ()) net }
  in
  let calib = M.Calib.start M.Calib.Memory in
  let setup_times, st = M.time_setups calib 3 setup in
  let setup_s = M.median setup_times in
  let bank = make_bank ~seed st.net in
  (* One untimed round first: the arenas' pages are faulted in by their
     first sweep, not by [Sta.Arena.create]. *)
  ignore (measure ~calib ~seconds:0. st bank);
  let ((calls, _) as untraced) = measure ~calib ~seconds st bank in
  let rss = M.peak_rss_mb () in
  Printf.printf "host speed: %.3f of the reference\n" (M.Calib.speed calib);
  print_named_metrics calls;
  let errors = check st bank calls in
  let e2e =
    M.m "setup_s" setup_s "s"
    :: M.m "peak_rss_mb" rss "MB"
    :: M.m "ok_frac" 1. "ratio"
    :: e2e_of untraced
  in
  let attempted = Array.length calls in
  if not trace then { M.attempted; failed = 0; errors; e2e; layers = [] }
  else begin
    let spans = M.Span.create () in
    Util.Instr.reset ();
    Util.Instr.enable ();
    let ((tcalls, _) as traced) = measure ~spans ~calib ~seconds st bank in
    Util.Instr.disable ();
    let common = min (Array.length calls) (Array.length tcalls) in
    let identity =
      if Array.for_all2 same_result (Array.sub calls 0 common) (Array.sub tcalls 0 common) then []
      else [ "dag: traced sweeps differ from untraced sweeps" ]
    in
    let ind = Array.append (of_kind 0 tcalls) (of_kind 1 tcalls) in
    let grad = of_kind 1 tcalls and canon = of_kind 2 tcalls in
    (* Sweeps per call: 1 forward for analyze, forward + reverse otherwise. *)
    let per_sweep cs =
      M.ratio
        (float_of_int (Array.fold_left (fun s c -> s + c.max2) 0 cs))
        (float_of_int (Array.fold_left (fun s c -> s + if c.kind = 0 then 1 else 2) 0 cs))
    in
    let layers =
      [
        M.m "sta.forward_ms" (med (fun c -> M.ms_of_ns c.fwd_ns) ind) "ms";
        M.m "sta.reverse_ms" (med (fun c -> M.ms_of_ns c.rev_ns) grad) "ms";
        M.m "sta.canon_forward_ms" (med (fun c -> M.ms_of_ns c.fwd_ns) canon) "ms";
        M.m "sta.canon_reverse_ms" (med (fun c -> M.ms_of_ns c.rev_ns) canon) "ms";
        (* Allocation from the untraced calls: the traced ones also count
           the timers' own bookkeeping. *)
        M.m "sta.words_per_eval" (med (fun c -> c.words) (of_kind 1 calls)) "words";
        M.m "sta.canon_words_per_eval" (med (fun c -> c.words) (of_kind 2 calls)) "words";
        M.m "statdelay.clark_max2_per_sweep" (per_sweep ind) "count";
        M.m "statdelay.canon_max2_per_sweep" (per_sweep canon) "count";
        M.m "sta.arena_mb" (float_of_int (arena_bytes st.arena) /. 1048576.) "MB";
        M.m "sta.canon_arena_mb" (float_of_int (arena_bytes st.arena_c) /. 1048576.) "MB";
        M.m "circuit.generate_s" (M.median (Array.of_list !gen_s)) "s";
      ]
    in
    M.Span.write spans (Printf.sprintf ".bench_build/spans/dag-%d.jsonl" seed);
    {
      M.attempted;
      failed = 0;
      errors = errors @ identity;
      e2e;
      layers = layers @ M.overhead ~untraced:e2e ~traced:(e2e_of traced);
    }
  end
