(* serve: an in-process [Serve.Server] on k2* driven by one generator
   thread that keeps two requests in flight (a closed loop).  The mix is
   analyze (explicit random sizes), whatif (1-8 gate deltas against the
   committed sizing) and gradient (mu+3sigma, explicit random sizes) in
   ratio 1:2:1.  Every request line is generated and encoded from the
   seed before the timed phase: encoding a 1692-float request costs
   milliseconds and would otherwise throttle the loop. *)

module M = Measure
module P = Serve.Protocol

let model = Circuit.Sigma_model.paper_default
let circuit = "k2"
let kinds = [| "analyze"; "whatif"; "gradient" |]
let in_flight = 2

(* Distinct explicit size vectors; the [j]-th explicit request uses
   vector [j mod bank_size], so consecutive ones always differ. *)
let bank_size = 128

(* Bytes of each reply kept for the id/ok/kind/degraded check. *)
let head_bytes = 96

(* Upper bound on the requests one run can send. *)
let max_rate = 5_000

type schedule = {
  kind : int array;
  body : P.body array;
  tail : string array;  (** encoded line without its id, shared across the bank *)
}

let request ~id body =
  { P.id; circuit = Some circuit; deadline_ms = None; max_evals = None; body }

(* [encode_request] writes [{"op":..., "id":..., ...}]: the id is spliced
   into the id-less encoding at send time.  Checked against the full
   encoder for the first requests of every run. *)
let encode_tail body = P.encode_request (request ~id:Serve.Json.Null body)

let splice_id tail id =
  let cut = String.index tail ',' + 1 in
  String.concat ""
    [ String.sub tail 0 cut; "\"id\":"; string_of_int id; ","; String.sub tail cut (String.length tail - cut) ]

let make_schedule ~seed ~n net =
  let rng = Util.Rng.create seed in
  let lo = Circuit.Netlist.min_sizes net and hi = Circuit.Netlist.max_sizes net in
  let g = Circuit.Netlist.n_gates net in
  let vectors =
    Array.init bank_size (fun _ -> Array.init g (fun i -> Util.Rng.uniform rng ~lo:lo.(i) ~hi:hi.(i)))
  in
  let analyze_tails = Array.map (fun v -> encode_tail (P.Analyze { sizes = P.Explicit v })) vectors in
  let seed_kind = P.Seed_mu_k_sigma 3. in
  let gradient_tails =
    Array.map (fun v -> encode_tail (P.Gradient { sizes = P.Explicit v; seed = seed_kind })) vectors
  in
  let explicit = ref 0 in
  let kind = Array.make n 0 and body = Array.make n (P.Analyze { sizes = P.Committed }) in
  let tail = Array.make n "" in
  for i = 0 to n - 1 do
    let u = Util.Rng.int rng 4 in
    let k = if u = 0 then 0 else if u = 3 then 2 else 1 in
    kind.(i) <- k;
    if k = 1 then begin
      let d = 1 + Util.Rng.int rng 8 in
      let deltas =
        Array.init d (fun _ ->
            let gate = Util.Rng.int rng g in
            (gate, Util.Rng.uniform rng ~lo:lo.(gate) ~hi:hi.(gate)))
      in
      body.(i) <- P.Whatif { deltas };
      tail.(i) <- encode_tail body.(i)
    end
    else begin
      let j = !explicit mod bank_size in
      incr explicit;
      if k = 0 then begin
        body.(i) <- P.Analyze { sizes = P.Explicit vectors.(j) };
        tail.(i) <- analyze_tails.(j)
      end
      else begin
        body.(i) <- P.Gradient { sizes = P.Explicit vectors.(j); seed = seed_kind };
        tail.(i) <- gradient_tails.(j)
      end
    end
  done;
  { kind; body; tail }

(* ---- the server ---------------------------------------------------------- *)

(* Blocking single request, for warm-up. *)
let round_trip srv line =
  let m = Mutex.create () and c = Condition.create () in
  let got = ref None in
  Serve.Server.submit_line srv line ~reply:(fun r ->
      Mutex.lock m;
      got := Some r;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while !got = None do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Option.get !got

(* Set-up ends when a client can be served at full speed: circuit built
   and registered, executor running, engine warmed by one request. *)
let setup () =
  let net = Circuit.Generate.k2_like () in
  let srv = Serve.Server.create () in
  Serve.Server.add_circuit srv ~name:circuit ~model net;
  Serve.Server.start srv;
  ignore (round_trip srv (P.encode_request (request ~id:Serve.Json.Null (P.Analyze { sizes = P.Committed }))));
  (net, srv)

type run = {
  sent : int;
  heads : string array;  (** first bytes of each reply *)
  digests : Digest.t array;  (** MD5 of each reply *)
  lengths : int array;
  sent_ns : int array;
  done_ns : int array;
  factor : float array;  (** scale factor of each request's window *)
  busy : int;  (** scaled time of the windows, slices excluded *)
  raw_busy : int;
  counters : int * int * int * int * int;
}

(* Requests are sent in windows of this length; after each window the
   generator waits for the outstanding replies and takes a calibration
   slice, which scales the window's latencies. *)
let window_ns = 250_000_000

(* Closed loop: the generator sends the next request as soon as fewer
   than [in_flight] are outstanding.  The single executor answers in
   submission order, so replies are matched to requests FIFO (the check
   confirms every reply's id).  Replies are kept as a head, a digest and
   a length: keeping every 34 kB gradient reply would grow the heap with
   the request rate, and peak memory with it. *)
let drive ?spans ~calib ~seconds srv sched =
  let n = Array.length sched.kind in
  let heads = Array.make n "" and digests = Array.make n "" and lengths = Array.make n 0 in
  let sent_ns = Array.make n 0 and done_ns = Array.make n 0 and factor = Array.make n 1. in
  let m = Mutex.create () and c = Condition.create () in
  let outstanding = Queue.create () in
  let reply line =
    let t = M.now_ns () in
    let head = String.sub line 0 (min head_bytes (String.length line)) in
    let digest = Digest.string line in
    Mutex.lock m;
    let i = Queue.pop outstanding in
    done_ns.(i) <- t;
    heads.(i) <- head;
    digests.(i) <- digest;
    lengths.(i) <- String.length line;
    Condition.signal c;
    Mutex.unlock m
  in
  let drain () =
    Mutex.lock m;
    while not (Queue.is_empty outstanding) do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let i = ref 0 in
  let busy = ref 0 and raw_busy = ref 0 in
  ignore (M.Calib.mark calib);
  let t0 = M.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let win_start = ref t0 and win_first = ref 0 in
  let close_window () =
    drain ();
    let d = M.now_ns () - !win_start in
    let f = M.Calib.mark calib in
    busy := !busy + M.scale f d;
    raw_busy := !raw_busy + d;
    Array.fill factor !win_first (!i - !win_first) f;
    win_first := !i;
    win_start := M.now_ns ()
  in
  while !i < n && M.now_ns () < deadline do
    if M.now_ns () - !win_start >= window_ns then close_window ();
    let line = splice_id sched.tail.(!i) !i in
    Mutex.lock m;
    while Queue.length outstanding >= in_flight do
      Condition.wait c m
    done;
    Queue.push !i outstanding;
    Mutex.unlock m;
    sent_ns.(!i) <- M.now_ns ();
    Serve.Server.submit_line srv ~reply line;
    incr i
  done;
  close_window ();
  let wall = M.now_ns () - t0 in
  Serve.Server.stop ~drain:false srv;
  let sent = !i in
  (match spans with
  | None -> ()
  | Some sp ->
      let pass = M.Span.add sp ~name:"pass" ~parent:(-1) ~start:t0 ~stop:(t0 + wall) in
      for j = 0 to sent - 1 do
        ignore
          (M.Span.add sp ~name:("request:" ^ kinds.(sched.kind.(j))) ~parent:pass ~start:sent_ns.(j)
             ~stop:done_ns.(j))
      done);
  {
    sent;
    heads;
    digests;
    lengths;
    sent_ns;
    done_ns;
    factor;
    busy = !busy;
    raw_busy = !raw_busy;
    counters = Serve.Server.counters srv;
  }

(* ---- checks --------------------------------------------------------------- *)

let ok_prefix i k =
  Printf.sprintf "{\"id\":%d,\"ok\":true,\"kind\":\"%s\",\"degraded\":false," i kinds.(k)

let clean r sched i =
  let p = ok_prefix i sched.kind.(i) in
  String.starts_with ~prefix:p r.heads.(i)

(* Every explicit analyze and every whatif reply must equal, as a string,
   the reply rendered from a batch sweep on a scratch arena. *)
let check net sched r =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let submitted, served, degraded, shed, refused = r.counters in
  if submitted <> served + degraded + shed + refused then
    err "serve: submitted %d <> served %d + degraded %d + shed %d + refused %d" submitted served
      degraded shed refused;
  (* The warm-up request of [setup] is counted too. *)
  if submitted <> r.sent + 1 then err "serve: %d requests sent, server counted %d" r.sent submitted;
  for i = 0 to min 2 (r.sent - 1) do
    let full = P.encode_request (request ~id:(Serve.Json.Num (float_of_int i)) sched.body.(i)) in
    if full <> splice_id sched.tail.(i) i then err "serve: request %d encodes differently" i
  done;
  let scratch = Sta.Arena.create net in
  let committed = Circuit.Netlist.min_sizes net in
  let batch i sizes =
    let res = Sta.Ssta.analyze ~arena:scratch ~model net ~sizes in
    P.encode_response
      {
        P.id = Serve.Json.Num (float_of_int i);
        kind = kinds.(sched.kind.(i));
        payload =
          P.Analysis
            {
              mu = Statdelay.Normal.mu res.Sta.Ssta.circuit;
              var = Statdelay.Normal.var res.Sta.Ssta.circuit;
              area = Circuit.Netlist.area net ~sizes;
              n_gates = Circuit.Netlist.n_gates net;
            };
      }
  in
  for i = 0 to r.sent - 1 do
    let id_prefix = Printf.sprintf "{\"id\":%d," i in
    if not (String.starts_with ~prefix:id_prefix r.heads.(i)) then
      err "serve: reply %d out of order: %s" i r.heads.(i)
    else if clean r sched i then
      match sched.body.(i) with
      | P.Analyze { sizes = P.Explicit sizes } ->
          if r.digests.(i) <> Digest.string (batch i sizes) then
            err "serve: analyze reply %d differs from batch" i
      | P.Whatif { deltas } ->
          let sizes = Array.copy committed in
          Array.iter (fun (g, s) -> sizes.(g) <- s) deltas;
          if r.digests.(i) <> Digest.string (batch i sizes) then
            err "serve: whatif reply %d differs from batch" i
      | _ -> ()
  done;
  List.rev !errors

(* ---- metrics -------------------------------------------------------------- *)

let rtt_ms r i = M.ms_of_ns (M.scale r.factor.(i) (r.done_ns.(i) - r.sent_ns.(i)))

let by_kind sched r k f =
  let acc = ref [] in
  for i = r.sent - 1 downto 0 do
    if sched.kind.(i) = k then acc := f i :: !acc
  done;
  Array.of_list !acc

let e2e_of sched r =
  [
    M.m "ops_per_s" (float_of_int r.sent /. M.s_of_ns r.busy) "1/s";
  ]
  @ M.latency_metrics (List.init 3 (fun k -> by_kind sched r k (rtt_ms r)))
  @ [
    M.m "evals_per_op" 1. "count";
    M.m "attempts_per_op" 1. "count";
  ]

let print_named_metrics sched r =
  let per_kind =
    List.concat_map
      (fun k ->
        let ms = by_kind sched r k (rtt_ms r) in
        [
          M.m (Printf.sprintf "serve_%s_p50_ms" kinds.(k)) (M.median ms) "ms";
          M.m (Printf.sprintf "serve_%s_p99_ms" kinds.(k)) (M.quantile 0.99 ms) "ms";
        ])
      [ 0; 1; 2 ]
  in
  M.print_metrics
    (Printf.sprintf "serve (%d requests, %d in flight; scaled, raw rps %.1f):" r.sent in_flight
       (float_of_int r.sent /. M.s_of_ns r.raw_busy))
    (M.m "serve_rps" (float_of_int r.sent /. M.s_of_ns r.busy) "1/s" :: per_kind)

(* Replays the traced run's request lines on a private target, timing
   decode, exec and encode separately; the replayed replies must match
   the served ones bit for bit. *)
let replay ~spans net sched r =
  let target = Serve.Exec.create ~model net in
  let n = r.sent in
  let dec = Array.make n 0 and ex = Array.make n 0 and enc = Array.make n 0 in
  let dirty = ref 0 and swept = ref 0 in
  let mismatches = ref 0 in
  let g = Circuit.Netlist.n_gates net in
  for i = 0 to n - 1 do
    let line = splice_id sched.tail.(i) i in
    let t0 = M.now_ns () in
    let req = match P.decode_request line with Ok q -> q | Error e -> failwith e in
    let t1 = M.now_ns () in
    let c0 = Sta.Incr.counters target.Serve.Exec.incr in
    let payload = Serve.Exec.exec target req.P.body in
    let t2 = M.now_ns () in
    let c1 = Sta.Incr.counters target.Serve.Exec.incr in
    let reply = P.encode_response { P.id = req.P.id; kind = P.kind_of_body req.P.body; payload } in
    let t3 = M.now_ns () in
    if sched.kind.(i) = 1 then begin
      dirty := !dirty + c1.Sta.Incr.gates_reevaluated - c0.Sta.Incr.gates_reevaluated;
      swept := !swept + (g * (c1.Sta.Incr.analyzes - c0.Sta.Incr.analyzes))
    end;
    if Digest.string reply <> r.digests.(i) then incr mismatches;
    let p = M.Span.add spans ~name:("replay:" ^ kinds.(sched.kind.(i))) ~parent:(-1) ~start:t0 ~stop:t3 in
    ignore (M.Span.add spans ~name:"decode" ~parent:p ~start:t0 ~stop:t1);
    ignore (M.Span.add spans ~name:"exec" ~parent:p ~start:t1 ~stop:t2);
    ignore (M.Span.add spans ~name:"encode" ~parent:p ~start:t2 ~stop:t3);
    dec.(i) <- t1 - t0;
    ex.(i) <- t2 - t1;
    enc.(i) <- t3 - t2
  done;
  (dec, ex, enc, M.ratio (float_of_int !dirty) (float_of_int !swept), !mismatches)

let layers_of ~spans net sched r =
  let dec, ex, enc, whatif_dirty, mismatches = replay ~spans net sched r in
  let _, _, degraded, shed, _ = r.counters in
  let per_kind k =
    let name what = Printf.sprintf "serve.%s.%s" what kinds.(k) in
    let med a = M.median (by_kind sched r k (fun i -> M.ms_of_ns a.(i))) in
    let handoff =
      M.median
        (by_kind sched r k (fun i ->
             M.ms_of_ns (r.done_ns.(i) - r.sent_ns.(i) - dec.(i) - ex.(i) - enc.(i))))
    in
    [
      M.m (name "decode_ms") (med dec) "ms";
      M.m (name "exec_ms") (med ex) "ms";
      M.m (name "encode_ms") (med enc) "ms";
      M.m (name "handoff_ms") handoff "ms";
      M.m (name "reply_bytes")
        (M.mean (by_kind sched r k (fun i -> float_of_int r.lengths.(i))))
        "bytes";
    ]
  in
  ( List.concat_map per_kind [ 0; 1; 2 ]
    @ [
        M.m "sta.whatif_dirty_fraction" whatif_dirty "ratio";
        M.m "serve.shed" (float_of_int shed) "count";
        M.m "serve.degraded" (float_of_int degraded) "count";
      ],
    mismatches )

let run ~seed ~seconds ~trace =
  (* Half the set-up repetitions run before the timed phase and half
     after it, as for paper_tables. *)
  let stop (_, s) = Serve.Server.stop ~drain:false s in
  let calib = M.Calib.start M.Calib.Cache in
  let before, ((net, _) as last) = M.time_setups ~release:stop calib 8 setup in
  stop last;
  let n = int_of_float (ceil (seconds *. float_of_int max_rate)) in
  let sched = make_schedule ~seed ~n net in
  let fresh () =
    Gc.full_major ();
    snd (setup ())
  in
  let r = drive ~calib ~seconds (fresh ()) sched in
  let rss = M.peak_rss_mb () in
  let after, last = M.time_setups ~release:stop calib 8 setup in
  stop last;
  Printf.printf "host speed: %.3f of the reference\n" (M.Calib.speed calib);
  let setup_s = M.median (Array.append before after) in
  print_named_metrics sched r;
  let errors = check net sched r in
  let ok = ref 0 in
  for i = 0 to r.sent - 1 do
    if clean r sched i then incr ok
  done;
  let e2e =
    M.m "setup_s" setup_s "s"
    :: M.m "peak_rss_mb" rss "MB"
    :: M.m "ok_frac" (float_of_int !ok /. float_of_int (max 1 r.sent)) "ratio"
    :: e2e_of sched r
  in
  let outcome = { M.attempted = r.sent; failed = r.sent - !ok; errors; e2e; layers = [] } in
  if not trace then outcome
  else begin
    let spans = M.Span.create () in
    Util.Instr.reset ();
    Util.Instr.enable ();
    let tr = drive ~spans ~calib ~seconds (fresh ()) sched in
    Util.Instr.disable ();
    let common = min r.sent tr.sent in
    let identity =
      if Array.sub r.digests 0 common = Array.sub tr.digests 0 common then []
      else [ "serve: traced replies differ from untraced replies" ]
    in
    let layers, mismatches = layers_of ~spans net sched tr in
    let replayed =
      if mismatches = 0 then [] else [ Printf.sprintf "serve: %d replayed replies differ" mismatches ]
    in
    M.Span.write spans (Printf.sprintf ".bench_build/spans/serve-%d.jsonl" seed);
    {
      outcome with
      errors = errors @ identity @ replayed;
      layers = layers @ M.overhead ~untraced:e2e ~traced:(e2e_of sched tr);
    }
  end
