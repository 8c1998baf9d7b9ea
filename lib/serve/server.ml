(* The timing-as-a-service daemon.

   Threading model: any number of reader threads (one per connection,
   or the caller of [submit_line]) parse requests and push them through
   admission control under [lock]; a single executor thread owns every
   engine, breaker and registry structure, so request execution needs
   no locking at all.  Within a request, sweeps still parallelise over
   the Util.Pool domains — the pool provides data-parallelism *inside*
   one evaluation, the queue provides multiplexing *between* clients.

   Robustness ladder, outermost first:
   - admission control: a bounded queue sheds by Protocol.shed_class
     (solves first, analyses last) with typed [overloaded] replies;
   - deadlines: each request carries a Util.Guard budget started at
     admission, so time spent queued counts; an expired analyze/whatif
     degrades to a flagged mean-only Dsta answer, an expired
     gradient/size gets a typed [timeout];
   - per-circuit breakers quarantine a circuit whose solves keep
     breaking down, with typed [quarantined] replies;
   - solves run on the sizing engine's own scratch arena, and an
     exception escaping Exec rebuilds the warmed engine, so poisoned
     engine state never crosses requests;
   - shutdown: SIGTERM/SIGINT finish the in-flight request and answer
     every queued one with a typed [shutting_down]; EOF on stdin
     instead finishes the remaining queue before exiting.

   Every reply is counted in exactly one of served / degraded / shed /
   refused, so [submitted = served + degraded + shed + refused] holds at
   every quiescent point — the soak test's conservation law. *)

let requests_c = Util.Instr.counter "serve.requests"
let served_c = Util.Instr.counter "serve.served"
let degraded_c = Util.Instr.counter "serve.degraded"
let shed_c = Util.Instr.counter "serve.shed"
let refused_c = Util.Instr.counter "serve.refused"
let timeout_c = Util.Instr.counter "serve.timeout"
let quarantined_c = Util.Instr.counter "serve.quarantined"
let tripped_c = Util.Instr.counter "serve.tripped"

let request_kinds = [ "analyze"; "whatif"; "gradient"; "size"; "stats"; "health" ]

let latency_h =
  List.map (fun k -> (k, Util.Instr.histogram ("serve.latency." ^ k))) request_kinds

type config = {
  queue_capacity : int;
  warm_capacity : int;
  default_deadline_ms : float option;
  default_max_evals : int option;
  breaker : Breaker.config;
}

let default_config =
  {
    queue_capacity = 32;
    warm_capacity = 4;
    default_deadline_ms = None;
    default_max_evals = None;
    breaker = Breaker.default_config;
  }

type pending = {
  req : Protocol.request;
  budget : Util.Guard.budget option;
  reply : string -> unit;
}

type mode = Run | Finish | Drain

type t = {
  config : config;
  now : unit -> int;
  instrument : (Nlp.Problem.constrained -> Nlp.Problem.constrained) option;
  registry : Registry.t;
  queue : pending Admission.t;
  lock : Mutex.t;
  wake : Condition.t;
  mutable mode : mode;
  mutable executor : Thread.t option;
  stop_flag : bool Atomic.t;  (* set from signal handlers, polled by IO loops *)
  started_ns : int;
  (* Conservation counters: authoritative (the Instr mirrors are
     observability and vanish when instrumentation is off).  submitted,
     shed and refused-at-submit are mutated under [lock]; the rest only
     by the executor thread. *)
  mutable n_submitted : int;
  mutable n_served : int;
  mutable n_degraded : int;
  mutable n_shed : int;
  mutable n_refused : int;
}

let create ?pool ?(now = Util.Guard.monotonic_now) ?instrument
    ?(config = default_config) () =
  {
    config;
    now;
    instrument;
    registry = Registry.create ?pool ~capacity:config.warm_capacity ();
    queue = Admission.create ~capacity:config.queue_capacity;
    lock = Mutex.create ();
    wake = Condition.create ();
    mode = Run;
    executor = None;
    stop_flag = Atomic.make false;
    started_ns = now ();
    n_submitted = 0;
    n_served = 0;
    n_degraded = 0;
    n_shed = 0;
    n_refused = 0;
  }

let add_circuit t ~name ~model net =
  Registry.register ~breaker:t.config.breaker ~now:t.now t.registry ~name ~model
    net

let circuits t = Registry.names t.registry

(* ---- replies ------------------------------------------------------------------ *)

let send p payload =
  let line =
    Protocol.encode_response
      { id = p.req.id; kind = Protocol.kind_of_body p.req.body; payload }
  in
  try p.reply line with _ -> ()  (* a vanished client never kills the daemon *)

let count_refused t =
  t.n_refused <- t.n_refused + 1;
  Util.Instr.incr refused_c

let refuse t p code message =
  count_refused t;
  (match code with
  | Protocol.Timeout -> Util.Instr.incr timeout_c
  | Protocol.Quarantined -> Util.Instr.incr quarantined_c
  | _ -> ());
  send p (Protocol.Error { code; message })

(* ---- stats / health ----------------------------------------------------------- *)

let conservation_fields t =
  [
    ("submitted", Json.Num (float_of_int t.n_submitted));
    ("served", Json.Num (float_of_int t.n_served));
    ("degraded", Json.Num (float_of_int t.n_degraded));
    ("shed", Json.Num (float_of_int t.n_shed));
    ("refused", Json.Num (float_of_int t.n_refused));
  ]

let stats_json t =
  let snap = Util.Instr.snapshot ~all:true () in
  let breakers =
    List.filter_map
      (fun name ->
        match Registry.find t.registry name with
        | None -> None
        | Some e ->
            Some
              ( name,
                Json.Obj
                  [
                    ("state", Json.Str (Breaker.state_name (Breaker.state e.breaker)));
                    ("trips", Json.Num (float_of_int (Breaker.trips e.breaker)));
                  ] ))
      (Registry.names t.registry)
  in
  let histograms =
    List.map
      (fun (name, (h : Util.Instr.hist)) ->
        ( name,
          Json.Obj
            [
              ("observations", Json.Num (float_of_int h.observations));
              ("sum_seconds", Json.Num h.sum_seconds);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (le, count) ->
                       Json.List [ Json.Num le; Json.Num (float_of_int count) ])
                     h.buckets) );
            ] ))
      snap.histograms
  in
  Json.Obj
    (conservation_fields t
    @ [
        ( "uptime_seconds",
          Json.Num (float_of_int (t.now () - t.started_ns) *. 1e-9) );
        ("queue_length", Json.Num (float_of_int (Admission.length t.queue)));
        ( "resident",
          Json.List
            (List.map (fun n -> Json.Str n) (Registry.resident t.registry)) );
        ("evictions", Json.Num (float_of_int (Registry.evictions t.registry)));
        ("breakers", Json.Obj breakers);
        ( "counters",
          Json.Obj
            (List.map
               (fun (name, v) -> (name, Json.Num (float_of_int v)))
               snap.counters) );
        ("histograms", Json.Obj histograms);
      ])

let health_payload t =
  Protocol.Health_result
    {
      status = (if t.mode = Run then "ok" else "draining");
      uptime_seconds = float_of_int (t.now () - t.started_ns) *. 1e-9;
      resident = Registry.resident t.registry;
    }

(* ---- execution (executor thread only) ----------------------------------------- *)

let default_circuit t =
  match Registry.names t.registry with [] -> None | n :: _ -> Some n

let exec_body t (p : pending) =
  match p.req.body with
  | Protocol.Stats ->
      (* Count this very request as served before snapshotting, so the
         conservation law (submitted = served + degraded + shed +
         refused) holds inside the report it is reading. *)
      t.n_served <- t.n_served + 1;
      Util.Instr.incr served_c;
      Protocol.Stats_result (stats_json t)
  | Protocol.Health -> health_payload t
  | body -> (
      let circuit =
        match p.req.circuit with Some c -> Some c | None -> default_circuit t
      in
      match Option.bind circuit (Registry.find t.registry) with
      | None ->
          Protocol.Error
            {
              code = Unknown_circuit;
              message =
                (match circuit with
                | None -> "no circuits registered"
                | Some c -> Printf.sprintf "unknown circuit %S" c);
            }
      | Some entry -> (
          match body with
          | Protocol.Size { objective; recovery } -> (
              match Breaker.admit entry.breaker with
              | Breaker.Reject ->
                  Protocol.Error
                    {
                      code = Quarantined;
                      message =
                        Printf.sprintf
                          "circuit %S is quarantined after repeated numerical \
                           breakdowns"
                          entry.name;
                    }
              | (Breaker.Allow | Breaker.Trial) as verdict ->
                  let target = Registry.target t.registry entry in
                  let outcome =
                    Exec.exec_size_tracked ?budget:p.budget
                      ?instrument:t.instrument target ~objective ~recovery
                  in
                  let trips_before = Breaker.trips entry.breaker in
                  (if outcome.failed then Breaker.failure entry.breaker
                   else
                     match outcome.payload with
                     | Protocol.Sized _ -> Breaker.success entry.breaker
                     | _ ->
                         (* Inconclusive (timeout, unconverged): an
                            [Allow] leaves the breaker untouched, but a
                            [Trial] burns the probe conservatively — a
                            fresh cooldown, not a reopened floodgate. *)
                         if verdict = Breaker.Trial then
                           Breaker.failure entry.breaker);
                  if Breaker.trips entry.breaker > trips_before then
                    Util.Instr.incr tripped_c;
                  outcome.payload)
          | body ->
              let target = Registry.target t.registry entry in
              Exec.exec ?budget:p.budget target body))

let handle t (p : pending) =
  let kind = Protocol.kind_of_body p.req.body in
  let t0 = t.now () in
  let payload = exec_body t p in
  (match List.assoc_opt kind latency_h with
  | Some h -> Util.Instr.observe_ns h (t.now () - t0)
  | None -> ());
  (match payload with
  | Protocol.Error { code; _ } ->
      count_refused t;
      (match code with
      | Protocol.Timeout -> Util.Instr.incr timeout_c
      | Protocol.Quarantined -> Util.Instr.incr quarantined_c
      | _ -> ())
  | Protocol.Degraded _ ->
      t.n_degraded <- t.n_degraded + 1;
      Util.Instr.incr degraded_c
  | Protocol.Stats_result _ -> ()  (* pre-counted in [exec_body] *)
  | _ ->
      t.n_served <- t.n_served + 1;
      Util.Instr.incr served_c);
  send p payload

let rec executor_loop t =
  Mutex.lock t.lock;
  while Admission.is_empty t.queue && t.mode = Run do
    Condition.wait t.wake t.lock
  done;
  match t.mode with
  | Drain ->
      let drained = Admission.drain t.queue in
      Mutex.unlock t.lock;
      List.iter
        (fun p -> refuse t p Protocol.Shutting_down "daemon is draining")
        drained
  | Run | Finish -> (
      match Admission.pop t.queue with
      | Some p ->
          Mutex.unlock t.lock;
          handle t p;
          executor_loop t
      | None ->
          (* Finish mode with an empty queue: clean exit.  (Run mode
             never reaches here — the wait loop holds until work or a
             mode change arrives.) *)
          Mutex.unlock t.lock;
          if t.mode = Run then executor_loop t)

(* ---- submission (any thread) -------------------------------------------------- *)

let make_budget t (req : Protocol.request) =
  let deadline_ms =
    match req.deadline_ms with
    | Some d -> Some d
    | None -> t.config.default_deadline_ms
  in
  let max_evals =
    match req.max_evals with
    | Some m -> Some m
    | None -> t.config.default_max_evals
  in
  match (deadline_ms, max_evals) with
  | None, None -> None
  | _ ->
      Some
        (Util.Guard.budget ~now:t.now
           ?deadline:(Option.map (fun ms -> ms *. 1e-3) deadline_ms)
           ?max_evals ())

let submit_line t ~reply line =
  Util.Instr.incr requests_c;
  match Protocol.decode_request line with
  | Error message ->
      Mutex.lock t.lock;
      t.n_submitted <- t.n_submitted + 1;
      t.n_refused <- t.n_refused + 1;
      Mutex.unlock t.lock;
      Util.Instr.incr refused_c;
      (try
         reply
           (Protocol.encode_response
              {
                id = Json.Null;
                kind = "unknown";
                payload = Error { code = Bad_request; message };
              })
       with _ -> ())
  | Ok req -> (
      let p = { req; budget = make_budget t req; reply } in
      Mutex.lock t.lock;
      t.n_submitted <- t.n_submitted + 1;
      if t.mode <> Run then begin
        t.n_refused <- t.n_refused + 1;
        Mutex.unlock t.lock;
        Util.Instr.incr refused_c;
        send p
          (Protocol.Error
             { code = Shutting_down; message = "daemon is draining" })
      end
      else
        match
          Admission.submit t.queue ~cls:(Protocol.shed_class req.body) p
        with
        | Admission.Enqueued ->
            Condition.signal t.wake;
            Mutex.unlock t.lock;
        | Admission.Shed_victim v ->
            t.n_shed <- t.n_shed + 1;
            Condition.signal t.wake;
            Mutex.unlock t.lock;
            Util.Instr.incr shed_c;
            send v
              (Protocol.Error
                 { code = Overloaded; message = "shed by admission control" })
        | Admission.Shed_self ->
            t.n_shed <- t.n_shed + 1;
            Mutex.unlock t.lock;
            Util.Instr.incr shed_c;
            send p
              (Protocol.Error
                 { code = Overloaded; message = "shed by admission control" }))

(* ---- lifecycle ----------------------------------------------------------------- *)

let start t =
  match t.executor with
  | Some _ -> invalid_arg "Server.start: already started"
  | None -> t.executor <- Some (Thread.create executor_loop t)

let request_stop t mode =
  Mutex.lock t.lock;
  if t.mode = Run then t.mode <- mode;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock

let stop ?(drain = true) t =
  request_stop t (if drain then Drain else Finish);
  match t.executor with
  | Some th ->
      Thread.join th;
      t.executor <- None
  | None -> ()

let counters t =
  Mutex.lock t.lock;
  let r =
    ( t.n_submitted,
      t.n_served,
      t.n_degraded,
      t.n_shed,
      t.n_refused )
  in
  Mutex.unlock t.lock;
  r

(* ---- IO front-ends ------------------------------------------------------------- *)

let install_signal_handlers t =
  (* Handlers may run on any thread, so they only flip an atomic flag;
     the IO loops poll it between selects and run the drain normally. *)
  let request _ = Atomic.set t.stop_flag true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request) with _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request) with _ -> ());
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

(* Reads [fd] line by line, invoking [on_line] per line, until EOF or
   [until ()].  select-with-timeout so signal flags are polled. *)
let pump_lines ?(until = fun () -> false) fd ~on_line =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let eof = ref false in
  let stop = ref false in
  while not (!stop || !eof) do
    if until () then stop := true
    else
      match Unix.select [ fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | n ->
              (* Whole runs between newlines move in one copy each; the
                 bytes past [n] are stale. *)
              let rec split pos =
                match Bytes.index_from_opt chunk pos '\n' with
                | Some nl when nl < n ->
                    Buffer.add_subbytes buf chunk pos (nl - pos);
                    on_line (Buffer.contents buf);
                    Buffer.clear buf;
                    split (nl + 1)
                | _ -> Buffer.add_subbytes buf chunk pos (n - pos)
              in
              split 0
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> eof := true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  if !eof && Buffer.length buf > 0 then on_line (Buffer.contents buf);
  !eof

let write_line_locked lock fd line =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      (* One copy of the line with its newline, one write syscall. *)
      let len = String.length line + 1 in
      let data = Bytes.create len in
      Bytes.blit_string line 0 data 0 (len - 1);
      Bytes.set data (len - 1) '\n';
      let off = ref 0 in
      try
        while !off < len do
          off := !off + Unix.write fd data !off (len - !off)
        done
      with Unix.Unix_error _ -> ())

let run_stdio t =
  install_signal_handlers t;
  start t;
  let out_lock = Mutex.create () in
  let reply = write_line_locked out_lock Unix.stdout in
  let eof =
    pump_lines
      ~until:(fun () -> Atomic.get t.stop_flag)
      Unix.stdin
      ~on_line:(fun line ->
        if String.trim line <> "" then submit_line t ~reply line)
  in
  (* EOF is a polite goodbye: finish the queued work.  A signal is an
     order to drain: queued requests get typed shutting_down replies. *)
  stop t ~drain:(not eof)

let run_socket t ~path =
  install_signal_handlers t;
  start t;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let drained = Atomic.make false in
  let readers = ref [] in
  let serve_connection fd =
    let out_lock = Mutex.create () in
    let reply = write_line_locked out_lock fd in
    let eof =
      pump_lines
        ~until:(fun () -> Atomic.get drained)
        fd
        ~on_line:(fun line ->
          if String.trim line <> "" then submit_line t ~reply line)
    in
    (* On shutdown the connection must stay writable until the executor
       has answered the drained queue — [drained] is set only after
       [stop] returns, so closing here is safe either way. *)
    ignore eof;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  while not (Atomic.get t.stop_flag) do
    match Unix.select [ sock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | fd, _ -> readers := Thread.create serve_connection fd :: !readers
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  stop t ~drain:true;
  Atomic.set drained true;
  List.iter Thread.join !readers;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ -> ()
