(* Clocks, calibration, sample statistics, spans and the result line
   shared by the three workloads.  Every duration is monotonic wall time
   from [Util.Instr.now_ns]; nothing here reads CPU time.  End-to-end
   durations are then scaled to the reference machine speed ([Calib]);
   spans and per-layer times stay unscaled. *)

let now_ns = Util.Instr.now_ns
let s_of_ns d = float_of_int d /. 1e9
let ms_of_ns d = float_of_int d /. 1e6

(* Nearest-rank quantile; [q] in [0, 1]. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile 0.5 xs

(* The highest percentile that still has ten samples beyond it, capped
   at p99: p99 needs 1000 samples, and 26 samples give p61. *)
let tail_q n =
  if n <= 10 then 1. else Float.min 0.99 (float_of_int (n - 10) /. float_of_int n)

let tail xs = quantile (tail_q (Array.length xs)) xs

(* Geometric mean over operation kinds of [stat] of each kind's latency
   samples: every kind counts equally, whatever the mix. *)
let kind_geomean stat kinds =
  let kinds = List.filter (fun a -> Array.length a > 0) kinds in
  let logs = List.map (fun a -> log (stat a)) kinds in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (max 1 (List.length logs)))

let sum xs = Array.fold_left ( +. ) 0. xs
let mean xs = if Array.length xs = 0 then 0. else sum xs /. float_of_int (Array.length xs)
let ratio a b = if b = 0. then 0. else a /. b

(* High-water RSS so far; read right after the timed phase, before the
   checks allocate. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* ---- machine-speed calibration -------------------------------------------- *)

(* The host's speed drifts by up to 2x over minutes (other tenants share
   its cores, caches and memory), so raw times from two runs of the same
   code are not comparable.  A fixed reference kernel, which is part of
   the ledger and never of the program under test, runs between the
   timed operations; each operation's time is scaled by the kernel's
   reference time over its time at that moment.  A scaled time is the
   operation's time at the reference machine speed, in the same unit.

   The kernel is a Clark-max forward sweep over a random DAG held in
   plain arrays, with libm's [erfc]: the same mix of float arithmetic,
   special functions and gathers as a timing sweep.  [Cache] fits the
   4 MiB L2 (paper_tables, serve); [Memory] is 20 MB of gathers across
   the whole array (dag). *)
module Calib = struct
  type footprint = Cache | Memory

  type kernel = {
    fa : int array;
    fb : int array;
    dl : float array;
    mu : float array;
    var : float array;
    warm : int;  (** untimed sweeps that refill the caches first *)
    reps : int;  (** timed sweeps per slice *)
    reference_s : float;  (** mean sweep time on an idle host *)
  }

  let inputs = 64

  let make footprint =
    let nodes, warm, reps, reference_s =
      match footprint with
      | Cache -> (8192, 1, 30, 2.55e-4)
      | Memory -> (1 lsl 19, 0, 2, 2.65e-2)
    in
    let state = ref 0x2545F491 in
    let next () =
      state := ((!state * 1103515245) + 12345) land 0x3fffffff;
      !state
    in
    let fa = Array.init nodes (fun i -> if i < inputs then i else next () mod i) in
    let fb = Array.init nodes (fun i -> if i < inputs then i else next () mod i) in
    let dl = Array.init nodes (fun _ -> 1. +. (float_of_int (next () mod 1000) /. 1000.)) in
    let mu = Array.init nodes (fun i -> if i < inputs then dl.(i) else 0.) in
    let var = Array.init nodes (fun i -> if i < inputs then 0.01 *. dl.(i) else 0.) in
    { fa; fb; dl; mu; var; warm; reps; reference_s }

  (* One forward sweep; allocates nothing, so no collection runs inside a
     slice. *)
  let sweep k =
    let fa = k.fa and fb = k.fb and dl = k.dl and mu = k.mu and var = k.var in
    for i = inputs to Array.length mu - 1 do
      let a = Array.unsafe_get fa i and b = Array.unsafe_get fb i in
      let m1 = Array.unsafe_get mu a and v1 = Array.unsafe_get var a in
      let m2 = Array.unsafe_get mu b and v2 = Array.unsafe_get var b in
      let s = sqrt (v1 +. v2) in
      let al = (m1 -. m2) /. s in
      let pdf = 0.3989422804014327 *. exp (-0.5 *. al *. al) in
      let cdf = 0.5 *. Float.erfc (-.al *. 0.7071067811865476) in
      let m = (m1 *. cdf) +. (m2 *. (1. -. cdf)) +. (s *. pdf) in
      let sq =
        (((m1 *. m1) +. v1) *. cdf) +. (((m2 *. m2) +. v2) *. (1. -. cdf)) +. ((m1 +. m2) *. s *. pdf)
      in
      let d = Array.unsafe_get dl i in
      Array.unsafe_set mu i (m +. d);
      Array.unsafe_set var i (Float.max 1e-6 (sq -. (m *. m)) +. (0.01 *. d))
    done

  (* Mean sweep time of one slice.  A mean, not a median, so that time
     the process loses to other tenants counts as it does for the timed
     operations. *)
  let slice k =
    for _ = 1 to k.warm do
      sweep k
    done;
    let t0 = now_ns () in
    for _ = 1 to k.reps do
      sweep k
    done;
    s_of_ns (now_ns () - t0) /. float_of_int k.reps

  (* Slices taken between timed intervals: [mark] closes the interval
     since the previous slice and returns its scale factor, from the mean
     of the slices on either side of it. *)
  type t = { kernel : kernel; mutable last : float; mutable slices : float list }

  let start footprint =
    let kernel = make footprint in
    sweep kernel;
    let s = slice kernel in
    { kernel; last = s; slices = [ s ] }

  let mark t =
    let s = slice t.kernel in
    let f = t.kernel.reference_s /. ((t.last +. s) /. 2.) in
    t.last <- s;
    t.slices <- s :: t.slices;
    f

  (* Host speed over the run relative to the reference (1 = as fast). *)
  let speed t = t.kernel.reference_s /. median (Array.of_list t.slices)
end

(* Scaled nanoseconds: a raw duration at the reference machine speed. *)
let scale f ns = int_of_float (Float.round (f *. float_of_int ns))

(* Times [k] repetitions of the set-up [f], each scaled by calibration
   slices taken around it; returns the times and the last value built.
   [release] disposes of each earlier value before the next repetition,
   so memory holds one at a time. *)
let time_setups ?(release = ignore) calib k f =
  let times = Array.make k 0. in
  let last = ref None in
  for i = 0 to k - 1 do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    ignore (Calib.mark calib);
    let t0 = now_ns () in
    let v = f () in
    let d = now_ns () - t0 in
    times.(i) <- s_of_ns d *. Calib.mark calib;
    last := Some v
  done;
  match !last with Some v -> (times, v) | None -> invalid_arg "time_setups: k < 1"

let bits = Int64.bits_of_float

(* Order-sensitive fold of the exact bit patterns of [xs]. *)
let checksum xs =
  Array.fold_left (fun acc x -> Int64.add (Int64.mul acc 1_000_003L) (bits x)) 17L xs

(* ---- spans ---------------------------------------------------------------- *)

(* In-memory span log: name, start, end and parent index (-1 for a
   root), written out once when the run ends. *)
module Span = struct
  type t = {
    mutable names : string array;
    mutable starts : int array;
    mutable ends : int array;
    mutable parents : int array;
    mutable len : int;
  }

  let create () =
    { names = Array.make 1024 ""; starts = Array.make 1024 0; ends = Array.make 1024 0;
      parents = Array.make 1024 (-1); len = 0 }

  let grow t =
    let n = 2 * Array.length t.names in
    let extend a fill = Array.init n (fun i -> if i < t.len then a.(i) else fill) in
    t.names <- extend t.names "";
    t.starts <- extend t.starts 0;
    t.ends <- extend t.ends 0;
    t.parents <- extend t.parents (-1)

  (* Records a finished span; returns its index for use as a parent. *)
  let add t ~name ~parent ~start ~stop =
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.starts.(i) <- start;
    t.ends.(i) <- stop;
    t.parents.(i) <- parent;
    t.len <- i + 1;
    i

  (* Opens a span whose end is filled in by [close]. *)
  let open_ t ~name ~parent = add t ~name ~parent ~start:(now_ns ()) ~stop:0
  let close t i = t.ends.(i) <- now_ns ()
  let duration_ns t i = t.ends.(i) - t.starts.(i)

  (* Sum of durations of the spans called [name]. *)
  let total_s t name =
    let acc = ref 0 in
    for i = 0 to t.len - 1 do
      if String.equal t.names.(i) name then acc := !acc + duration_ns t i
    done;
    s_of_ns !acc

  let write t path =
    let dir = Filename.dirname path in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out path in
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
        t.names.(i) t.starts.(i) t.ends.(i) t.parents.(i)
    done;
    close_out oc
end

(* ---- results -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* The latency metrics every workload reports, from per-kind samples. *)
let latency_metrics kinds =
  [
    m "p50_ms" (kind_geomean median kinds) "ms";
    m "tail_ms" (kind_geomean tail kinds) "ms";
  ]

type outcome = {
  attempted : int;
  failed : int;  (* operations that completed without a clean answer *)
  errors : string list;  (* failed correctness checks *)
  e2e : metric list;
  layers : metric list;  (* traced runs only *)
}

let value name ms = match List.find_opt (fun x -> x.name = name) ms with Some x -> x.value | None -> 0.

(* Tracing overhead: the traced end-to-end numbers minus the untraced. *)
let overhead ~untraced ~traced =
  [
    m "trace.p50_ms_delta" (value "p50_ms" traced -. value "p50_ms" untraced) "ms";
    m "trace.ops_per_s_delta" (value "ops_per_s" traced -. value "ops_per_s" untraced) "1/s";
  ]

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun { name; value; unit_ } -> Printf.printf "  %-34s %16.6f %s\n" name value unit_) ms

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
