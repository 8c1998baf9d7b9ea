(* Circuit registry with an LRU of warmed engines.

   Netlists are cheap relative to warmed engine state (an Sta.Incr
   engine owns a full arena: ~20 float planes over the gate count), so
   the registry keeps every registered circuit resident forever but
   bounds the number of *warmed* Exec.targets: acquiring a target for a
   cold circuit warms it, evicting the least-recently-used warm entry
   once more than [capacity] would be live.  Committed sizes survive
   eviction (copied back into the entry), so a re-warmed circuit resumes
   from its last sizing — only the engine's cached sweep is lost.

   Single-threaded: owned by the daemon's executor. *)

let evicted_c = Util.Instr.counter "serve.evicted"

type entry = {
  name : string;
  net : Circuit.Netlist.t;
  model : Circuit.Sigma_model.t;
  mutable sizes : float array;  (* committed sizes; survives eviction *)
  breaker : Breaker.t;
  mutable warm : warm option;
}

and warm = { target : Exec.target; mutable last_used : int }

type t = {
  capacity : int;
  pool : Util.Pool.t option;
  entries : (string, entry) Hashtbl.t;
  mutable names : string list;  (* registration order, for listings *)
  mutable clock : int;  (* LRU tick *)
  mutable evictions : int;
}

let create ?pool ~capacity () =
  if capacity < 1 then invalid_arg "Registry.create: capacity < 1";
  {
    capacity;
    pool;
    entries = Hashtbl.create 16;
    names = [];
    clock = 0;
    evictions = 0;
  }

let register ?(breaker = Breaker.default_config) ?now t ~name ~model net =
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Registry.register: duplicate circuit %S" name);
  let entry =
    {
      name;
      net;
      model;
      sizes = Circuit.Netlist.min_sizes net;
      breaker = Breaker.create ?now breaker;
      warm = None;
    }
  in
  Hashtbl.add t.entries name entry;
  t.names <- t.names @ [ name ]

let find t name = Hashtbl.find_opt t.entries name
let names t = t.names
let evictions t = t.evictions

let resident t =
  List.filter (fun n -> (Hashtbl.find t.entries n).warm <> None) t.names

let warm_count t =
  Hashtbl.fold (fun _ e n -> if e.warm = None then n else n + 1) t.entries 0

let evict_entry t e =
  match e.warm with
  | None -> ()
  | Some w ->
      (* Committed sizes live in the target while warm; preserve them. *)
      e.sizes <- Array.copy w.target.Exec.sizes;
      e.warm <- None;
      t.evictions <- t.evictions + 1;
      Util.Instr.incr evicted_c

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e best ->
        match (e.warm, best) with
        | None, _ -> best
        | Some w, None -> Some (e, w.last_used)
        | Some w, Some (_, lu) -> if w.last_used < lu then Some (e, w.last_used) else best)
      t.entries None
  in
  match victim with Some (e, _) -> evict_entry t e | None -> ()

let target t (e : entry) =
  t.clock <- t.clock + 1;
  match e.warm with
  | Some w ->
      w.last_used <- t.clock;
      w.target
  | None ->
      if warm_count t >= t.capacity then evict_lru t;
      let target =
        match t.pool with
        | Some pool -> Exec.create ~pool ~sizes:e.sizes ~model:e.model e.net
        | None -> Exec.create ~sizes:e.sizes ~model:e.model e.net
      in
      e.warm <- Some { target; last_used = t.clock };
      target

let evict t name =
  match Hashtbl.find_opt t.entries name with
  | None -> false
  | Some e ->
      let was_warm = e.warm <> None in
      evict_entry t e;
      was_warm
