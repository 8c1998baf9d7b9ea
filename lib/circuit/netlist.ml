type node = Pi of int | Gate of int

type gate = {
  id : int;
  gate_name : string;
  cell : Cell.t;
  fanin : node array;
  wire_load : float;
}

type flat = {
  perm : int array;
  inv_perm : int array;
  lvl_off : int array;
  fi_off : int array;
  fi_node : int array;
  po_node : int array;
  po_base : int;
  fold_slots : int;
  fo_off : int array;
  fo_consumer : int array;
  fo_mult : float array;
  fo_cin : float array;
  g_t_int : float array;
  g_drive : float array;
  g_wire_load : float array;
  g_max_size : float array;
}

type t = {
  name : string;
  pis : string array;
  gates : gate array;
  pos : node array;
  po_names : string array;
  fanout : (int * int) list array;
  mutable bucket_cache : int array array option;
      (* per-level gate-id buckets, computed once per netlist on first
         use (the topology never changes after [Builder.build]) *)
  mutable flat_cache : flat option;
      (* flat CSR topology view for the structure-of-arrays timing
         engines, same once-per-netlist lifecycle as [bucket_cache] *)
}

module Builder = struct
  type netlist = t

  type t = {
    mutable bname : string;
    mutable rev_pis : string list;
    mutable n_pi : int;
    pi_seen : (string, unit) Hashtbl.t;
    mutable rev_gates : gate list;
    mutable n_gate : int;
    mutable rev_pos : (node * string) list;
  }

  let create ?(name = "circuit") () =
    {
      bname = name;
      rev_pis = [];
      n_pi = 0;
      pi_seen = Hashtbl.create 16;
      rev_gates = [];
      n_gate = 0;
      rev_pos = [];
    }

  let add_pi b name =
    if Hashtbl.mem b.pi_seen name then
      invalid_arg ("Netlist.Builder.add_pi: duplicate input " ^ name);
    Hashtbl.add b.pi_seen name ();
    let id = b.n_pi in
    b.rev_pis <- name :: b.rev_pis;
    b.n_pi <- id + 1;
    Pi id

  let node_exists b = function
    | Pi i -> i >= 0 && i < b.n_pi
    | Gate i -> i >= 0 && i < b.n_gate

  let add_gate b ?name ?(wire_load = 1.0) ~cell fanin =
    let fanin = Array.of_list fanin in
    if Array.length fanin <> cell.Cell.n_inputs then
      invalid_arg
        (Printf.sprintf "Netlist.Builder.add_gate: cell %s expects %d inputs, got %d"
           cell.Cell.name cell.Cell.n_inputs (Array.length fanin));
    Array.iter
      (fun n ->
        if not (node_exists b n) then
          invalid_arg "Netlist.Builder.add_gate: fanin node does not exist")
      fanin;
    if wire_load < 0. then invalid_arg "Netlist.Builder.add_gate: negative wire load";
    let id = b.n_gate in
    let gate_name =
      match name with Some n -> n | None -> Printf.sprintf "g%d" id
    in
    b.rev_gates <- { id; gate_name; cell; fanin; wire_load } :: b.rev_gates;
    b.n_gate <- id + 1;
    Gate id

  let mark_po b ?name node =
    if not (node_exists b node) then
      invalid_arg "Netlist.Builder.mark_po: node does not exist";
    let name =
      match name with
      | Some n -> n
      | None -> Printf.sprintf "po%d" (List.length b.rev_pos)
    in
    b.rev_pos <- (node, name) :: b.rev_pos

  let build b : netlist =
    if b.rev_pos = [] then invalid_arg "Netlist.Builder.build: no primary output";
    let gates = Array.of_list (List.rev b.rev_gates) in
    let pos_pairs = List.rev b.rev_pos in
    let fanout = Array.make (Array.length gates) [] in
    Array.iter
      (fun g ->
        let seen = Hashtbl.create 4 in
        Array.iter
          (function
            | Pi _ -> ()
            | Gate src ->
                let m = try Hashtbl.find seen src with Not_found -> 0 in
                Hashtbl.replace seen src (m + 1))
          g.fanin;
        Hashtbl.iter (fun src m -> fanout.(src) <- (g.id, m) :: fanout.(src)) seen)
      gates;
    {
      name = b.bname;
      pis = Array.of_list (List.rev b.rev_pis);
      gates;
      pos = Array.of_list (List.map fst pos_pairs);
      po_names = Array.of_list (List.map snd pos_pairs);
      fanout;
      bucket_cache = None;
      flat_cache = None;
    }
end

let name t = t.name
let n_pis t = Array.length t.pis
let n_gates t = Array.length t.gates
let n_pos t = Array.length t.pos
let gate t i = t.gates.(i)
let gates t = t.gates
let pi_name t i = t.pis.(i)
let pos t = t.pos
let po_name t i = t.po_names.(i)
let fanout t i = t.fanout.(i)

let load t ~sizes g =
  List.fold_left
    (fun acc (consumer, mult) ->
      let c = t.gates.(consumer) in
      acc +. (float_of_int mult *. Cell.input_cap c.cell ~size:sizes.(consumer)))
    t.gates.(g).wire_load t.fanout.(g)

let area t ~sizes =
  let acc = ref 0. in
  Array.iter
    (fun g -> acc := !acc +. (g.cell.Cell.area *. sizes.(g.id)))
    t.gates;
  !acc

let min_sizes t = Array.make (n_gates t) 1.

let max_sizes t = Array.map (fun g -> g.cell.Cell.max_size) t.gates

let check_sizes t sizes =
  if Array.length sizes <> n_gates t then
    invalid_arg "Netlist.check_sizes: dimension mismatch";
  Array.iter
    (fun g ->
      let s = sizes.(g.id) in
      if s < 1. -. 1e-9 || s > g.cell.Cell.max_size +. 1e-9 then
        invalid_arg
          (Printf.sprintf "Netlist.check_sizes: size %g of gate %s outside [1, %g]" s
             g.gate_name g.cell.Cell.max_size))
    t.gates

let levels t =
  let lvl = Array.make (n_gates t) 0 in
  Array.iter
    (fun g ->
      let m =
        Array.fold_left
          (fun acc -> function Pi _ -> acc | Gate i -> max acc lvl.(i))
          0 g.fanin
      in
      lvl.(g.id) <- m + 1)
    t.gates;
  lvl

let depth t = if n_gates t = 0 then 0 else Array.fold_left max 0 (levels t)

(* Level buckets (ascending-id iteration keeps every bucket sorted by
   gate id). *)
let compute_buckets t =
  let lvl = levels t in
  let d = Array.fold_left max 0 lvl in
  let counts = Array.make d 0 in
  Array.iter (fun l -> counts.(l - 1) <- counts.(l - 1) + 1) lvl;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make d 0 in
  Array.iteri
    (fun id l ->
      buckets.(l - 1).(fill.(l - 1)) <- id;
      fill.(l - 1) <- fill.(l - 1) + 1)
    lvl;
  buckets

let level_buckets t =
  match t.bucket_cache with
  | Some b -> b
  | None ->
      let b = compute_buckets t in
      t.bucket_cache <- Some b;
      b

(* Flat CSR encoding of the topology.  Fanin nodes are encoded as ints:
   [Gate g] is [g], [Pi i] is [-i - 1].  Fanout entries preserve the
   order of the [fanout] adjacency lists (fixed at build time), so a
   fold over a CSR row performs the same floating-point accumulation
   order as [load]'s list fold.

   The flat view renumbers the gates level-major: new ids are assigned
   level by level, ascending old id within a level, so each level's
   gates (and their interleaved arrival slots) occupy one contiguous,
   cache-blocked range [lvl_off.(l) .. lvl_off.(l+1) - 1].  [perm] /
   [inv_perm] carry the old<->new mapping; every per-gate column and
   every encoded gate reference in the flat view uses new ids.  The
   renumbering changes no floating-point operation: a gate's fanin and
   fanout rows keep their original within-row order (ids merely
   renamed), gates within a level are independent in the forward sweep,
   and descending-new-id within a level coincides with descending-old-id
   — the boxed reverse sweep's serial scatter order — because the
   permutation is monotone inside each level. *)
let compute_flat t =
  let n = n_gates t in
  let lvl = levels t in
  let d = Array.fold_left max 0 lvl in
  (* lvl_off.(0) = 0 (no gate sits at level 0); after the prefix sum
     lvl_off.(l) is the end of level l's new-id segment, so segment [l]
     (the gates of level l + 1) is [lvl_off.(l) .. lvl_off.(l+1) - 1]. *)
  let lvl_off = Array.make (d + 1) 0 in
  Array.iter (fun l -> lvl_off.(l) <- lvl_off.(l) + 1) lvl;
  for l = 1 to d do
    lvl_off.(l) <- lvl_off.(l) + lvl_off.(l - 1)
  done;
  let perm = Array.make n 0 in
  let inv_perm = Array.make n 0 in
  let fill = Array.sub lvl_off 0 (max 1 d) in
  for g = 0 to n - 1 do
    let l = lvl.(g) - 1 in
    let i = fill.(l) in
    perm.(g) <- i;
    inv_perm.(i) <- g;
    fill.(l) <- i + 1
  done;
  let encode = function Gate g -> perm.(g) | Pi i -> -i - 1 in
  (* Row [i] of a new-id CSR column is old gate [inv_perm.(i)]'s row. *)
  let offsets row_len =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + row_len inv_perm.(i)
    done;
    off
  in
  let fi_off = offsets (fun o -> Array.length t.gates.(o).fanin) in
  let nfi = fi_off.(n) in
  let fi_node = Array.make (max 1 nfi) 0 in
  for i = 0 to n - 1 do
    Array.iteri
      (fun j nd -> fi_node.(fi_off.(i) + j) <- encode nd)
      t.gates.(inv_perm.(i)).fanin
  done;
  let fo_off = offsets (fun o -> List.length t.fanout.(o)) in
  let nfo = fo_off.(n) in
  let fo_consumer = Array.make (max 1 nfo) 0 in
  let fo_mult = Array.make (max 1 nfo) 0. in
  let fo_cin = Array.make (max 1 nfo) 0. in
  for i = 0 to n - 1 do
    List.iteri
      (fun j (consumer, mult) ->
        let k = fo_off.(i) + j in
        fo_consumer.(k) <- perm.(consumer);
        fo_mult.(k) <- float_of_int mult;
        fo_cin.(k) <- t.gates.(consumer).cell.Cell.c_in)
      t.fanout.(inv_perm.(i))
  done;
  let gather f = Array.init n (fun i -> f t.gates.(inv_perm.(i))) in
  {
    perm;
    inv_perm;
    lvl_off;
    fi_off;
    fi_node;
    po_node = Array.map encode t.pos;
    po_base = nfi;
    fold_slots = nfi + Array.length t.pos;
    fo_off;
    fo_consumer;
    fo_mult;
    fo_cin;
    g_t_int = gather (fun g -> g.cell.Cell.t_int);
    g_drive = gather (fun g -> g.cell.Cell.drive);
    g_wire_load = gather (fun g -> g.wire_load);
    g_max_size = gather (fun g -> g.cell.Cell.max_size);
  }

let flat t =
  match t.flat_cache with
  | Some f -> f
  | None ->
      let f = compute_flat t in
      t.flat_cache <- Some f;
      f

type stats = {
  gates_count : int;
  pi_count : int;
  po_count : int;
  depth : int;
  max_fanout : int;
  avg_fanin : float;
}

let stats t =
  let max_fanout =
    Array.fold_left
      (fun acc l -> max acc (List.fold_left (fun a (_, m) -> a + m) 0 l))
      0 t.fanout
  in
  let total_fanin =
    Array.fold_left (fun acc g -> acc + Array.length g.fanin) 0 t.gates
  in
  {
    gates_count = n_gates t;
    pi_count = n_pis t;
    po_count = n_pos t;
    depth = depth t;
    max_fanout;
    avg_fanin =
      (if n_gates t = 0 then 0.
       else float_of_int total_fanin /. float_of_int (n_gates t));
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "gates=%d pis=%d pos=%d depth=%d max_fanout=%d avg_fanin=%.2f" s.gates_count
    s.pi_count s.po_count s.depth s.max_fanout s.avg_fanin

let pp_summary ppf t = Format.fprintf ppf "%s: %a" t.name pp_stats (stats t)
