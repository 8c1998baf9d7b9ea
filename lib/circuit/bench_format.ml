type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "bench: line %d: %s" e.line e.message

exception Error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

type assign = { target : string; op : string; args : string list }

type statement = Input of string | Output of string | Assign of assign

(* "G10 = NAND(G1, G3)" / "INPUT(G1)" / "OUTPUT(G22)" *)
let parse_line line_no raw =
  let text =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let text = String.trim text in
  if text = "" then None
  else begin
    let call s =
      (* NAME(arg, arg, ...) *)
      match String.index_opt s '(' with
      | None -> fail line_no "expected a call, got %S" s
      | Some open_paren ->
          let close_paren =
            match String.rindex_opt s ')' with
            | Some i when i > open_paren -> i
            | _ -> fail line_no "unbalanced parentheses in %S" s
          in
          let name = String.trim (String.sub s 0 open_paren) in
          let args_text = String.sub s (open_paren + 1) (close_paren - open_paren - 1) in
          let args =
            String.split_on_char ',' args_text
            |> List.map String.trim
            |> List.filter (fun a -> a <> "")
          in
          (name, args)
    in
    match String.index_opt text '=' with
    | Some eq ->
        let target = String.trim (String.sub text 0 eq) in
        let rhs = String.sub text (eq + 1) (String.length text - eq - 1) in
        let op, args = call rhs in
        if target = "" then fail line_no "missing assignment target";
        Some (Assign { target; op = String.uppercase_ascii op; args })
    | None -> (
        let name, args = call text in
        match (String.uppercase_ascii name, args) with
        | "INPUT", [ a ] -> Some (Input a)
        | "OUTPUT", [ a ] -> Some (Output a)
        | ("INPUT" | "OUTPUT"), _ -> fail line_no "INPUT/OUTPUT take one argument"
        | other, _ -> fail line_no "unknown directive %s" other)
  end

let named ~library ~line name =
  match Cell.Library.find library name with
  | Some c -> c
  | None -> fail line "library has no cell %s" name

let sized_cell ~library op arity =
  Cell.Library.find library (Printf.sprintf "%s%d" (String.lowercase_ascii op) arity)

(* Instantiate one .bench operator, decomposing operators wider than any
   library cell into balanced trees: a wide AND/OR becomes a tree of
   2-input cells, a wide NAND/NOR becomes the matching 2-input inverting
   cell fed by AND/OR trees, XOR folds associatively.  The gate that
   drives the result carries [name]; decomposition-internal gates keep
   the builder's [g<id>]. *)
let rec instantiate ~b ~library ~wire_load ~line ?name op fanin =
  let arity = List.length fanin in
  let add cell fanin = Netlist.Builder.add_gate b ?name ~wire_load ~cell fanin in
  let split_reduce reduce_op =
    let k = arity / 2 in
    let left = List.filteri (fun i _ -> i < k) fanin in
    let right = List.filteri (fun i _ -> i >= k) fanin in
    ( instantiate ~b ~library ~wire_load ~line reduce_op left,
      instantiate ~b ~library ~wire_load ~line reduce_op right )
  in
  match (op, arity) with
  | _, 0 -> fail line "%s with no inputs" op
  | ("AND" | "OR"), 1 -> List.hd fanin
  | "NOT", 1 -> add (named ~library ~line "inv") fanin
  | ("BUFF" | "BUF"), 1 -> add (named ~library ~line "buf") fanin
  | ("AND" | "OR" | "NAND" | "NOR" | "XOR"), n when n >= 2 -> (
      match sized_cell ~library op n with
      | Some cell -> add cell fanin
      | None -> (
          match op with
          | "AND" | "OR" ->
              let l, r = split_reduce op in
              add (named ~library ~line (String.lowercase_ascii op ^ "2")) [ l; r ]
          | "NAND" | "NOR" ->
              let reduce_op = if op = "NAND" then "AND" else "OR" in
              let l, r = split_reduce reduce_op in
              add (named ~library ~line (String.lowercase_ascii op ^ "2")) [ l; r ]
          | "XOR" ->
              let cell = named ~library ~line "xor2" in
              let rec chain acc = function
                | [ x ] -> add cell [ acc; x ]
                | x :: rest ->
                    chain (Netlist.Builder.add_gate b ~wire_load ~cell [ acc; x ]) rest
                | [] -> acc
              in
              chain (List.hd fanin) (List.tl fanin)
          | _ -> assert false))
  | _ -> fail line "unsupported operator %s with %d inputs" op arity

let build ?(wire_load = 1.0) ~library text =
  let statements =
    String.split_on_char '\n' text
    |> List.mapi (fun i raw ->
           Option.map (fun s -> (i + 1, s)) (parse_line (i + 1) raw))
    |> List.filter_map Fun.id
  in
  let b = Netlist.Builder.create ~name:"bench" () in
  let net_node : (string, Netlist.node) Hashtbl.t = Hashtbl.create 64 in
  (* Every net has exactly one driver: an INPUT, a DFF or an assignment.
     [driver] records, per driven net, whether that driver is an INPUT. *)
  let driver : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let drive line ~input net =
    match Hashtbl.find_opt driver net with
    | Some true when input -> fail line "duplicate INPUT %s" net
    | Some _ -> fail line "net %s driven twice" net
    | None -> Hashtbl.add driver net input
  in
  (* Pass 1: drivers; primary inputs, and DFF outputs as pseudo-inputs. *)
  List.iter
    (fun (line, s) ->
      match s with
      | Input name ->
          drive line ~input:true name;
          Hashtbl.replace net_node name (Netlist.Builder.add_pi b name)
      | Assign { target; op = "DFF"; args } ->
          if List.length args <> 1 then fail line "DFF takes one input";
          drive line ~input:false target;
          Hashtbl.replace net_node target (Netlist.Builder.add_pi b (target ^ "_ff"))
      | Assign { target; _ } -> drive line ~input:false target
      | Output _ -> ())
    statements;
  (* Pass 2: combinational assignments in dependency order (worklist: keep
     instantiating the assignments whose arguments are all defined). *)
  let remaining =
    ref
      (List.filter_map
         (function
           | line, Assign ({ op; _ } as a) when op <> "DFF" -> Some (line, a)
           | _ -> None)
         statements)
  in
  let stuck = ref false in
  while !remaining <> [] && not !stuck do
    let ready, blocked =
      List.partition
        (fun (_, { args; _ }) -> List.for_all (Hashtbl.mem net_node) args)
        !remaining
    in
    if ready = [] then stuck := true
    else begin
      List.iter
        (fun (line, { target; op; args }) ->
          let fanin = List.map (Hashtbl.find net_node) args in
          Hashtbl.replace net_node target
            (instantiate ~b ~library ~wire_load ~line ~name:target op fanin))
        ready;
      remaining := blocked
    end
  done;
  if !stuck then fail 0 "combinational cycle or undriven net in .bench file";
  (* Pass 3: primary outputs, and DFF data inputs as pseudo-outputs. *)
  List.iter
    (fun (line, s) ->
      let mark net label =
        match Hashtbl.find_opt net_node net with
        | Some n -> Netlist.Builder.mark_po b ~name:label n
        | None -> fail line "output %s is not driven" net
      in
      match s with
      | Output name -> mark name name
      | Assign { target; op = "DFF"; args = [ d ] } -> mark d (target ^ "_d")
      | Input _ | Assign _ -> ())
    statements;
  Netlist.Builder.build b

let parse_string ?wire_load ~library text =
  match build ?wire_load ~library text with
  | netlist -> Ok netlist
  | exception Error e -> Error e
  | exception Invalid_argument m -> Error { line = 0; message = m }

let parse_file ?wire_load ~library path =
  match Cell_file.read_file path with
  | Ok text -> parse_string ?wire_load ~library text
  | Error message -> Error { line = 0; message }
