type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "blif: line %d: %s" e.line e.message

exception Error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

(* A raw .gate statement before net resolution. *)
type raw_gate = {
  line : int;
  cell_name : string;
  input_nets : string list;
  output_net : string;
}

type statements = {
  model : string;
  inputs : string list;
  outputs : string list;
  raw_gates : raw_gate list;
}

(* Strip comments, join continuation lines, split into (line_no, tokens). *)
let logical_lines text =
  let physical = String.split_on_char '\n' text in
  let rec join acc pending pending_line no = function
    | [] ->
        let acc = match pending with Some p -> (pending_line, p) :: acc | None -> acc in
        List.rev acc
    | raw :: rest ->
        let no = no + 1 in
        let line =
          match String.index_opt raw '#' with
          | Some i -> String.sub raw 0 i
          | None -> raw
        in
        let line = String.trim line in
        let continued = String.length line > 0 && line.[String.length line - 1] = '\\' in
        let body = if continued then String.sub line 0 (String.length line - 1) else line in
        let merged, merged_line =
          match pending with
          | Some p -> (p ^ " " ^ body, pending_line)
          | None -> (body, no)
        in
        if continued then join acc (Some merged) merged_line no rest
        else if String.trim merged = "" then join acc None 0 no rest
        else join ((merged_line, merged) :: acc) None 0 no rest
  in
  join [] None 0 0 physical

let tokens_of line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let split_pair line tok =
  match String.index_opt tok '=' with
  | Some i ->
      ( String.sub tok 0 i,
        String.sub tok (i + 1) (String.length tok - i - 1) )
  | None -> fail line "malformed pin binding %S (expected formal=actual)" tok

let parse_statements text =
  let model = ref None in
  let inputs = ref [] in
  let outputs = ref [] in
  let raw_gates = ref [] in
  let ended = ref false in
  List.iter
    (fun (line, content) ->
      if not !ended then
        match tokens_of content with
        | [] -> ()
        | ".model" :: rest ->
            if !model <> None then fail line "duplicate .model";
            model := Some (match rest with n :: _ -> n | [] -> "blif")
        | ".inputs" :: rest -> inputs := !inputs @ rest
        | ".outputs" :: rest -> outputs := !outputs @ rest
        | ".gate" :: cell_name :: pins ->
            let pairs = List.map (split_pair line) pins in
            (match List.rev pairs with
            | (_, output_net) :: rev_inputs ->
                let input_nets = List.rev_map snd rev_inputs in
                raw_gates := { line; cell_name; input_nets; output_net } :: !raw_gates
            | [] -> fail line ".gate with no pins")
        | ".gate" :: [] -> fail line ".gate with no cell name"
        | ".end" :: _ -> ended := true
        | directive :: _ when directive.[0] = '.' ->
            fail line "unsupported directive %s" directive
        | _ -> fail line "unexpected tokens %S" content)
    (logical_lines text);
  {
    model = (match !model with Some m -> m | None -> "blif");
    inputs = !inputs;
    outputs = !outputs;
    raw_gates = List.rev !raw_gates;
  }

(* Order gates so that every fanin net is defined before use (Kahn). *)
let topo_order stmts =
  let is_pi = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace is_pi n ()) stmts.inputs;
  let defined_by = Hashtbl.create 64 in
  List.iteri
    (fun i (g : raw_gate) ->
      if Hashtbl.mem defined_by g.output_net || Hashtbl.mem is_pi g.output_net then
        fail g.line "net %s driven twice" g.output_net;
      Hashtbl.add defined_by g.output_net i)
    stmts.raw_gates;
  let gates = Array.of_list stmts.raw_gates in
  let n = Array.length gates in
  let indeg = Array.make n 0 in
  let consumers = Array.make n [] in
  Array.iteri
    (fun i g ->
      List.iter
        (fun net ->
          if not (Hashtbl.mem is_pi net) then
            match Hashtbl.find_opt defined_by net with
            | Some src ->
                indeg.(i) <- indeg.(i) + 1;
                consumers.(src) <- i :: consumers.(src)
            | None -> fail g.line "undriven net %s" net)
        g.input_nets)
    gates;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr seen;
    order := i :: !order;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      consumers.(i)
  done;
  if !seen <> n then fail 0 "combinational cycle in netlist";
  List.rev_map (fun i -> gates.(i)) !order

let build ?(wire_load = 1.0) ~library stmts =
  let b = Netlist.Builder.create ~name:stmts.model () in
  let net_node : (string, Netlist.node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun pi -> Hashtbl.replace net_node pi (Netlist.Builder.add_pi b pi))
    stmts.inputs;
  List.iter
    (fun (g : raw_gate) ->
      let cell =
        match Cell.Library.find library g.cell_name with
        | Some c -> c
        | None -> fail g.line "unknown cell %s" g.cell_name
      in
      if List.length g.input_nets <> cell.Cell.n_inputs then
        fail g.line "cell %s expects %d inputs, got %d" g.cell_name cell.Cell.n_inputs
          (List.length g.input_nets);
      let fanin =
        List.map
          (fun net ->
            match Hashtbl.find_opt net_node net with
            | Some n -> n
            | None -> fail g.line "undriven net %s" net)
          g.input_nets
      in
      let node = Netlist.Builder.add_gate b ~name:g.output_net ~wire_load ~cell fanin in
      Hashtbl.replace net_node g.output_net node)
    (topo_order stmts);
  List.iter
    (fun out ->
      match Hashtbl.find_opt net_node out with
      | Some n -> Netlist.Builder.mark_po b ~name:out n
      | None -> fail 0 "output %s is not driven" out)
    stmts.outputs;
  Netlist.Builder.build b

let parse_string ?wire_load ~library text =
  match build ?wire_load ~library (parse_statements text) with
  | netlist -> Ok netlist
  | exception Error e -> Error e
  | exception Invalid_argument m -> Error { line = 0; message = m }

let parse_file ?wire_load ~library path =
  match Cell_file.read_file path with
  | Ok text -> parse_string ?wire_load ~library text
  | Error message -> Error { line = 0; message }

let to_string netlist =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Netlist.name netlist));
  Buffer.add_string buf ".inputs";
  for i = 0 to Netlist.n_pis netlist - 1 do
    Buffer.add_string buf (" " ^ Netlist.pi_name netlist i)
  done;
  Buffer.add_char buf '\n';
  (* Gate output nets are synthesised as [n<id>]; if a primary input
     already uses such a name (ISCAS netlists name PIs n1, n2, ...),
     underscores are appended until the name is fresh — otherwise the
     reparsed netlist would silently rewire those PIs. *)
  let pi_names = Hashtbl.create 16 in
  for i = 0 to Netlist.n_pis netlist - 1 do
    Hashtbl.replace pi_names (Netlist.pi_name netlist i) ()
  done;
  let gate_net =
    Array.init (Netlist.n_gates netlist) (fun g ->
        let rec fresh name =
          if Hashtbl.mem pi_names name then fresh (name ^ "_") else name
        in
        fresh (Printf.sprintf "n%d" g))
  in
  let net_of = function
    | Netlist.Pi i -> Netlist.pi_name netlist i
    | Netlist.Gate g -> gate_net.(g)
  in
  Buffer.add_string buf ".outputs";
  Array.iter (fun po -> Buffer.add_string buf (" " ^ net_of po)) (Netlist.pos netlist);
  Buffer.add_char buf '\n';
  Array.iter
    (fun (g : Netlist.gate) ->
      Buffer.add_string buf (Printf.sprintf ".gate %s" g.Netlist.cell.Cell.name);
      Array.iteri
        (fun pin fan -> Buffer.add_string buf (Printf.sprintf " i%d=%s" pin (net_of fan)))
        g.Netlist.fanin;
      Buffer.add_string buf (Printf.sprintf " O=%s\n" gate_net.(g.Netlist.id)))
    (Netlist.gates netlist);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file netlist path =
  let oc = open_out path in
  output_string oc (to_string netlist);
  close_out oc
