type error = { line : int; message : string }

let pp_error ppf e = Format.fprintf ppf "cell library: line %d: %s" e.line e.message

exception Error of error

let fail line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

let parse_cell line_no tokens =
  match tokens with
  | [] -> assert false
  | name :: fields ->
      if name = "" then fail line_no "missing cell name";
      let n_inputs = ref None in
      let t_int = ref None in
      let drive = ref None in
      let c_in = ref None in
      let max_size = ref None in
      let area = ref None in
      List.iter
        (fun field ->
          match String.index_opt field '=' with
          | None -> fail line_no "malformed field %S (expected key=value)" field
          | Some i ->
              let key = String.sub field 0 i in
              let value = String.sub field (i + 1) (String.length field - i - 1) in
              let float_value () =
                match float_of_string_opt value with
                | Some v -> v
                | None -> fail line_no "field %s: %S is not a number" key value
              in
              (match key with
              | "inputs" -> (
                  match int_of_string_opt value with
                  | Some v when v > 0 -> n_inputs := Some v
                  | _ -> fail line_no "inputs must be a positive integer, got %S" value)
              | "t_int" -> t_int := Some (float_value ())
              | "drive" -> drive := Some (float_value ())
              | "c_in" -> c_in := Some (float_value ())
              | "limit" -> max_size := Some (float_value ())
              | "area" -> area := Some (float_value ())
              | other -> fail line_no "unknown field %s" other))
        fields;
      let n_inputs =
        match !n_inputs with
        | Some n -> n
        | None -> fail line_no "cell %s: missing inputs=" name
      in
      (try
         Cell.make ?t_int:!t_int ?drive:!drive ?c_in:!c_in ?max_size:!max_size
           ?area:!area ~name ~n_inputs ()
       with Invalid_argument m -> fail line_no "cell %s: %s" name m)

let parse_string text =
  match
    let cells = ref [] in
    List.iteri
      (fun i raw ->
        let line_no = i + 1 in
        let line =
          match String.index_opt raw '#' with
          | Some j -> String.sub raw 0 j
          | None -> raw
        in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun t -> t <> "")
        with
        | [] -> ()
        | "cell" :: rest when rest <> [] -> cells := parse_cell line_no rest :: !cells
        | "cell" :: [] -> fail line_no "cell directive without a name"
        | other :: _ -> fail line_no "unknown directive %s" other)
      (String.split_on_char '\n' text);
    Cell.Library.of_list (List.rev !cells)
  with
  | lib -> Ok lib
  | exception Error e -> Error e
  | exception Invalid_argument m -> Error { line = 0; message = m }

let read_file path =
  match open_in path with
  | exception Sys_error m -> Result.Error m
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> Ok text
      | exception Sys_error m -> Result.Error (path ^ ": " ^ m)
      | exception End_of_file -> Result.Error (path ^ ": truncated read"))

let parse_file path =
  match read_file path with
  | Ok text -> parse_string text
  | Error message -> Error { line = 0; message }

let to_string library =
  let cells =
    List.sort
      (fun (a : Cell.t) b -> compare a.Cell.name b.Cell.name)
      (Cell.Library.cells library)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "# statsize cell library\n";
  List.iter
    (fun (c : Cell.t) ->
      Buffer.add_string buf
        (Printf.sprintf "cell %s inputs=%d t_int=%g drive=%g c_in=%g limit=%g area=%g\n"
           c.Cell.name c.Cell.n_inputs c.Cell.t_int c.Cell.drive c.Cell.c_in
           c.Cell.max_size c.Cell.area))
    cells;
  Buffer.contents buf

let write_file library path =
  let oc = open_out path in
  output_string oc (to_string library);
  close_out oc
