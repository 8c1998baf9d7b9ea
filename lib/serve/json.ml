(* Minimal self-contained JSON for the line-oriented serve protocol.

   The repo bakes in no JSON dependency, and the protocol needs exact
   float round-trips (responses are compared bit-for-bit against batch
   evaluations), so this module owns both number conversions:
   - printing: Ryu (Adams, "Ryū: fast float-to-string conversion",
     PLDI 2018) finds the shortest decimal that reads back as the same
     double, written in %g layout straight into the output buffer;
   - reading: one scanner checks the RFC 8259 number grammar in place
     and converts correctly rounded: Clinger's exact fast path, else
     [float_of_string] on the scanned span. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Floats of float array
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- Ryu tables --------------------------------------------------------------- *)

(* The decimal conversion multiplies the binary significand by a
   125-bit approximation of 5^±q, kept as five 30-bit limbs so every
   partial product fits a native int:
   - [pow5] entry i is 5^i truncated to its top 125 bits;
   - [pow5_inv] entry q is floor (2^(bits(5^q) - 1 + 125) / 5^q) + 1.
   Both are built once from exact big-integer arithmetic. *)

let limb = 30
let mask = (1 lsl limb) - 1
let width = 5
let pow5bits e = ((e * 1217359) lsr 19) + 1
let log10_pow2 e = (e * 78913) lsr 18
let log10_pow5 e = (e * 732923) lsr 20

let pow5, pow5_inv =
  (* Big integers: little-endian 30-bit limbs, 1020 bits. *)
  let big () = Array.make 34 0 in
  let bits_from x p =
    (* 30 bits of [x] from bit [p] up; bits below 0 read as zero. *)
    let get i = if i >= 0 && i < Array.length x then x.(i) else 0 in
    if p >= 0 then ((get (p / limb) lsr (p mod limb)) lor (get ((p / limb) + 1) lsl (limb - (p mod limb)))) land mask
    else if p > -limb then (get 0 lsl -p) land mask
    else 0
  in
  let store tbl k x lo =
    for l = 0 to width - 1 do
      tbl.((k * width) + l) <- bits_from x (lo + (l * limb))
    done
  in
  let p = big () in
  p.(0) <- 1;
  let pow5 = Array.make (326 * width) 0 in
  for i = 0 to 325 do
    store pow5 i p (pow5bits i - 125);
    let carry = ref 0 in
    Array.iteri
      (fun k v ->
        let v = (v * 5) + !carry in
        p.(k) <- v land mask;
        carry := v lsr limb)
      p
  done;
  (* x = floor (2^1000 / 5^q), one exact division by 5 per step. *)
  let x = big () in
  x.(1000 / limb) <- 1 lsl (1000 mod limb);
  let inv = Array.make (342 * width) 0 in
  for q = 0 to 341 do
    store inv q x (1000 - (pow5bits q - 1 + 125));
    let k = ref (q * width) in
    inv.(!k) <- inv.(!k) + 1;
    while inv.(!k) > mask do
      inv.(!k) <- inv.(!k) land mask;
      incr k;
      inv.(!k) <- inv.(!k) + 1
    done;
    let rem = ref 0 in
    for k = Array.length x - 1 downto 0 do
      let v = (!rem lsl limb) lor x.(k) in
      x.(k) <- v / 5;
      rem := v mod 5
    done
  done;
  (pow5, inv)

(* floor (m * T / 2^j) for the table entry T at [tbl.(off)], m < 2^60.
   Ryu's shifts for doubles lie in [118, 125] with m < 2^56, which
   keeps the result below 2^62. *)
let mul_shift m tbl off j =
  let m0 = m land mask and m1 = m lsr limb in
  let t0 = Array.unsafe_get tbl off
  and t1 = Array.unsafe_get tbl (off + 1)
  and t2 = Array.unsafe_get tbl (off + 2)
  and t3 = Array.unsafe_get tbl (off + 3)
  and t4 = Array.unsafe_get tbl (off + 4) in
  let c0 = m0 * t0 in
  let c1 = (m0 * t1) + (m1 * t0) + (c0 lsr limb) in
  let c2 = (m0 * t2) + (m1 * t1) + (c1 lsr limb) in
  let c3 = (m0 * t3) + (m1 * t2) + (c2 lsr limb) in
  let c4 = (m0 * t4) + (m1 * t3) + (c3 lsr limb) in
  let c5 = (m1 * t4) + (c4 lsr limb) in
  if j >= 120 then
    let r = j - 120 in
    ((c4 land mask) lsr r) lor (c5 lsl (limb - r))
  else
    let r = j - 90 in
    ((c3 land mask) lsr r) lor ((c4 land mask) lsl (limb - r)) lor (c5 lsl ((2 * limb) - r))

let rec pow5_factor v = if v mod 5 <> 0 then 0 else 1 + pow5_factor (v / 5)

(* Ryu's d2d: the shortest decimal [digits * 10^exp] inside the rounding
   interval of the positive finite double with biased exponent [ieee_e]
   and stored mantissa [ieee_m], closest to it (ties to even).  Returns
   [digits], leaving the exponent in [exp_out]. *)
let shortest ieee_m ieee_e exp_out =
  let e2, m2 =
    if ieee_e = 0 then (1 - 1023 - 52 - 2, ieee_m)
    else (ieee_e - 1023 - 52 - 2, ieee_m lor (1 lsl 52))
  in
  let accept_bounds = m2 land 1 = 0 in
  let mv = 4 * m2 in
  let mm_shift = if ieee_m <> 0 || ieee_e <= 1 then 1 else 0 in
  let mp = mv + 2 and mm = mv - 1 - mm_shift in
  let vr = ref 0 and vp = ref 0 and vm = ref 0 and e10 = ref 0 in
  let vm_tz = ref false and vr_tz = ref false in
  if e2 >= 0 then begin
    let q = log10_pow2 e2 - if e2 > 3 then 1 else 0 in
    let j = -e2 + q + 124 + pow5bits q and off = q * width in
    e10 := q;
    vr := mul_shift mv pow5_inv off j;
    vp := mul_shift mp pow5_inv off j;
    vm := mul_shift mm pow5_inv off j;
    if q <= 21 then
      if mv mod 5 = 0 then vr_tz := pow5_factor mv >= q
      else if accept_bounds then vm_tz := pow5_factor mm >= q
      else if pow5_factor mp >= q then decr vp
  end
  else begin
    let q = log10_pow5 (-e2) - if -e2 > 1 then 1 else 0 in
    let i = -e2 - q in
    let j = q - pow5bits i + 125 and off = i * width in
    e10 := q + e2;
    vr := mul_shift mv pow5 off j;
    vp := mul_shift mp pow5 off j;
    vm := mul_shift mm pow5 off j;
    if q <= 1 then begin
      vr_tz := true;
      if accept_bounds then vm_tz := mm_shift = 1 else decr vp
    end
    else if q < 62 then vr_tz := mv land ((1 lsl q) - 1) = 0
  end;
  (* Drop digits while the interval still holds a shorter decimal. *)
  let removed = ref 0 and last = ref 0 in
  while !vp / 10 > !vm / 10 do
    vm_tz := !vm_tz && !vm mod 10 = 0;
    vr_tz := !vr_tz && !last = 0;
    last := !vr mod 10;
    vr := !vr / 10;
    vp := !vp / 10;
    vm := !vm / 10;
    incr removed
  done;
  if !vm_tz then
    while !vm mod 10 = 0 do
      vr_tz := !vr_tz && !last = 0;
      last := !vr mod 10;
      vr := !vr / 10;
      vp := !vp / 10;
      vm := !vm / 10;
      incr removed
    done;
  if !vr_tz && !last = 5 && !vr land 1 = 0 then last := 4;
  exp_out := !e10 + !removed;
  if (!vr = !vm && ((not accept_bounds) || not !vm_tz)) || !last >= 5 then !vr + 1
  else !vr

(* ---- printing ------------------------------------------------------------------ *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let decimal_length v =
  let n = ref 1 and p = ref 10 in
  while v >= !p do
    incr n;
    p := !p * 10
  done;
  !n

(* Writes the [n] digits of [v] into [s] from [i], with a '.' after the
   first [dot] of them when [dot < n]; returns the index past the end. *)
let put_digits s i v n dot =
  let v = ref v in
  for k = n - 1 downto 0 do
    Bytes.unsafe_set s (if k >= dot then i + k + 1 else i + k) (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  if dot < n then begin
    Bytes.unsafe_set s (i + dot) '.';
    i + n + 1
  end
  else i + n

(* Integral values below 1e15 print as integers ("7", "-0"); any other
   finite double prints its shortest round-trip digits in the layout
   C's %.<P>g gives them with P = max 15 digits: exponent form iff the
   decimal exponent x is < -4 or >= P, an exponent of at least two
   digits.  Wherever %.15g/%.16g/%.17g already found the shortest
   spelling, the bytes are the same. *)
let add_number b f =
  if f <> f then Buffer.add_string b "\"nan\""
  else if f = Float.infinity then Buffer.add_string b "\"inf\""
  else if f = Float.neg_infinity then Buffer.add_string b "\"-inf\""
  else begin
    let s = Bytes.create 24 in
    let bits = Int64.bits_of_float f in
    let i = if Int64.compare bits 0L < 0 then (Bytes.unsafe_set s 0 '-'; 1) else 0 in
    let a = Float.abs f in
    let stop =
      if a < 1e15 && Float.of_int (truncate a) = a then
        let v = truncate a in
        let n = decimal_length v in
        put_digits s i v n n
      else begin
        let exp = ref 0 in
        let v =
          ref
            (shortest
               (Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL))
               (Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF)
               exp)
        in
        (* %g never prints trailing zeros. *)
        while !v mod 10 = 0 do
          v := !v / 10;
          incr exp
        done;
        let n = decimal_length !v in
        let x = !exp + n - 1 in
        if x < -4 || x >= max 15 n then begin
          let i = put_digits s i !v n 1 in
          Bytes.unsafe_set s i 'e';
          Bytes.unsafe_set s (i + 1) (if x < 0 then '-' else '+');
          let a = abs x in
          let n = max 2 (decimal_length a) in
          put_digits s (i + 2) a n n
        end
        else if x >= 0 then
          (* An integral value here is >= 1e15, so x >= 15 and n = x + 1:
             its digits never need zero padding. *)
          put_digits s i !v n (x + 1)
        else begin
          Bytes.blit_string "0.000" 0 s i (1 - x);
          put_digits s (i + 1 - x) !v n n
        end
      end
    in
    Buffer.add_subbytes b s 0 stop
  end

let number_to_string f =
  let b = Buffer.create 24 in
  add_number b f;
  Buffer.contents b

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_number b f
  | Floats a ->
      Buffer.add_char b '[';
      Array.iteri
        (fun i f ->
          if i > 0 then Buffer.add_char b ',';
          add_number b f)
        a;
      Buffer.add_char b ']'
  | Str s ->
      Buffer.add_char b '"';
      escape_into b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          write b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_into b k;
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parsing ------------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { text : string; mutable pos : int }

(* The byte under the cursor, '\000' past the end: no JSON token starts
   with a NUL byte, so callers treat it as "no valid continuation". *)
let peek c = if c.pos < String.length c.text then String.unsafe_get c.text c.pos else '\000'

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    advance c
  done

let expect c ch =
  if peek c = ch then advance c
  else if c.pos >= String.length c.text then
    parse_error "expected %c at offset %d, got end of input" ch c.pos
  else parse_error "expected %c at offset %d, got %c" ch c.pos (peek c)

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "bad literal at offset %d" c.pos

let hex4 c =
  if c.pos + 4 > String.length c.text then parse_error "truncated \\u escape";
  let v = ref 0 in
  for k = c.pos to c.pos + 3 do
    let d =
      match String.unsafe_get c.text k with
      | '0' .. '9' as h -> Char.code h - 48
      | 'a' .. 'f' as h -> Char.code h - 87
      | 'A' .. 'F' as h -> Char.code h - 55
      | _ -> parse_error "bad \\u escape %S" (String.sub c.text c.pos 4)
    in
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

(* A \u escape (its "\u" already consumed); a UTF-16 surrogate pair
   decodes to one code point, a lone surrogate is an error. *)
let parse_unicode_escape c =
  let hi = hex4 c in
  if hi >= 0xDC00 && hi <= 0xDFFF then parse_error "lone low surrogate \\u%04x" hi
  else if hi >= 0xD800 && hi <= 0xDBFF then begin
    if not (c.pos + 2 <= String.length c.text && c.text.[c.pos] = '\\' && c.text.[c.pos + 1] = 'u')
    then parse_error "lone high surrogate \\u%04x" hi;
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if lo < 0xDC00 || lo > 0xDFFF then parse_error "lone high surrogate \\u%04x" hi;
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else hi

let parse_string_body c =
  let text = c.text and len = String.length c.text in
  let run_end i =
    let i = ref i in
    while !i < len && (match String.unsafe_get text !i with '"' | '\\' -> false | _ -> true) do
      incr i
    done;
    !i
  in
  let start = c.pos in
  let stop = run_end start in
  if stop < len && text.[stop] = '"' then begin
    (* No escapes: the common case, one copy. *)
    c.pos <- stop + 1;
    String.sub text start (stop - start)
  end
  else begin
    let b = Buffer.create (stop - start + 16) in
    Buffer.add_substring b text start (stop - start);
    c.pos <- stop;
    let rec go () =
      if c.pos >= len then parse_error "unterminated string"
      else
        match text.[c.pos] with
        | '"' ->
            advance c;
            Buffer.contents b
        | _ ->
            (* a backslash *)
            advance c;
            if c.pos >= len then parse_error "unterminated escape";
            let e = text.[c.pos] in
            advance c;
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (parse_unicode_escape c))
            | e -> parse_error "bad escape \\%c" e);
            let stop = run_end c.pos in
            Buffer.add_substring b text c.pos (stop - c.pos);
            c.pos <- stop;
            go ()
    in
    go ()
  end

(* Exact powers of ten: every 10^k with k <= 22 is a double. *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* One pass over RFC 8259's number: minus?, int (0 or a nonzero digit
   then digits), frac ('.' digits)?, exp ([eE] sign? digits)?.  The
   digits accumulate into an integer [w] with a decimal scale.  When
   [w] <= 2^53 and the scale is within +-22 both factors are exact
   doubles and one IEEE operation rounds correctly (Clinger's fast
   path); any other number converts the scanned span with
   [float_of_string]. *)
let parse_number c =
  let text = c.text and len = String.length c.text in
  let start = c.pos in
  let i = ref start in
  let neg = !i < len && String.unsafe_get text !i = '-' in
  if neg then incr i;
  if not (!i < len && is_digit (String.unsafe_get text !i)) then
    parse_error "bad number at offset %d" start;
  if String.unsafe_get text !i = '0' && !i + 1 < len && is_digit (String.unsafe_get text (!i + 1))
  then parse_error "leading zero in number at offset %d" start;
  (* [nd] counts digits from the first nonzero one; [w] holds at most
     18 of them, so it never overflows. *)
  let w = ref 0 and nd = ref 0 and scale = ref 0 in
  while !i < len && is_digit (String.unsafe_get text !i) do
    if !nd < 18 then begin
      w := (!w * 10) + Char.code (String.unsafe_get text !i) - 48;
      if !w > 0 then incr nd
    end
    else nd := 19;
    incr i
  done;
  if !i < len && String.unsafe_get text !i = '.' then begin
    incr i;
    if not (!i < len && is_digit (String.unsafe_get text !i)) then
      parse_error "bad fraction in number at offset %d" start;
    while !i < len && is_digit (String.unsafe_get text !i) do
      if !nd < 18 then begin
        w := (!w * 10) + Char.code (String.unsafe_get text !i) - 48;
        if !w > 0 then incr nd;
        decr scale
      end
      else nd := 19;
      incr i
    done
  end;
  if !i < len && (String.unsafe_get text !i = 'e' || String.unsafe_get text !i = 'E') then begin
    incr i;
    let eneg = !i < len && String.unsafe_get text !i = '-' in
    if !i < len && (eneg || String.unsafe_get text !i = '+') then incr i;
    if not (!i < len && is_digit (String.unsafe_get text !i)) then
      parse_error "bad exponent in number at offset %d" start;
    let e = ref 0 in
    while !i < len && is_digit (String.unsafe_get text !i) do
      if !e < 100_000 then e := (!e * 10) + Char.code (String.unsafe_get text !i) - 48;
      incr i
    done;
    scale := if eneg then !scale - !e else !scale + !e
  end;
  c.pos <- !i;
  if !nd <= 18 && !w <= 1 lsl 53 && !scale >= -22 && !scale <= 22 then begin
    let x =
      if !scale >= 0 then float_of_int !w *. pow10.(!scale)
      else float_of_int !w /. pow10.(- !scale)
    in
    if neg then -.x else x
  end
  else float_of_string (String.sub text start (!i - start))

let starts_number = function '-' | '0' .. '9' -> true | _ -> false

let rec parse_value c =
  skip_ws c;
  match peek c with
  | 'n' -> parse_literal c "null" Null
  | 't' -> parse_literal c "true" (Bool true)
  | 'f' -> parse_literal c "false" (Bool false)
  | '"' ->
      advance c;
      Str (parse_string_body c)
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else if starts_number (peek c) then parse_numbers c
      else parse_items c []
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | ',' ->
              advance c;
              fields (kv :: acc)
          | '}' ->
              advance c;
              Obj (List.rev (kv :: acc))
          | _ -> parse_error "expected , or } at offset %d" c.pos
        in
        fields []
  | ch when starts_number ch -> Num (parse_number c)
  | _ when c.pos >= String.length c.text -> parse_error "unexpected end of input"
  | ch -> parse_error "unexpected %C at offset %d" ch c.pos

(* The rest of an array whose elements so far are [acc], reversed. *)
and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      parse_items c (v :: acc)
  | ']' ->
      advance c;
      List (List.rev (v :: acc))
  | _ -> parse_error "expected , or ] at offset %d" c.pos

(* An array opening with a number reads into a flat float array; the
   first non-number element turns it back into a [List]. *)
and parse_numbers c =
  let buf = ref (Array.make 16 0.) and n = ref 0 in
  let rec go () =
    let x = parse_number c in
    if !n = Array.length !buf then begin
      let grown = Array.make (2 * !n) 0. in
      Array.blit !buf 0 grown 0 !n;
      buf := grown
    end;
    Array.unsafe_set !buf !n x;
    incr n;
    skip_ws c;
    match peek c with
    | ',' ->
        advance c;
        skip_ws c;
        if starts_number (peek c) then go ()
        else parse_items c (List.init !n (fun k -> Num !buf.(!n - 1 - k)))
    | ']' ->
        advance c;
        Floats (Array.sub !buf 0 !n)
    | _ -> parse_error "expected , or ] at offset %d" c.pos
  in
  go ()

let parse text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length text then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ----------------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_ = function
  | Num f when Float.is_integer f && Float.abs f <= 4.611686018427388e18 ->
      Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None

let list_ = function
  | List l -> Some l
  | Floats a -> Some (Array.to_list (Array.map (fun f -> Num f) a))
  | _ -> None

let floats = function
  | Floats a -> Some a
  | List l -> (
      try Some (Array.of_list (List.map (function Num f -> f | _ -> raise Exit) l))
      with Exit -> None)
  | _ -> None
