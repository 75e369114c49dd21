type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One canonical float format, the same bytes every run (golden files
   depend on this). An integral double below 1e17 prints exactly as
   "%.1f"; any other as the shortest of 15, 16 or 17 significant digits
   that reads back as the same double. Either way the text has a point
   or an exponent, so it parses back as a Float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e17 then Printf.sprintf "%.1f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | String s -> escape buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        render buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        render buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  render buf t;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------- *)

exception Fail of int * string

(* Deeper nesting is an error, not recursion: the parser reads the wire. *)
let max_depth = 512

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d = hex_digit s.[i] in
      if d < 0 then fail "bad \\u escape";
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* A high surrogate must be followed by an escaped low one, and the
     pair decodes to one code point; any other surrogate is an error. *)
  let unicode_escape () =
    let hi = hex4 () in
    let code =
      if hi land 0xFC00 = 0xD800 && !pos + 1 < n && s.[!pos] = '\\'
         && s.[!pos + 1] = 'u'
      then begin
        pos := !pos + 2;
        let lo = hex4 () in
        if lo land 0xFC00 <> 0xDC00 then fail "lone surrogate";
        0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else hi
    in
    if not (Uchar.is_valid code) then fail "lone surrogate";
    Uchar.of_int code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> Buffer.add_utf_8_uchar buf (unicode_escape ())
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
    match if floaty then None else int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number")
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        List (items [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)

(* --- accessors ------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
