type error = Truncated | Bad_magic | Bad_crc | Malformed

let error_to_string = function
  | Truncated -> "truncated record"
  | Bad_magic -> "bad magic"
  | Bad_crc -> "CRC mismatch (bit flip or torn write)"
  | Malformed -> "malformed record header"

(* The header after the magic: " <seq:12> <len:8> <crc:8>\n". *)
let fields_len = 32

let header ~magic ~seq ~len ~crc =
  if seq < 0 || seq >= 1 lsl 48 || len < 0 || len > 0xffffffff || crc < 0
     || crc > 0xffffffff
  then invalid_arg "Record.header: field out of range";
  Printf.sprintf "%s %012x %08x %08x\n" magic seq len crc

let encode ~magic ~seq payload =
  header ~magic ~seq ~len:(String.length payload) ~crc:(Crc32.string payload)
  ^ payload

let field_char i c =
  match i with
  | 0 | 13 | 22 -> c = ' '
  | 31 -> c = '\n'
  | _ -> ( match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false)

let decode ~magic ?(off = 0) text =
  let m = String.length magic in
  let avail = String.length text - off in
  let rec check i =
    (* The bytes present must start a header: the magic, then the
       fields' characters; only then is a short input [Truncated]. *)
    if i >= avail || i >= m + fields_len then Ok ()
    else if i < m && text.[off + i] <> magic.[i] then Error Bad_magic
    else if i >= m && not (field_char (i - m) text.[off + i]) then
      Error Malformed
    else check (i + 1)
  in
  let hex pos len =
    int_of_string ("0x" ^ String.sub text (off + m + pos) len)
  in
  match check 0 with
  | Error _ as e -> e
  | Ok () when avail < m + fields_len -> Error Truncated
  | Ok () ->
    let seq = hex 1 12 and len = hex 14 8 and crc = hex 23 8 in
    let start = off + m + fields_len in
    (* The length is checked against the bytes left before anything of
       that size is allocated. *)
    if len > String.length text - start then Error Truncated
    else
      let payload = String.sub text start len in
      if Crc32.string payload <> crc then Error Bad_crc
      else Ok (seq, payload, start + len)
