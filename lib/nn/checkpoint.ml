module Mat = Tensor.Mat
module Error = Runtime.Error

let magic = "NSCKPT3"

type source = Primary | Backup

let backup_path path = path ^ ".bak"

(* --- payload --- *)

let to_string params =
  let buf = Buffer.create 4096 in
  let emit (p : Param.t) =
    let v = p.Param.value in
    Buffer.add_string buf
      (Printf.sprintf "%s %d %d\n" p.Param.name (Mat.rows v) (Mat.cols v));
    for i = 0 to Mat.rows v - 1 do
      for j = 0 to Mat.cols v - 1 do
        Buffer.add_string buf (Printf.sprintf "%.17g " (Mat.get v i j))
      done;
      Buffer.add_char buf '\n'
    done
  in
  List.iter emit params;
  Buffer.contents buf

(* Parse the payload into a name -> matrix table without touching any
   parameter, so a defect found halfway leaves the model untouched.
   Declared shapes are validated against the remaining token count
   before any allocation, so a corrupted header cannot trigger a huge
   or negative [Array.make]. *)
let parse_payload ~source text =
  let corrupt detail = Error (Error.Corrupt { path = source; detail }) in
  let table = Hashtbl.create 16 in
  let tokens =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun s -> s <> "")
    |> Array.of_list
  in
  let ntok = Array.length tokens in
  let rec consume i =
    if i >= ntok then Ok table
    else if i + 3 > ntok then corrupt "truncated parameter header"
    else
      let name = tokens.(i) in
      match (int_of_string_opt tokens.(i + 1), int_of_string_opt tokens.(i + 2)) with
      | Some rows, Some cols when rows >= 0 && cols >= 0 ->
        let n = rows * cols in
        if n < 0 || (rows > 0 && n / rows <> cols) then
          corrupt ("overflowing shape for parameter " ^ name)
        else if i + 3 + n > ntok then
          corrupt ("truncated data for parameter " ^ name)
        else begin
          let data = Array.make n 0.0 in
          let bad = ref None in
          for k = 0 to n - 1 do
            match float_of_string_opt tokens.(i + 3 + k) with
            | Some f -> data.(k) <- f
            | None -> if !bad = None then bad := Some tokens.(i + 3 + k)
          done;
          match !bad with
          | Some tok ->
            corrupt (Printf.sprintf "bad float %S for parameter %s" tok name)
          | None ->
            if Hashtbl.mem table name then
              corrupt ("duplicate parameter block " ^ name)
            else begin
              Hashtbl.add table name (Mat.of_array ~rows ~cols data);
              consume (i + 3 + n)
            end
        end
      | _ -> corrupt ("bad shape header for parameter " ^ name)
  in
  consume 0

(* Every parameter must be in the table with its own shape. *)
let rec validate ~source table = function
  | [] -> Ok ()
  | (p : Param.t) :: rest -> (
    match Hashtbl.find_opt table p.Param.name with
    | None ->
      Error
        (Error.Corrupt
           { path = source; detail = "missing parameter " ^ p.Param.name })
    | Some m ->
      if Mat.shape m <> Mat.shape p.Param.value then
        Error
          (Error.Corrupt
             { path = source; detail = "shape mismatch for " ^ p.Param.name })
      else validate ~source table rest)

(* Validate every parameter against the table before committing any
   value. *)
let apply ~source table params =
  match validate ~source table params with
  | Error _ as e -> e
  | Ok () ->
    List.iter
      (fun (p : Param.t) -> p.Param.value <- Hashtbl.find table p.Param.name)
      params;
    Ok ()

(* --- record --- *)

(* The payload opens with the line "epochs <n>": the record's seq
   again, inside the CRC, so a flipped seq digit cannot load the
   weights under another epoch count. *)
let encode ~epochs params =
  Runtime.Record.encode ~magic ~seq:epochs
    (Printf.sprintf "epochs %d\n%s" epochs (to_string params))

(* The parameter text after a leading "epochs <n>" line that matches
   [seq]. A payload without that line, as the first NSCKPT3 writer left
   it, trusts the seq. A parameter header has three fields, so it never
   reads as the epochs line. *)
let strip_epochs ~source seq payload =
  let line, rest =
    match String.index_opt payload '\n' with
    | Some nl ->
      ( String.sub payload 0 nl,
        String.sub payload (nl + 1) (String.length payload - nl - 1) )
    | None -> (payload, "")
  in
  match String.split_on_char ' ' line with
  | [ "epochs"; n ]
    when n <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) n
    ->
    if int_of_string_opt n = Some seq then Ok rest
    else
      Error
        (Error.Corrupt
           {
             path = source;
             detail =
               Printf.sprintf "epoch count %s in the payload, %d in the header"
                 n seq;
           })
  | _ -> Ok payload

(* Read-only: an [NSCKPT 2 <crc32-hex> <payload-bytes>] file, the
   format before the record, loads as 0 epochs. *)
let decode_v2 text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl -> (
    let payload = String.sub text (nl + 1) (String.length text - nl - 1) in
    match String.split_on_char ' ' (String.sub text 0 nl) with
    | [ "NSCKPT"; "2"; crc; len ]
      when int_of_string_opt len = Some (String.length payload)
           && Runtime.Crc32.to_hex (Runtime.Crc32.string payload) = crc ->
      Some payload
    | _ -> None)

(* The verified epoch count and payload. *)
let decode ~source text =
  let corrupt detail = Error (Error.Corrupt { path = source; detail }) in
  if String.starts_with ~prefix:"NSCKPT 2 " text then
    match decode_v2 text with
    | Some payload -> Ok (0, payload)
    | None -> corrupt "damaged NSCKPT 2 checkpoint"
  else
    match Runtime.Record.decode ~magic text with
    | Ok (epochs, payload, next) when next = String.length text ->
      Result.map
        (fun params -> (epochs, params))
        (strip_epochs ~source epochs payload)
    | Ok _ -> corrupt "trailing bytes after the checkpoint record"
    | Error e -> corrupt (Runtime.Record.error_to_string e)

let of_string_result ?(source = "<string>") text params =
  match decode ~source text with
  | Error _ as e -> e
  | Ok (epochs, payload) -> (
    match parse_payload ~source payload with
    | Error _ as e -> e
    | Ok table -> Result.map (fun () -> epochs) (apply ~source table params))

(* --- file IO --- *)

(* Integrity probe used before promoting the current file to [.bak]:
   the file must load into [params] (without assigning them), so
   neither a corrupt file nor one that parses to nothing, like an
   empty file, clobbers the last-good copy. *)
let intact path params =
  match Runtime.Atomic_file.read path with
  | Error _ -> false
  | Ok text -> (
    match decode ~source:path text with
    | Error _ -> false
    | Ok (_, payload) -> (
      match parse_payload ~source:path payload with
      | Error _ -> false
      | Ok table -> Result.is_ok (validate ~source:path table params)))

let save ~epochs path params =
  ignore (Runtime.Atomic_file.sweep_stale (Filename.dirname path));
  let data = encode ~epochs params in
  (* Promote the current file to [.bak] before any byte of the new
     write lands, and only when it would load into [params] — so
     neither a torn write below nor a corrupt or empty current file can
     clobber the last-good copy. *)
  if Sys.file_exists path && intact path params then
    (try Sys.rename path (backup_path path) with Sys_error _ -> ());
  let written =
    if Runtime.Fault.fires Runtime.Fault.Torn_checkpoint_write then
      (* Simulate power loss mid-write on a non-atomic writer: the
         destination ends up with half the bytes and nobody is told.
         Recovery must come from the CRC check + [.bak] fallback. *)
      Runtime.Atomic_file.write_raw path
        (String.sub data 0 (String.length data / 2))
    else
      let data =
        if Runtime.Fault.fires Runtime.Fault.Checkpoint_bit_flip then begin
          let b = Bytes.of_string data in
          let i = String.length data - 2 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
          Bytes.to_string b
        end
        else data
      in
      Runtime.Atomic_file.write path data
  in
  match written with Ok () -> () | Error e -> Error.raise_ e

let load_result path params =
  let try_copy p =
    match Runtime.Atomic_file.read p with
    | Error _ as e -> e
    | Ok text -> of_string_result ~source:p text params
  in
  match try_copy path with
  | Ok epochs -> Ok (Primary, epochs)
  | Error primary_error -> (
    let bak = backup_path path in
    if not (Sys.file_exists bak) then Error primary_error
    else
      match try_copy bak with
      | Ok epochs -> Ok (Backup, epochs)
      | Error _ -> Error primary_error)

let load path params =
  match load_result path params with
  | Ok _ -> ()
  | Error e -> Error.raise_ e
