type value = Obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

type record = (string * value) list

let encode record = Obs.Json.to_string (Obj record)

let parse_line line =
  match Obs.Json.parse line with Ok (Obj record) -> Some record | _ -> None

(* --- file IO --- *)

let append path record =
  let line = encode record ^ "\n" in
  match
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Fd.write_all fd line;
        Unix.fsync fd)
  with
  | () -> Ok ()
  | exception e ->
    Error (Error.Io { path; op = "journal-append"; message = Printexc.to_string e })

let load path =
  (* Opening a campaign journal is the natural moment to reap tmp
     files abandoned by crashed writers in the same directory. *)
  ignore (Atomic_file.sweep_stale (Filename.dirname path));
  if not (Sys.file_exists path) then Ok ([], 0)
  else
    match Atomic_file.read path with
    | Error e -> Error e
    | Ok text ->
      let records = ref [] and dropped = ref 0 in
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if String.trim line <> "" then
               match parse_line line with
               | Some r -> records := r :: !records
               | None -> incr dropped);
      Ok (List.rev !records, !dropped)

(* --- accessors --- *)

let find record key conv = Option.bind (List.assoc_opt key record) conv
let find_string record key = find record key Obs.Json.to_string_opt
let find_int record key = find record key Obs.Json.to_int_opt
let find_bool record key = find record key Obs.Json.to_bool_opt

let find_float record key =
  find record key (function
    | Null -> Some Float.nan
    | v -> Obs.Json.to_float_opt v)
