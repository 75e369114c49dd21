let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception e -> Error (Error.Io { path; op = "read"; message = Printexc.to_string e })

(* Persist the rename itself: fsyncing the file makes its *contents*
   durable, but the new directory entry lives in the parent directory's
   data — until that is flushed, a crash right after the rename can
   still resurrect the old file (or none at all). *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* The content goes out through a buffered channel, so a writer can
   stream it in pieces without ever holding it whole. *)
let write_with ?(fsync = true) path f =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        f oc;
        flush oc;
        if fsync then Unix.fsync fd);
    Unix.rename tmp path;
    if fsync then fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Error.Io { path; op = "atomic-write"; message = Printexc.to_string e })

let write ?fsync path content =
  write_with ?fsync path (fun oc -> output_string oc content)

(* A writer that died between creating [path].tmp.[pid] and the rename
   leaves the tmp file behind forever. Each sweep removes tmp files
   whose writing process is demonstrably gone; live writers (including
   ourselves) are left alone. *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, not ours *)

let stale_tmp_pid name =
  (* Matches "<base>.tmp.<pid>" and returns the pid. *)
  match String.rindex_opt name '.' with
  | None -> None
  | Some dot -> (
    match int_of_string_opt (String.sub name (dot + 1) (String.length name - dot - 1)) with
    | None -> None
    | Some pid ->
      let prefix = String.sub name 0 dot in
      if
        String.length prefix >= 4
        && String.sub prefix (String.length prefix - 4) 4 = ".tmp"
      then Some pid
      else None)

let sweep_stale dir =
  match Sys.readdir dir with
  | entries ->
    Array.fold_left
      (fun removed name ->
        match stale_tmp_pid name with
        | Some pid when pid <> Unix.getpid () && not (pid_alive pid) -> (
          match Sys.remove (Filename.concat dir name) with
          | () -> removed + 1
          | exception Sys_error _ -> removed)
        | Some _ | None -> removed)
      0 entries
  | exception Sys_error _ -> 0

let write_raw path content =
  match
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content)
  with
  | () -> Ok ()
  | exception e ->
    Error (Error.Io { path; op = "raw-write"; message = Printexc.to_string e })
