(* A signal landing mid-write (SIGCHLD from a reaped worker, SIGALRM,
   a profiler tick) surfaces as EINTR; without the retry the exception
   escapes between two partial writes and tears what was being
   written. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
