type limits = {
  mem_limit_mb : int option;
  deadline_seconds : float option;
  heartbeat_interval : float;
  hang_factor : float;
  grace_seconds : float;
}

let default_limits =
  {
    mem_limit_mb = None;
    deadline_seconds = None;
    heartbeat_interval = 0.25;
    hang_factor = 2.0;
    grace_seconds = 0.5;
  }

type verdict =
  | Completed of (string, string) result
  | Exited of int
  | Signaled of int
  | Hung of float
  | Timed_out of float

let verdict_to_string = function
  | Completed (Ok _) -> "completed"
  | Completed (Error msg) -> Printf.sprintf "worker error: %s" msg
  | Exited c -> Printf.sprintf "worker exited with status %d and no result" c
  | Signaled s -> Printf.sprintf "worker killed by signal %d" s
  | Hung silence ->
    Printf.sprintf "worker hung (silent %.2fs); reaped by watchdog" silence
  | Timed_out elapsed ->
    Printf.sprintf "worker exceeded its deadline (%.2fs); reaped" elapsed

let retryable = function
  | Completed (Ok _) | Completed (Error _) -> false
  | Exited _ | Signaled _ | Hung _ | Timed_out _ -> true

type kill_reason = Watchdog of float | Deadline of float

type t = {
  pid : int;
  label : string;
  limits : limits;
  result_r : Unix.file_descr;
  hb_r : Unix.file_descr;
  started : float;
  buf : Buffer.t;
  mutable last_hb : float;
  mutable result_eof : bool;
  mutable term_sent_at : float option;
  mutable kill_sent : bool;
  mutable kill_reason : kill_reason option;
  mutable verdict : verdict option;
}

let pid t = t.pid
let label t = t.label

(* Supervision timing must stay on the real clock even when
   Runtime.Clock runs a fake source for deterministic measurements. *)
let real_now () = Unix.gettimeofday ()

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let hb_byte = Bytes.of_string "h"

(* Runs in the forked child; must never return and must never touch
   the parent's alcotest/cmdliner state — every path ends in _exit. *)
let child_main limits ~inject_crash ~inject_hang result_w hb_w f =
  (try
     (* The parent may have cooperative SIGTERM handling installed;
        a worker must die on SIGTERM so the escalation ladder works. *)
     Sys.set_signal Sys.sigterm Sys.Signal_default;
     Sys.set_signal Sys.sigint Sys.Signal_default;
     (match limits.mem_limit_mb with
     | Some mb -> ignore (Rlimit.set_memory_limit_mb mb)
     | None -> ());
     let heartbeat () =
       try ignore (Unix.write hb_w hb_byte 0 1) with _ -> ()
     in
     if inject_hang then
       (* A stuck worker: no heartbeat, no result, no progress. Only
          the parent's watchdog can end this. *)
       while true do
         Unix.sleepf 3600.0
       done
     else begin
       heartbeat ();
       Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> heartbeat ()));
       ignore
         (Unix.setitimer Unix.ITIMER_REAL
            {
              Unix.it_interval = limits.heartbeat_interval;
              it_value = limits.heartbeat_interval;
            });
       if inject_crash then Unix.kill (Unix.getpid ()) Sys.sigkill;
       let payload =
         match f () with
         | Ok s -> "O" ^ s
         | Error s -> "E" ^ s
         | exception e -> "E" ^ Printexc.to_string e
       in
       (* Stop the timer before the blocking result write so a
          heartbeat signal cannot interrupt it halfway. *)
       ignore
         (Unix.setitimer Unix.ITIMER_REAL
            { Unix.it_interval = 0.0; it_value = 0.0 });
       write_all result_w payload
     end
   with _ -> ());
  (try Unix.close result_w with _ -> ());
  (try Unix.close hb_w with _ -> ());
  Unix._exit 0

let spawn ?(label = "worker") limits f =
  let result_r, result_w = Unix.pipe ~cloexec:false () in
  let hb_r, hb_w = Unix.pipe ~cloexec:false () in
  (* Decide fault injection in the parent so the deterministic fault
     stream and its fire counters live in one process; the child only
     executes the decision. *)
  let inject_crash = Fault.fires Fault.Worker_crash in
  let inject_hang = Fault.fires Fault.Worker_hang in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close result_r;
    Unix.close hb_r;
    child_main limits ~inject_crash ~inject_hang result_w hb_w f
  | pid ->
    Unix.close result_w;
    Unix.close hb_w;
    Unix.set_nonblock result_r;
    Unix.set_nonblock hb_r;
    let now = real_now () in
    {
      pid;
      label;
      limits;
      result_r;
      hb_r;
      started = now;
      buf = Buffer.create 256;
      last_hb = now;
      result_eof = false;
      term_sent_at = None;
      kill_sent = false;
      kill_reason = None;
      verdict = None;
    }

let wait_fds t =
  if t.verdict <> None then []
  else
    (if t.result_eof then [] else [ t.result_r ]) @ [ t.hb_r ]

let drain_fd t fd ~on_data =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> if fd = t.result_r then t.result_eof <- true
    | n ->
      on_data chunk n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> if fd = t.result_r then t.result_eof <- true
  in
  go ()

let send_term t reason ~now =
  if t.term_sent_at = None then begin
    t.kill_reason <- Some reason;
    t.term_sent_at <- Some now;
    try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ()
  end

let send_kill t =
  if not t.kill_sent then begin
    t.kill_sent <- true;
    try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()
  end

let m_completed_ok = Obs.Metrics.counter "runtime.supervisor.completed_ok"
let m_completed_error = Obs.Metrics.counter "runtime.supervisor.completed_error"
let m_exited = Obs.Metrics.counter "runtime.supervisor.exited"
let m_signaled = Obs.Metrics.counter "runtime.supervisor.signaled"
let m_hung = Obs.Metrics.counter "runtime.supervisor.hung"
let m_timed_out = Obs.Metrics.counter "runtime.supervisor.timed_out"

let count_verdict = function
  | Completed (Ok _) -> Obs.Metrics.incr m_completed_ok
  | Completed (Error _) -> Obs.Metrics.incr m_completed_error
  | Exited _ -> Obs.Metrics.incr m_exited
  | Signaled _ -> Obs.Metrics.incr m_signaled
  | Hung _ -> Obs.Metrics.incr m_hung
  | Timed_out _ -> Obs.Metrics.incr m_timed_out

(* The reap drains the result pipe once more: a worker can write its
   result and exit between [service]'s drain and its [waitpid]. The
   worker has exited, so the read ends at EOF, not EAGAIN. *)
let finalize t status =
  drain_fd t t.result_r ~on_data:(fun chunk n ->
      Buffer.add_subbytes t.buf chunk 0 n);
  let v =
    match t.kill_reason with
    | Some (Watchdog silence) -> Hung silence
    | Some (Deadline elapsed) -> Timed_out elapsed
    | None -> (
      let payload = Buffer.contents t.buf in
      if String.length payload > 0 then
        let body = String.sub payload 1 (String.length payload - 1) in
        match payload.[0] with
        | 'O' -> Completed (Ok body)
        | 'E' -> Completed (Error body)
        | _ -> Exited 70
      else
        match status with
        | Unix.WEXITED c -> Exited c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s)
  in
  (try Unix.close t.result_r with Unix.Unix_error _ -> ());
  (try Unix.close t.hb_r with Unix.Unix_error _ -> ());
  count_verdict v;
  t.verdict <- Some v;
  v

let service t =
  match t.verdict with
  | Some v -> Some v
  | None ->
    let now = real_now () in
    drain_fd t t.hb_r ~on_data:(fun _ _ -> t.last_hb <- now);
    drain_fd t t.result_r ~on_data:(fun chunk n ->
        t.last_hb <- now;
        Buffer.add_subbytes t.buf chunk 0 n);
    (* Escalation ladder: deadline or watchdog first sends SIGTERM;
       grace_seconds later an unresponsive worker gets SIGKILL. *)
    (match t.limits.deadline_seconds with
    | Some d when now -. t.started > d && not t.result_eof ->
      send_term t (Deadline (now -. t.started)) ~now
    | _ -> ());
    let silence = now -. t.last_hb in
    if
      (not t.result_eof)
      && silence > t.limits.hang_factor *. t.limits.heartbeat_interval
    then send_term t (Watchdog silence) ~now;
    (match t.term_sent_at with
    | Some at when now -. at > t.limits.grace_seconds -> send_kill t
    | _ -> ());
    if Fault.fires Fault.Reap_delay then Unix.sleepf 0.2;
    (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> None
    | _, status -> Some (finalize t status)
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      Some (finalize t (Unix.WEXITED 0)))

let abort t =
  match t.verdict with
  | Some _ -> ()
  | None ->
    send_term t (Deadline (real_now () -. t.started)) ~now:(real_now ())

(* Block until the worker is done, multiplexing on its pipes with a
   small tick so watchdog and escalation checks stay timely. *)
let await t =
  let rec loop () =
    match service t with
    | Some v -> v
    | None ->
      let fds = wait_fds t in
      (try ignore (Unix.select fds [] [] 0.02)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ()

let run ?label limits f = await (spawn ?label limits f)
