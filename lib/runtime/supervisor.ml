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
  mutable hb_eof : bool;
  mutable term_sent_at : float option;
  mutable kill_sent : bool;
  mutable kill_reason : kill_reason option;
  mutable verdict : verdict option;
  mutable reaped : bool;
}

let pid t = t.pid
let label t = t.label

(* Supervision timing must stay on the real clock even when
   Runtime.Clock runs a fake source for deterministic measurements. *)
let real_now () = Unix.gettimeofday ()

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
       Fd.write_all result_w payload
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
      hb_eof = false;
      term_sent_at = None;
      kill_sent = false;
      kill_reason = None;
      verdict = None;
      reaped = false;
    }

(* A pipe at EOF stays readable, so it leaves the select set: a select
   on it would return at once until the worker is reaped. *)
let wait_fds t =
  if t.verdict <> None then []
  else
    (if t.result_eof then [] else [ t.result_r ])
    @ if t.hb_eof then [] else [ t.hb_r ]

(* The parent supervises from one thread, so one read buffer serves
   every drain. *)
let chunk = Bytes.create 4096

(* Read [fd] until it would block; [true] at EOF (or a read error). *)
let drain_fd fd ~on_data =
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> true
    | n ->
      on_data n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> true
  in
  go ()

let drain_result t ~now =
  if (not t.result_eof)
     && drain_fd t.result_r ~on_data:(fun n ->
            t.last_hb <- now;
            Buffer.add_subbytes t.buf chunk 0 n)
  then t.result_eof <- true

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

let settle t v =
  (try Unix.close t.result_r with Unix.Unix_error _ -> ());
  (try Unix.close t.hb_r with Unix.Unix_error _ -> ());
  count_verdict v;
  t.verdict <- Some v;
  v

(* A non-empty result payload; child_main tags it [O] or [E]. *)
let payload_verdict t =
  let payload = Buffer.contents t.buf in
  let body = String.sub payload 1 (String.length payload - 1) in
  match payload.[0] with
  | 'O' -> Completed (Ok body)
  | 'E' -> Completed (Error body)
  | _ -> Exited 70

(* The reap drains the result pipe once more: a worker can write its
   result and exit between [service]'s drain and its [waitpid]. The
   worker has exited, so the read ends at EOF, not EAGAIN. A kill the
   supervisor sent decides before any payload. *)
let finalize t status =
  t.reaped <- true;
  drain_result t ~now:(real_now ());
  settle t
    (match t.kill_reason with
    | Some (Watchdog silence) -> Hung silence
    | Some (Deadline elapsed) -> Timed_out elapsed
    | None when Buffer.length t.buf > 0 -> payload_verdict t
    | None -> (
      match status with
      | Unix.WEXITED c -> Exited c
      | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s))

let service t =
  match t.verdict with
  | Some v -> Some v
  | None ->
    let now = real_now () in
    if (not t.hb_eof) && drain_fd t.hb_r ~on_data:(fun _ -> t.last_hb <- now)
    then t.hb_eof <- true;
    drain_result t ~now;
    if t.result_eof && t.kill_reason = None && Buffer.length t.buf > 0 then
      (* The worker closed its result pipe after writing the whole
         payload, so the verdict no longer depends on how it exits.
         Deciding now saves waiting for the exit; [reap] or [await]
         collects the process. *)
      Some (settle t (payload_verdict t))
    else begin
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
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> None
      | _, status -> Some (finalize t status)
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        Some (finalize t (Unix.WEXITED 0))
    end

(* Collect a worker whose verdict is known; [[]] blocks, [[WNOHANG]]
   does not. *)
let reap_with flags t =
  (if t.verdict <> None && not t.reaped then
     match Unix.waitpid flags t.pid with
     | 0, _ -> ()
     | _ -> t.reaped <- true
     | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.reaped <- true
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  t.reaped

let reap = reap_with [ Unix.WNOHANG ]

let abort t =
  match t.verdict with
  | Some _ -> ()
  | None ->
    send_term t (Deadline (real_now () -. t.started)) ~now:(real_now ())

(* Block until the worker is done, multiplexing on its pipes with a
   small tick so watchdog and escalation checks stay timely. A verdict
   read from the result pipe leaves the worker between its last close
   and its exit, so the blocking wait for it is short. *)
let await t =
  let rec loop () =
    match service t with
    | Some v -> v
    | None ->
      (try ignore (Unix.select (wait_fds t) [] [] 0.02)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  let v = loop () in
  while not (reap_with [] t) do
    ()
  done;
  v

let run ?label limits f = await (spawn ?label limits f)
