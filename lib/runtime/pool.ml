type outcome =
  | Done of string
  | Failed of string
  | Shed

let g_queue_depth = Obs.Metrics.gauge "runtime.pool.queue_depth"
let g_in_flight = Obs.Metrics.gauge "runtime.pool.in_flight"
let m_retries = Obs.Metrics.counter "runtime.pool.worker_retries"
let m_shed = Obs.Metrics.counter "runtime.pool.shed"

type completion = {
  id : string;
  attempts : int;
  outcome : outcome;
}

type pending = {
  p_id : string;
  p_thunk : unit -> (string, string) result;
  p_attempts : int; (* attempts already consumed *)
  p_backoff : Backoff.t;
  p_ready_at : float; (* real-clock time before which it must wait *)
  p_limits : Supervisor.limits; (* per-task resource envelope *)
}

type running = {
  r_worker : Supervisor.t;
  r_pending : pending;
}

type t = {
  jobs : int;
  max_queue : int;
  max_retries : int;
  limits : Supervisor.limits;
  backoff : Backoff.t;
  should_stop : unit -> bool;
  on_complete : completion -> unit;
  mutable queue : pending list; (* waiting, oldest first *)
  mutable running : running list;
  mutable exiting : Supervisor.t list;
      (* answered from the result pipe, not yet reaped *)
  mutable shed_count : int;
}

let real_now () = Unix.gettimeofday ()

let create ?(jobs = 2) ?max_queue ?(max_retries = 2) ?backoff
    ?(limits = Supervisor.default_limits)
    ?(should_stop = fun () -> Shutdown.requested ())
    ?(on_complete = fun _ -> ()) () =
  let jobs = max 1 jobs in
  {
    jobs;
    max_queue = (match max_queue with Some q -> max 1 q | None -> 64 * jobs);
    max_retries = max 0 max_retries;
    limits;
    backoff =
      (match backoff with Some b -> b | None -> Backoff.create ~seed:1 ());
    should_stop;
    on_complete;
    queue = [];
    running = [];
    exiting = [];
    shed_count = 0;
  }

let in_flight t = List.length t.running
let queued t = List.length t.queue

let observe_depths t =
  Obs.Metrics.set g_queue_depth (float_of_int (queued t));
  Obs.Metrics.set g_in_flight (float_of_int (in_flight t))

(* Completions go to [on_complete] only: the pool keeps no record of
   them, so a long-lived pool holds no finished payload. *)
let complete t c = t.on_complete c

let submit t ?limits ~id thunk =
  if queued t >= t.max_queue then begin
    (* Load shedding: a full queue refuses new work instead of letting
       the backlog grow without bound. The shed is still recorded so
       accounting stays exact. *)
    t.shed_count <- t.shed_count + 1;
    Obs.Metrics.incr m_shed;
    complete t { id; attempts = 0; outcome = Shed };
    `Shed
  end
  else begin
    t.queue <-
      t.queue
      @ [
          {
            p_id = id;
            p_thunk = thunk;
            p_attempts = 0;
            p_backoff = t.backoff;
            p_ready_at = neg_infinity;
            p_limits = Option.value limits ~default:t.limits;
          };
        ];
    observe_depths t;
    `Accepted
  end

let launch t p =
  let worker = Supervisor.spawn ~label:p.p_id p.p_limits p.p_thunk in
  t.running <- { r_worker = worker; r_pending = p } :: t.running

let wait_fds t =
  List.concat_map (fun r -> Supervisor.wait_fds r.r_worker) t.running

(* One scheduling step: reap workers that exited since their verdict,
   deliver finished workers (retrying retryable verdicts with backoff),
   then fill free slots from the queue. Never blocks. *)
let pump t =
  t.exiting <- List.filter (fun w -> not (Supervisor.reap w)) t.exiting;
  let still_running = ref [] in
  List.iter
    (fun r ->
      match Supervisor.service r.r_worker with
      | None -> still_running := r :: !still_running
      | Some verdict -> (
        t.exiting <- r.r_worker :: t.exiting;
        let p = r.r_pending in
        let attempts = p.p_attempts + 1 in
        match verdict with
        | Supervisor.Completed (Ok payload) ->
          complete t { id = p.p_id; attempts; outcome = Done payload }
        | Supervisor.Completed (Error msg) ->
          complete t { id = p.p_id; attempts; outcome = Failed msg }
        | (Supervisor.Exited _ | Supervisor.Signaled _ | Supervisor.Hung _
          | Supervisor.Timed_out _) as v ->
          if attempts <= t.max_retries && not (t.should_stop ()) then begin
            Obs.Metrics.incr m_retries;
            let delay, backoff = Backoff.next p.p_backoff in
            t.queue <-
              t.queue
              @ [
                  {
                    p with
                    p_attempts = attempts;
                    p_backoff = backoff;
                    p_ready_at = real_now () +. delay;
                  };
                ]
          end
          else
            complete t
              {
                id = p.p_id;
                attempts;
                outcome = Failed (Supervisor.verdict_to_string v);
              }))
    t.running;
  t.running <- !still_running;
  if not (t.should_stop ()) then begin
    let now = real_now () in
    let rec fill () =
      if in_flight t < t.jobs then
        match
          List.partition (fun p -> p.p_ready_at <= now) t.queue
        with
        | [], _ -> ()
        | ready :: rest_ready, waiting ->
          t.queue <- rest_ready @ waiting;
          launch t ready;
          fill ()
    in
    fill ()
  end;
  observe_depths t

let tick t =
  (try ignore (Unix.select (wait_fds t) [] [] 0.02)
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  pump t

(* Graceful drain: stop launching, let in-flight workers finish (their
   own deadlines and the watchdog still apply), and return what never
   ran so the caller can report it. *)
let drain t =
  pump t;
  while in_flight t > 0 do
    tick t
  done;
  List.iter (fun w -> ignore (Supervisor.await w)) t.exiting;
  t.exiting <- [];
  let not_run = List.map (fun p -> p.p_id) t.queue in
  t.queue <- [];
  not_run

let shed_count t = t.shed_count

type batch = {
  completions : completion list; (* completion order *)
  not_run : string list; (* drained before launch (graceful stop) *)
}

let run_list ?jobs ?max_retries ?backoff ?limits ?should_stop
    ?(on_complete = fun _ -> ()) tasks =
  let completions = ref [] in
  let t =
    create ?jobs
      ~max_queue:(max 1 (List.length tasks))
      ?max_retries ?backoff ?limits ?should_stop
      ~on_complete:(fun c ->
        completions := c :: !completions;
        on_complete c)
      ()
  in
  List.iter (fun (id, thunk) -> ignore (submit t ~id thunk)) tasks;
  (* Run until everything completed, or a stop was requested and the
     in-flight tail has drained. *)
  let rec loop () =
    pump t;
    if in_flight t > 0 || (queued t > 0 && not (t.should_stop ())) then begin
      tick t;
      loop ()
    end
  in
  loop ();
  let not_run = drain t in
  { completions = List.rev !completions; not_run }
