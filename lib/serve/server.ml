(* The ns-serve request handler and its select loop; the protocol is
   documented in server.mli. *)

module Store = Session_store
module J = Runtime.Journal

let m_requests = Obs.Metrics.counter "serve.requests"
let m_completed = Obs.Metrics.counter "serve.completed"
let m_failed = Obs.Metrics.counter "serve.failed"
let m_rejected = Obs.Metrics.counter "serve.rejected"
let h_latency = Obs.Metrics.histogram "serve.latency_seconds"

(* --- worker-side solve ------------------------------------------------- *)

(* The reply fields of a solve run with a selector: the selection made
   at the first reduce, or "cache":"none" when the solve ended before
   one. The "fingerprint" and "degraded" fields are for the parent,
   which fills its decision cache from them and moves "degraded" into
   the reply header. *)
let selection_fields = function
  | None -> [ ("cache", J.String "none") ]
  | Some (s : Core.Selector.selection) ->
    List.concat
      [
        [
          ("policy", J.String (Cdcl.Policy.name s.policy));
          ("cache", J.String (if s.cached then "hit" else "miss"));
          ("selection_ms", J.Float (1000.0 *. s.inference_seconds));
        ];
        (if Float.is_finite s.probability then
           [ ("probability", J.Float s.probability) ]
         else []);
        [ ("degraded", J.Bool (s.degraded <> None)) ];
        (match s.fingerprint with
        | Some key -> [ ("fingerprint", J.String key) ]
        | None -> []);
      ]

(* Runs inside the forked supervisor worker: parse, solve under the
   request's wall budget (with a selector, selecting the policy at the
   first reduce through the decision cache this worker inherited), and
   return a JSON payload the parent merges into the response. *)
let worker_solve ~deadline_s ~selector dimacs () =
  match Runtime.Error.protect ~context:"serve.worker" (fun () ->
      let f = Cnf.Dimacs.parse_string dimacs in
      let config =
        Cdcl.Config.with_budget ~max_wall_seconds:deadline_s
          Cdcl.Config.default
      in
      let selection, result, stats =
        match selector with
        | None ->
          let result, stats = Cdcl.Solver.solve_formula ~config f in
          ([], result, stats)
        | Some model ->
          let s, result, stats =
            Core.Selector.solve_adaptive ~config ~use_cache:true model f
          in
          (selection_fields s, result, stats)
      in
      J.encode
        ([
           ("verdict", J.String (Store.verdict_name result));
           ( "model",
             match result with
             | Cdcl.Solver.Sat m -> J.String (Store.model_to_string m)
             | _ -> J.Null );
           ("conflicts", J.Int stats.Cdcl.Solver_stats.conflicts);
           ("decisions", J.Int stats.Cdcl.Solver_stats.decisions);
           ("propagations", J.Int stats.Cdcl.Solver_stats.propagations);
           ("learned", J.Int stats.Cdcl.Solver_stats.learned_total);
         ]
        @ selection))
  with
  | Ok payload -> Ok payload
  | Error e -> Error (Runtime.Error.to_string e)

(* --- server state ------------------------------------------------------ *)

type config = {
  jobs : int;
  max_queue : int;
  max_retries : int;
  deadline : float;
  mem_mb : int option;
  journal : string option;
  selector : Core.Model.t option;
  store : Store.config;
  verbose : bool;
}

type pending_req = {
  pr_reply : J.record -> unit;
  pr_user_id : string;
  pr_submitted : float;
}

(* A client reads frames from [input] and is answered on [output]: one
   socket for a connection, stdin and stdout for the stdio pair. *)
type client = {
  input : Unix.file_descr;
  output : Unix.file_descr;
  reader : Runtime.Frame.reader;
  mutable reading : bool; (* input not at EOF *)
  mutable writable : bool; (* no write has failed *)
  mutable awaiting : int; (* frames read but not yet answered *)
}

let new_client input output =
  {
    input;
    output;
    reader = Runtime.Frame.create_reader ();
    reading = true;
    writable = true;
    awaiting = 0;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_client c =
  close_quietly c.input;
  if c.output <> c.input then close_quietly c.output

type t = {
  config : config;
  pool : Runtime.Pool.t;
  pending : (string, pending_req) Hashtbl.t; (* pool id -> request *)
  store : Store.t;
  mutable next_req : int;
  mutable draining : bool;
  mutable last_sweep : float; (* idle-session TTL sweeps *)
  mutable listener : Unix.file_descr option; (* while [serve] accepts *)
  mutable clients : client list; (* [serve]'s open clients *)
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.config.verbose then Printf.eprintf "c [serve] %s\n%!" s)
    fmt

let journal_append t record =
  match t.config.journal with
  | None -> ()
  | Some path -> (
    match J.append path record with
    | Ok () -> ()
    | Error e -> log t "journal append failed: %s" (Runtime.Error.to_string e))

(* [degraded] is true exactly on the replies to a solve whose policy
   selection fell back to the default; every other response says false. *)
let base_response ?(degraded = false) ~id ~status rest =
  ("id", J.String id)
  :: ("status", J.String status)
  :: ("degraded", J.Bool degraded)
  :: rest

let error_response ~id msg =
  base_response ~id ~status:"error" [ ("error", J.String msg) ]

(* A string request field, "" when absent. *)
let field fields name = Option.value (J.find_string fields name) ~default:""

(* An optional numeric request field: [default] when absent, else the
   value [accept] makes of it, or an error that names the field. A
   wrong type or sign is never coerced to the default. *)
let numeric fields name ~default ~rule accept =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some v -> (
    match accept v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%s must be %s" name rule))

(* A worker's selection, counted as a lookup of the server's decision
   cache and stored there when the model decided: the worker read only
   its own copy. The payload's "degraded" and "fingerprint" fields are
   taken out; "degraded" goes into the reply header. *)
let adopt_selection t body =
  (match (t.config.selector, J.find_string body "fingerprint") with
  | Some model, Some fingerprint ->
    Core.Selector.adopt model ~fingerprint
      ~cached:(J.find_string body "cache" = Some "hit")
      (J.find_float body "probability")
  | _ -> ());
  ( J.find_bool body "degraded" = Some true,
    List.filter (fun (k, _) -> k <> "degraded" && k <> "fingerprint") body )

(* Completion of a pool-backed solve: merge the worker payload (or the
   failure) into the response, journal it, and clean up. *)
let on_pool_complete t (c : Runtime.Pool.completion) =
  match Hashtbl.find_opt t.pending c.Runtime.Pool.id with
  | None -> ()
  | Some pr ->
    Hashtbl.remove t.pending c.Runtime.Pool.id;
    let latency = Unix.gettimeofday () -. pr.pr_submitted in
    Obs.Metrics.observe h_latency latency;
    let tail =
      [
        ("attempts", J.Int c.Runtime.Pool.attempts);
        ("latency_ms", J.Float (1000.0 *. latency));
      ]
    in
    let id = pr.pr_user_id in
    let record =
      match c.Runtime.Pool.outcome with
      | Runtime.Pool.Done payload ->
        Obs.Metrics.incr m_completed;
        let degraded, body =
          match J.parse_line payload with
          | Some fields -> adopt_selection t fields
          | None -> (false, [ ("verdict", J.String "unknown") ])
        in
        base_response ~degraded ~id ~status:"ok" (body @ tail)
      | Runtime.Pool.Failed msg ->
        Obs.Metrics.incr m_failed;
        error_response ~id msg @ tail
      | Runtime.Pool.Shed ->
        (* 429-style: admission control refused the request. *)
        base_response ~id ~status:"shed" tail
    in
    pr.pr_reply record;
    journal_append t record

let create (config : config) =
  let t_recover = Unix.gettimeofday () in
  match Store.create config.store with
  | Error e -> Error e
  | Ok (store, recovery) ->
    let recovery_s = Unix.gettimeofday () -. t_recover in
    let t_ref = ref None in
    (* No pool-wide limits: every submit carries its request's own. *)
    let pool =
      Runtime.Pool.create ~jobs:config.jobs ~max_queue:config.max_queue
        ~max_retries:config.max_retries
        ~on_complete:(fun c -> Option.iter (fun t -> on_pool_complete t c) !t_ref)
        ()
    in
    let t =
      {
        config;
        pool;
        pending = Hashtbl.create 64;
        store;
        next_req = 0;
        draining = false;
        last_sweep = Unix.gettimeofday ();
        listener = None;
        clients = [];
      }
    in
    t_ref := Some t;
    if config.store.Store.wal_dir <> None then begin
      let record =
        [
          ("event", J.String "recovered");
          ("sessions", J.Int recovery.Store.sessions);
          ("replayed", J.Int recovery.Store.replayed);
          ("from_snapshot", J.Bool recovery.Store.from_snapshot);
          ("truncated_bytes", J.Int recovery.Store.truncated_bytes);
          ("corrupt_snapshots", J.Int recovery.Store.corrupt_snapshots);
          ("restore_errors", J.Int recovery.Store.restore_errors);
          ("recovery_ms", J.Float (1000.0 *. recovery_s));
        ]
      in
      log t "wal recovery: %s" (J.encode record);
      journal_append t record
    end;
    Ok t

(* --- request handling --------------------------------------------------- *)

let handle_metrics t ~id reply =
  let num name v = (name, J.Int v) in
  let cs = Core.Selector.cache_stats () in
  reply
    (base_response ~id ~status:"ok"
       [
         num "requests" (Obs.Metrics.counter_value m_requests);
         num "cache_hits" cs.Core.Selector.hits;
         num "cache_misses" cs.Core.Selector.misses;
         num "cache_evictions" cs.Core.Selector.evictions;
         num "cache_size" cs.Core.Selector.size;
         num "completed" (Obs.Metrics.counter_value m_completed);
         num "failed" (Obs.Metrics.counter_value m_failed);
         num "rejected" (Obs.Metrics.counter_value m_rejected);
         num "shed" (Runtime.Pool.shed_count t.pool);
         num "worker_retries"
           (Obs.Metrics.counter_value
              (Obs.Metrics.counter "runtime.pool.worker_retries"));
         num "in_flight" (Runtime.Pool.in_flight t.pool);
         num "queued" (Runtime.Pool.queued t.pool);
         num "sessions" (Store.session_count t.store);
         num "evicted" (Store.evictions t.store);
         num "snapshot_failures" (Store.snapshot_failures t.store);
         ("wal", J.Bool (t.config.store.Store.wal_dir <> None));
         ("draining", J.Bool t.draining);
       ])

(* The worker is forked without exec, so it starts out holding the
   server's listener and client sockets. It closes them first: a server
   that stops listening must refuse new connections at once, not leave
   them queued on a socket a worker still holds. Stdio (0-2) stays
   open, and so does every other descriptor (the NS_TRACE span sink
   among them). *)
let close_inherited t =
  Option.iter close_quietly t.listener;
  List.iter
    (fun c ->
      if not (List.mem c.input Unix.[ stdin; stdout; stderr ]) then
        close_client c)
    t.clients

let handle_solve t ~id reply fields =
  let deadline_s =
    numeric fields "deadline_s" ~default:t.config.deadline
      ~rule:"a finite number > 0" (function
      | J.Int d when d > 0 -> Some (float_of_int d)
      | J.Float d when d > 0.0 && Float.is_finite d -> Some d
      | _ -> None)
  and mem_mb =
    numeric fields "mem_mb" ~default:t.config.mem_mb ~rule:"an integer > 0"
      (function J.Int m when m > 0 -> Some (Some m) | _ -> None)
  in
  match (J.find_string fields "dimacs", deadline_s, mem_mb) with
  | None, _, _ -> reply (error_response ~id "solve: missing dimacs field")
  | _, Error msg, _ | _, _, Error msg ->
    reply (error_response ~id ("solve: " ^ msg))
  | Some dimacs, Ok deadline_s, Ok mem_mb ->
    let pool_id = Printf.sprintf "r%d" t.next_req in
    t.next_req <- t.next_req + 1;
    Hashtbl.replace t.pending pool_id
      { pr_reply = reply; pr_user_id = id; pr_submitted = Unix.gettimeofday () };
    let limits =
      {
        Runtime.Supervisor.default_limits with
        Runtime.Supervisor.mem_limit_mb = mem_mb;
        (* The solver budget returns Unknown at [deadline_s]; the
           supervisor deadline is the backstop for a worker that fails
           to honour it. *)
        deadline_seconds = Some ((deadline_s *. 1.5) +. 1.0);
      }
    in
    (* Shed submissions complete synchronously through on_pool_complete. *)
    ignore
      (Runtime.Pool.submit t.pool ~limits ~id:pool_id (fun () ->
           close_inherited t;
           worker_solve ~deadline_s ~selector:t.config.selector dimacs ()))

(* Session input follows the DIMACS clause rule: a clause is decimal
   integers ending in a single 0 (so "0" is the empty clause), and
   assumptions are nonzero decimal integers. The check sits here, not in
   Store.apply, because WAL replay runs through Store.apply and must
   rebuild the sessions an earlier server acked. *)
let decimal tok =
  let n = String.length tok in
  let first = if n > 0 && tok.[0] = '-' then 1 else 0 in
  let rec digits i = i = n || (tok.[i] >= '0' && tok.[i] <= '9' && digits (i + 1)) in
  if n > first && digits first then int_of_string_opt tok else None

(* A session's solver lives in this process and costs about 310 bytes
   per declared variable, so one small request naming variable
   400000000 would allocate gigabytes here. The cap is checked before
   the WAL append: a logged op over it would fail again on every
   replay. *)
let max_session_vars = 1 lsl 16

let over_cap l = l > max_session_vars || l < -max_session_vars

let over_cap_error field tok =
  Printf.sprintf "%s literal %s is over the cap of %d variables" field tok
    max_session_vars

let check_clause clause =
  let rec go = function
    | [] -> Error "clause does not end in 0"
    | tok :: rest -> (
      match (decimal tok, rest) with
      | None, _ -> Error (Printf.sprintf "unexpected token %S" tok)
      | Some 0, [] -> Ok ()
      | Some 0, next :: _ ->
        Error (Printf.sprintf "unexpected token %S after the clause's 0" next)
      | Some l, _ when over_cap l -> Error (over_cap_error "clause" tok)
      | Some _, _ -> go rest)
  in
  go (Store.tokens clause)

let check_assumptions assumptions =
  match
    List.find_map
      (fun tok ->
        match decimal tok with
        | Some 0 | None -> Some (Printf.sprintf "unexpected token %S" tok)
        | Some l when over_cap l -> Some (over_cap_error "assumptions" tok)
        | Some _ -> None)
      (Store.tokens assumptions)
  with
  | Some msg -> Error msg
  | None -> Ok ()

(* Incremental sessions run in-process through the durable
   Session_store; solver budgets (not supervisor deadlines) bound their
   solve steps, so a session solve stalls the event loop for at most
   the deadline. With a WAL, Session_store appends every mutating op to
   the log before this handler acks it. *)
let handle_session t ~id reply fields =
  let sid = Option.value (J.find_string fields "sid") ~default:"s0" in
  let action = field fields "action" in
  let key = J.find_string fields "key" in
  let ok rest = reply (base_response ~id ~status:"ok" rest) in
  let err msg = reply (error_response ~id msg) in
  let invalid msg = Error (Printf.sprintf "session: %s: %s" action msg) in
  let checked check text op =
    match check text with Ok () -> Ok op | Error msg -> invalid msg
  in
  let op =
    match action with
    | "new" -> (
      match
        numeric fields "vars" ~default:0 ~rule:"an integer >= 0" (function
          | J.Int v when v >= 0 -> Some v
          | _ -> None)
      with
      | Ok vars when vars > max_session_vars ->
        invalid
          (Printf.sprintf "vars %d is over the cap of %d" vars max_session_vars)
      | Ok vars -> Ok (Store.New vars)
      | Error msg -> invalid msg)
    | "new_var" -> (
      match Store.info t.store sid with
      | Some (vars, _) when vars >= max_session_vars ->
        invalid
          (Printf.sprintf "the session already has the cap of %d variables"
             max_session_vars)
      | _ -> Ok Store.New_var)
    | "add" -> (
      match J.find_string fields "clause" with
      | None -> invalid "missing clause field"
      | Some clause -> checked check_clause clause (Store.Add clause))
    | "solve" ->
      let assumptions = field fields "assumptions" in
      checked check_assumptions assumptions (Store.Solve assumptions)
    | "close" -> Ok Store.Close
    | other -> Error (Printf.sprintf "session: unknown action %S" other)
  in
  match (action, op) with
  | "info", _ -> (
    (* Read-only session probe: the acked-op count that e2e and the
       tests compare against their shadow of each session. *)
    match Store.info t.store sid with
    | Some (vars, clauses) ->
      ok
        [
          ("sid", J.String sid);
          ("vars", J.Int vars);
          ("clauses", J.Int clauses);
        ]
    | None -> err (Printf.sprintf "session: unknown sid %s" sid))
  | _, Error msg -> err msg
  | _, Ok op -> (
    let t0 = Unix.gettimeofday () in
    let outcome = Store.apply t.store ?key ~sid op in
    match outcome.Store.reply with
    | Error msg -> err msg
    | Ok rest ->
      let rest =
        match op with
        | Store.Solve _ ->
          rest
          @ [
              ("latency_ms", J.Float (1000.0 *. (Unix.gettimeofday () -. t0)));
            ]
        | _ -> rest
      in
      let rest =
        if outcome.Store.replayed then
          rest @ [ ("replayed", J.Bool true) ]
        else rest
      in
      ok rest)

let reject t ~id reply =
  Obs.Metrics.incr m_rejected;
  let record = base_response ~id ~status:"rejected" [] in
  reply record;
  journal_append t record

let handle t ~reply payload =
  Obs.Metrics.incr m_requests;
  match J.parse_line payload with
  | None -> reply (error_response ~id:"" "malformed JSON frame")
  | Some fields -> (
    let id = field fields "id" in
    match field fields "op" with
    | "ping" -> reply (base_response ~id ~status:"ok" [])
    | "metrics" -> handle_metrics t ~id reply
    | _ when t.draining ->
      (* Draining: in-flight work finishes, new work is turned away. *)
      reject t ~id reply
    | "solve" -> handle_solve t ~id reply fields
    | "session" -> handle_session t ~id reply fields
    | other -> reply (error_response ~id (Printf.sprintf "unknown op %S" other)))

(* --- housekeeping and drain ---------------------------------------------- *)

(* Pool scheduling, then housekeeping. The loop pumps on every wakeup
   (a frame, a worker's pipe, or the 50 ms timeout), so the idle-session
   TTL sweep is time-gated to roughly once a second. *)
let pump t =
  Runtime.Pool.pump t.pool;
  let now = Unix.gettimeofday () in
  if now -. t.last_sweep >= 1.0 then begin
    t.last_sweep <- now;
    let n = Store.evict_idle t.store in
    if n > 0 then log t "evicted %d idle session(s)" n
  end

(* In-flight workers finish under their own limits (the pool launches
   nothing new once Shutdown is requested); their responses flow out
   through on_pool_complete; queued-but-never-launched requests are
   rejected so no client is left hanging. *)
let drain t =
  t.draining <- true;
  log t "draining: %d in flight, %d queued"
    (Runtime.Pool.in_flight t.pool)
    (Runtime.Pool.queued t.pool);
  let not_run = Runtime.Pool.drain t.pool in
  List.iter
    (fun pool_id ->
      match Hashtbl.find_opt t.pending pool_id with
      | None -> ()
      | Some pr ->
        Hashtbl.remove t.pending pool_id;
        reject t ~id:pr.pr_user_id pr.pr_reply)
    not_run;
  Store.close t.store;
  journal_append t
    [
      ("event", J.String "drained");
      ("completed", J.Int (Obs.Metrics.counter_value m_completed));
      ("rejected", J.Int (Obs.Metrics.counter_value m_rejected));
      ("shed", J.Int (Runtime.Pool.shed_count t.pool));
    ];
  log t "drained cleanly"

(* --- event loop --------------------------------------------------------- *)

(* Long enough for a reading client to take a socket buffer's worth of
   a large reply; short enough that one that stopped reading stalls the
   loop only briefly before it is dropped. *)
let send_timeout_s = 5.0

(* A failed write (EPIPE from a peer that shut its read side, or the
   send timeout) drops the client; replies still owed to it are
   discarded, so none reaches a closed or reused descriptor. *)
let reply_to t c record =
  c.awaiting <- c.awaiting - 1;
  if c.writable then
    try Runtime.Frame.write c.output (J.encode record)
    with Unix.Unix_error _ ->
      c.writable <- false;
      log t "client write failed; dropping connection"

(* A malformed length prefix ends the input like EOF does. *)
let read_client t c =
  (match Runtime.Frame.read_into c.reader c.input with
  | `Eof -> c.reading <- false
  | `Data | `Blocked -> ());
  let rec frames () =
    if c.writable then
      match Runtime.Frame.next c.reader with
      | Some payload ->
        c.awaiting <- c.awaiting + 1;
        handle t ~reply:(reply_to t c) payload;
        frames ()
      | None -> ()
  in
  frames ();
  if Runtime.Frame.malformed c.reader then c.reading <- false

let accept listener =
  match Unix.accept listener with
  | fd, _ ->
    (* BSD accept inherits the listener's O_NONBLOCK; Linux does not. *)
    Unix.clear_nonblock fd;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
    Some (new_client fd fd)
  | exception Unix.Unix_error _ -> None

let serve t ?listener initial =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  t.listener <- listener;
  t.clients <- List.map (fun (i, o) -> new_client i o) initial;
  let stop = ref false in
  while not !stop do
    if Runtime.Shutdown.requested () && not t.draining then begin
      t.draining <- true;
      Option.iter close_quietly t.listener;
      t.listener <- None
    end;
    let reading = List.filter (fun c -> c.reading) t.clients in
    (* Worker pipes wake the loop when a solve finishes. The timeout
       only paces the watchdog, deadlines, retry backoff and the idle
       sweep. *)
    let readable, _, _ =
      try
        Unix.select
          (Option.to_list t.listener
          @ List.map (fun c -> c.input) reading
          @ Runtime.Pool.wait_fds t.pool)
          [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (match t.listener with
    | Some l when List.mem l readable ->
      Option.iter (fun c -> t.clients <- c :: t.clients) (accept l)
    | _ -> ());
    List.iter
      (fun c -> if List.mem c.input readable then read_client t c)
      reading;
    pump t;
    t.clients <-
      List.filter
        (fun c ->
          if c.writable && (c.reading || c.awaiting > 0) then true
          else begin
            close_client c;
            false
          end)
        t.clients;
    stop :=
      t.draining
      || (t.listener = None && not (List.exists (fun c -> c.reading) t.clients))
  done;
  drain t;
  List.iter close_client t.clients;
  t.clients <- []
