(* Tests for ns-serve's library: the durable session store (WAL-backed
   recovery, idempotency-key dedup, the session-table cap, TTL
   eviction), the request handler driven in process through a reply
   callback, and the select loop over real sockets. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Store = Nserve.Session_store

let with_temp_dir f =
  let dir = Filename.temp_file "nsserve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let create_ok cfg =
  match Store.create cfg with
  | Ok (t, stats) -> (t, stats)
  | Error e -> Alcotest.failf "create: %s" (Runtime.Error.to_string e)

let apply_ok t ?key ~sid op =
  match (Store.apply t ?key ~sid op).Store.reply with
  | Ok fields -> fields
  | Error msg -> Alcotest.failf "apply on %s: %s" sid msg

let test_volatile_session_lifecycle () =
  let t, stats = create_ok Store.default_config in
  checki "fresh store is empty" 0 stats.Store.sessions;
  ignore (apply_ok t ~sid:"s" (Store.New 2));
  ignore (apply_ok t ~sid:"s" (Store.Add "1 2 0"));
  ignore (apply_ok t ~sid:"s" (Store.Add "-1 0"));
  (match Store.info t "s" with
  | Some (2, 2) -> ()
  | Some (v, c) -> Alcotest.failf "info says %d vars, %d clauses" v c
  | None -> Alcotest.fail "session missing");
  let fields = apply_ok t ~sid:"s" (Store.Solve "") in
  checkb "solve answers sat" true
    (Runtime.Journal.find_string fields "verdict" = Some "sat");
  (* Auto-introduction through Add, clean error for unknown solve vars. *)
  ignore (apply_ok t ~sid:"s" (Store.Add "5 0"));
  (match Store.info t "s" with
  | Some (5, 3) -> ()
  | _ -> Alcotest.fail "clause did not auto-introduce vars");
  (match (Store.apply t ~sid:"s" (Store.Solve "9")).Store.reply with
  | Error msg ->
    checkb "out-of-range assumption is a clean client error" true
      (String.length msg > 0 && msg.[0] = 's' (* "solve: ..." not "io ..." *))
  | Ok _ -> Alcotest.fail "unknown assumption variable accepted");
  ignore (apply_ok t ~sid:"s" Store.Close);
  checkb "closed session gone" true (Store.info t "s" = None);
  (* Tolerant double close; strict unknown-sid mutation. *)
  ignore (apply_ok t ~sid:"s" Store.Close);
  match (Store.apply t ~sid:"s" (Store.Add "1 0")).Store.reply with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "add on a closed session accepted"

let test_recovery_and_dedup () =
  with_temp_dir (fun dir ->
      let cfg = { Store.default_config with Store.wal_dir = Some dir } in
      let t, _ = create_ok cfg in
      ignore (apply_ok t ~key:"a" ~sid:"s" (Store.New 2));
      ignore (apply_ok t ~key:"b" ~sid:"s" (Store.Add "1 -2 0"));
      let first = apply_ok t ~key:"c" ~sid:"s" (Store.Solve "") in
      (* Same key, same reply, no re-execution — live. *)
      let retry = Store.apply t ~key:"c" ~sid:"s" (Store.Solve "") in
      checkb "live retry deduped" true retry.Store.replayed;
      checkb "live retry reply identical" true (retry.Store.reply = Ok first);
      (* SIGKILL: abandon without close, then recover. *)
      let t2, stats = create_ok cfg in
      checki "session recovered" 1 stats.Store.sessions;
      checki "ops replayed" 3 stats.Store.replayed;
      (match Store.info t2 "s" with
      | Some (2, 1) -> ()
      | _ -> Alcotest.fail "recovered session state wrong");
      (* Same key against the recovered store: the replay rebuilt the
         dedup cache, so the reply is the cached one. *)
      let retry2 = Store.apply t2 ~key:"c" ~sid:"s" (Store.Solve "") in
      checkb "post-crash retry deduped" true retry2.Store.replayed;
      checkb "post-crash retry reply identical" true
        (retry2.Store.reply = Ok first);
      Store.close t2)

let test_snapshot_recovery () =
  with_temp_dir (fun dir ->
      let cfg =
        {
          Store.default_config with
          Store.wal_dir = Some dir;
          snapshot_every = 4;
        }
      in
      let t, _ = create_ok cfg in
      ignore (apply_ok t ~sid:"s" (Store.New 2));
      ignore (apply_ok t ~sid:"s" (Store.Add "1 2 0"));
      ignore (apply_ok t ~sid:"s" (Store.Add "-1 2 0"));
      ignore (apply_ok t ~sid:"s" (Store.Add "-2 1 0"));
      (* 4 appends -> snapshot written; these two replay from the log. *)
      ignore (apply_ok t ~sid:"t" (Store.New 1));
      ignore (apply_ok t ~sid:"t" (Store.Add "1 0"));
      let t2, stats = create_ok cfg in
      checkb "recovery used the snapshot" true stats.Store.from_snapshot;
      checki "only post-snapshot ops replayed" 2 stats.Store.replayed;
      checki "both sessions recovered" 2 stats.Store.sessions;
      (match (Store.info t2 "s", Store.info t2 "t") with
      | Some (2, 3), Some (1, 1) -> ()
      | _ -> Alcotest.fail "snapshot+replay state wrong");
      (* The snapshotted solver still solves: consistency proof. *)
      let fields = apply_ok t2 ~sid:"s" (Store.Solve "1") in
      checkb "recovered-from-snapshot session solves" true
        (Runtime.Journal.find_string fields "verdict" = Some "sat");
      Store.close t2)

(* A clause with an embedded newline (legal through the wire's JSON
   \n escape) must survive the snapshot round-trip: whitespace is
   normalised on entry and the snapshot stores one field per clause,
   so restore can never mis-split a clause into bogus fragments or
   crash [create] on an out-of-range variable. *)
let test_snapshot_newline_clause () =
  with_temp_dir (fun dir ->
      let cfg =
        {
          Store.default_config with
          Store.wal_dir = Some dir;
          snapshot_every = 3;
        }
      in
      let t, _ = create_ok cfg in
      ignore (apply_ok t ~sid:"s" (Store.New 1));
      ignore (apply_ok t ~sid:"s" (Store.Add "1 -2 0"));
      (* Third append triggers the snapshot; this clause carries the
         hostile newline and auto-introduces nothing new. *)
      ignore (apply_ok t ~sid:"s" (Store.Add "2\n1 0"));
      (* SIGKILL: abandon without close, then recover. *)
      let t2, stats = create_ok cfg in
      checkb "recovery used the snapshot" true stats.Store.from_snapshot;
      checki "no restore errors" 0 stats.Store.restore_errors;
      (match Store.info t2 "s" with
      | Some (2, 2) -> ()
      | Some (v, c) -> Alcotest.failf "restored %d vars, %d clauses" v c
      | None -> Alcotest.fail "session lost in snapshot restore");
      let fields = apply_ok t2 ~sid:"s" (Store.Solve "") in
      checkb "restored session solves" true
        (Runtime.Journal.find_string fields "verdict" = Some "sat");
      Store.close t2)

let test_max_sessions_cap () =
  let cfg = { Store.default_config with Store.max_sessions = 2 } in
  let t, _ = create_ok cfg in
  ignore (apply_ok t ~sid:"a" (Store.New 1));
  ignore (apply_ok t ~sid:"b" (Store.New 1));
  (match (Store.apply t ~sid:"c" (Store.New 1)).Store.reply with
  | Error msg ->
    checkb "cap error names the cap" true
      (String.length msg > 0 && Store.session_count t = 2)
  | Ok _ -> Alcotest.fail "session table cap not enforced");
  (* Replacing an existing sid is not a new session: allowed at cap. *)
  ignore (apply_ok t ~sid:"a" (Store.New 3));
  checki "replacement kept the count" 2 (Store.session_count t);
  (* Closing frees a slot. *)
  ignore (apply_ok t ~sid:"b" Store.Close);
  ignore (apply_ok t ~sid:"c" (Store.New 1));
  checki "slot reuse after close" 2 (Store.session_count t)

let test_ttl_eviction_survives_recovery () =
  with_temp_dir (fun dir ->
      let cfg =
        {
          Store.default_config with
          Store.wal_dir = Some dir;
          session_ttl = 0.05;
        }
      in
      let t, _ = create_ok cfg in
      ignore (apply_ok t ~sid:"old" (Store.New 1));
      checki "nothing idle yet" 0 (Store.evict_idle t);
      Unix.sleepf 0.08;
      ignore (apply_ok t ~sid:"fresh" (Store.New 1));
      checki "one idle session evicted" 1 (Store.evict_idle t);
      checki "eviction counter" 1 (Store.evictions t);
      checkb "evicted session gone" true (Store.info t "old" = None);
      checkb "fresh session kept" true (Store.info t "fresh" <> None);
      (* Evictions are WAL-logged: a recovered server must not
         resurrect the evicted session. *)
      let t2, stats = create_ok cfg in
      checki "only the live session recovered" 1 stats.Store.sessions;
      checkb "evicted stays evicted after recovery" true
        (Store.info t2 "old" = None);
      Store.close t2)

(* --- the request handler, in process ------------------------------------ *)

module Server = Nserve.Server
module J = Runtime.Journal

let server_config =
  {
    Server.jobs = 1;
    max_queue = 8;
    max_retries = 2;
    deadline = 10.0;
    mem_mb = Some 1024;
    journal = None;
    allow_inject = false;
    selector = None;
    store = Store.default_config;
    verbose = false;
  }

let create_server config =
  match Server.create config with
  | Ok srv -> srv
  | Error e -> Alcotest.failf "Server.create: %s" (Runtime.Error.to_string e)

let checks what expected got =
  Alcotest.(check (option string)) what (Some expected) got

(* One frame answered at once: its single reply. *)
let request_raw srv payload =
  let replies = ref [] in
  Server.handle srv ~reply:(fun r -> replies := r :: !replies) payload;
  match !replies with
  | [ r ] -> r
  | rs -> Alcotest.failf "%d replies to one request" (List.length rs)

let request srv fields = request_raw srv (J.encode fields)

(* A pool-backed request: answered only once the pool is pumped. *)
let request_pumped srv fields =
  let reply = ref None in
  Server.handle srv ~reply:(fun r -> reply := Some r) (J.encode fields);
  checkb "not answered before pumping" true (!reply = None);
  let deadline = Unix.gettimeofday () +. 30.0 in
  while !reply = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005;
    Server.pump srv
  done;
  match !reply with
  | Some r -> r
  | None -> Alcotest.fail "pool solve never answered"

let status r = J.find_string r "status"
let op name = ("op", J.String name)
let id v = ("id", J.String v)

let session ?(sid = "s") action rest =
  op "session" :: ("action", J.String action) :: ("sid", J.String sid) :: rest

let test_server_ping_and_metrics () =
  let srv = create_server server_config in
  let r = request srv [ op "ping"; id "p1" ] in
  checks "ping ok" "ok" (status r);
  checks "id echoed" "p1" (J.find_string r "id");
  let m = request srv [ op "metrics"; id "m" ] in
  Alcotest.(check (list string))
    "metrics field set"
    [
      "id"; "status"; "degraded"; "requests"; "cache_hits"; "cache_misses";
      "cache_evictions"; "cache_size"; "completed"; "failed"; "rejected";
      "shed"; "worker_retries"; "in_flight"; "queued"; "sessions"; "evicted";
      "snapshot_failures"; "wal"; "draining";
    ]
    (List.map fst m);
  checkb "not draining" true (J.find_bool m "draining" = Some false)

let test_server_errors () =
  let srv = create_server server_config in
  let malformed = request_raw srv "{\"op\": \"ping\"" in
  checks "malformed JSON is an error" "error" (status malformed);
  checks "malformed JSON has an empty id" "" (J.find_string malformed "id");
  checks "unknown op" "error" (status (request srv [ op "frobnicate"; id "u" ]));
  checks "unknown session action" "error"
    (status (request srv (session "explode" [])));
  checks "solve without dimacs" "error" (status (request srv [ op "solve" ]));
  let info = request srv (session ~sid:"nope" "info" []) in
  checks "info on an unknown sid" "error" (status info);
  checks "names the sid" "session: unknown sid nope" (J.find_string info "error")

let test_server_sessions () =
  let srv = create_server server_config in
  checks "new" "ok" (status (request srv (session "new" [ ("vars", J.Int 2) ])));
  checks "add" "ok"
    (status (request srv (session "add" [ ("clause", J.String "1 2 0") ])));
  let keyed = session "add" [ ("clause", J.String "-1 0"); ("key", J.String "k1") ] in
  let first = request srv keyed in
  checks "keyed add" "ok" (status first);
  checkb "first keyed add executes" true (J.find_bool first "replayed" = None);
  let again = request srv keyed in
  checkb "repeated key is replayed" true (J.find_bool again "replayed" = Some true);
  let solved = request srv (session "solve" []) in
  checks "session solve" "sat" (J.find_string solved "verdict");
  checkb "session solve latency" true (J.find_float solved "latency_ms" <> None);
  let info = request srv (session "info" []) in
  checkb "replayed add ran once" true (J.find_int info "clauses" = Some 2)

let test_server_pool_solve () =
  let srv = create_server server_config in
  let r =
    request_pumped srv
      [ op "solve"; id "q"; ("dimacs", J.String "p cnf 2 2\n1 2 0\n-1 0\n") ]
  in
  checks "solve ok" "ok" (status r);
  checks "verdict" "sat" (J.find_string r "verdict");
  checks "model" "-1 2" (J.find_string r "model");
  checkb "one attempt" true (J.find_int r "attempts" = Some 1);
  checkb "latency reported" true (J.find_float r "latency_ms" <> None);
  checkb "no selection without a selector" true (J.find_string r "cache" = None)

let test_server_drain_rejects () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "serve.jsonl" in
      let srv = create_server { server_config with Server.journal = Some journal } in
      Server.drain srv;
      let r = request srv (session "new" [ id "late"; ("vars", J.Int 1) ]) in
      checks "request while draining" "rejected" (status r);
      checks "ping still answered" "ok" (status (request srv [ op "ping" ]));
      match J.load journal with
      | Error e -> Alcotest.failf "journal: %s" (Runtime.Error.to_string e)
      | Ok (records, _) ->
        checkb "drained event journaled" true
          (List.exists (fun r -> J.find_string r "event" = Some "drained") records);
        checkb "rejection journaled" true
          (List.exists
             (fun r ->
               J.find_string r "id" = Some "late"
               && J.find_string r "status" = Some "rejected")
             records))

let test_server_selector_cache () =
  Core.Selector.clear_cache ();
  let selector = Some (Core.Model.create Core.Model.paper_config) in
  let srv = create_server { server_config with Server.selector } in
  let solve dimacs = request_pumped srv [ op "solve"; ("dimacs", J.String dimacs) ] in
  let cold = solve "p cnf 4 5\n1 -2 0\n2 3 0\n-1 -3 4 0\n-4 1 0\n2 -3 0\n" in
  let warm = solve "p cnf 4 5\n2 -3 0\n-4 1 0\n2 3 0\n-1 -3 4 0\n1 -2 0\n" in
  checks "first solve misses" "miss" (J.find_string cold "cache");
  checks "clause-shuffled copy hits" "hit" (J.find_string warm "cache");
  List.iter
    (fun r ->
      checks "solved" "ok" (status r);
      checkb "policy" true (J.find_string r "policy" <> None);
      checkb "selection_ms" true (J.find_float r "selection_ms" <> None);
      checkb "probability" true (J.find_float r "probability" <> None))
    [ cold; warm ]

(* [degraded] belongs to the request. A formula without variables is a
   per-request model failure: each such solve falls back and says so,
   and none of them changes the next instance's decision or any other
   reply. *)
let test_server_degraded_per_request () =
  Core.Selector.clear_cache ();
  let selector = Some (Core.Model.create Core.Model.paper_config) in
  let srv = create_server { server_config with Server.selector } in
  let solve dimacs = request_pumped srv [ op "solve"; ("dimacs", J.String dimacs) ] in
  let degraded r = J.find_bool r "degraded" in
  for i = 1 to 5 do
    let r = solve "p cnf 0 0\n" in
    checkb (Printf.sprintf "fallback %d degraded" i) true (degraded r = Some true);
    checks "fallback policy" "default" (J.find_string r "policy");
    checkb "fallback has no probability" true (J.find_float r "probability" = None)
  done;
  let fresh = solve "p cnf 3 2\n1 2 0\n-1 3 0\n" in
  checkb "fresh instance not degraded" true (degraded fresh = Some false);
  checkb "fresh instance gets a model decision" true
    (match J.find_float fresh "probability" with
    | Some p -> Float.is_finite p
    | None -> false);
  checkb "ping not degraded" true (degraded (request srv [ op "ping" ]) = Some false)

(* --- the select loop over real sockets ----------------------------------- *)

type conn = { fd : Unix.file_descr; reader : Runtime.Frame.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; reader = Runtime.Frame.create_reader () }

(* Send a request and wait for the next reply frame; [None] when the
   server closed the connection or went silent. *)
let rpc ?(timeout = 30.0) c fields =
  match Runtime.Frame.write c.fd (J.encode fields) with
  | exception Unix.Unix_error _ -> None
  | () ->
    let deadline = Unix.gettimeofday () +. timeout in
    let rec wait () =
      match Runtime.Frame.next c.reader with
      | Some payload -> Some payload
      | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ c.fd ] [] [] left with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | [], _, _ -> None
          | _ -> (
            match Runtime.Frame.read_into c.reader c.fd with
            | `Eof -> None
            | `Data | `Blocked -> wait ()))
    in
    wait ()

let rpc_fields c fields = Option.bind (rpc c fields) J.parse_line

(* Serve a fresh listening socket from a forked child, run [f] on its
   path as the client side, then SIGTERM the child: returns how it
   ended (the drain contract says exit 0). *)
let with_served_socket f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "serve.sock" in
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lfd (Unix.ADDR_UNIX path);
      Unix.listen lfd 8;
      Unix.set_nonblock lfd;
      match Unix.fork () with
      | 0 ->
        let code =
          try
            Runtime.Shutdown.reset ();
            Runtime.Shutdown.install ();
            Server.serve (create_server server_config) ~listener:lfd [];
            0
          with _ -> 2
        in
        Unix._exit code
      | pid ->
        Unix.close lfd;
        (* A dead server must fail the test, not kill the test runner. *)
        let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
        let reaped = ref false in
        Fun.protect
          ~finally:(fun () ->
            Sys.set_signal Sys.sigpipe sigpipe;
            if not !reaped then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end)
          (fun () ->
            f path;
            Unix.kill pid Sys.sigterm;
            let _, st = Unix.waitpid [] pid in
            reaped := true;
            st))

(* EOF on a client's input stops reading it, not answering it: a
   half-closed client still gets every reply it is owed, and then the
   loop, with no listener and no reading client left, drains and
   returns (the stdio server's exit path). *)
let test_server_answers_after_eof () =
  let srv = create_server server_config in
  let server_end, client_end =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  List.iter
    (fun fields -> Runtime.Frame.write client_end (J.encode fields))
    [
      [ op "ping"; id "a" ];
      [ op "solve"; id "b"; ("dimacs", J.String "p cnf 1 1\n1 0\n") ];
    ];
  Unix.shutdown client_end Unix.SHUTDOWN_SEND;
  Server.serve srv [ (server_end, server_end) ];
  let reader = Runtime.Frame.create_reader () in
  while Runtime.Frame.read_into reader client_end <> `Eof do
    ()
  done;
  Unix.close client_end;
  let rec ids acc =
    match Runtime.Frame.next reader with
    | Some payload ->
      ids (Option.bind (J.parse_line payload) (fun r -> J.find_string r "id") :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (option string)))
    "both requests answered" [ Some "a"; Some "b" ] (ids [])

(* A client that sends a solve and then shuts down its read side turns
   the reply's write into EPIPE. The server must drop that client only:
   without SIGPIPE ignored it dies on the write. *)
let test_server_survives_peer_that_stops_reading () =
  let exit_status =
    with_served_socket (fun path ->
        let stalled = connect path in
        Runtime.Frame.write stalled.fd
          (J.encode [ op "solve"; ("dimacs", J.String "p cnf 2 1\n1 2 0\n") ]);
        Unix.shutdown stalled.fd Unix.SHUTDOWN_RECEIVE;
        (* The stalled request was read before this client's first one,
           so an idle pool means its reply has been written. *)
        let probe = connect path in
        let rec settle tries =
          match rpc_fields probe [ op "metrics" ] with
          | None -> Alcotest.fail "server stopped answering"
          | Some m
            when J.find_int m "in_flight" = Some 0
                 && J.find_int m "queued" = Some 0 -> ()
          | Some _ when tries > 0 ->
            Unix.sleepf 0.02;
            settle (tries - 1)
          | Some _ -> Alcotest.fail "stalled client's solve never finished"
        in
        settle 1500;
        let fresh = connect path in
        let pong = rpc_fields fresh [ op "ping"; id "after" ] in
        checkb "a fresh client's ping is answered" true
          (Option.bind pong status = Some "ok");
        List.iter (fun c -> Unix.close c.fd) [ stalled; probe; fresh ])
  in
  checkb "server drained and exited 0" true (exit_status = Unix.WEXITED 0)

(* A reply much larger than the socket buffer must reach a reading
   peer whole: a non-blocking socket tears it at the first EAGAIN. *)
let test_server_large_reply_whole () =
  let vars = 700_000 in
  let exit_status =
    with_served_socket (fun path ->
        let c = connect path in
        checkb "new session" true
          (Option.bind (rpc_fields c (session "new" [ ("vars", J.Int vars) ])) status
          = Some "ok");
        match rpc c (session "solve" []) with
        | None -> Alcotest.fail "large reply torn or missing"
        | Some payload -> (
          checkb
            (Printf.sprintf "reply of %d bytes is over 4 MB" (String.length payload))
            true
            (String.length payload > 4_000_000);
          Unix.close c.fd;
          match Option.bind (J.parse_line payload) (fun r -> J.find_string r "model") with
          | None -> Alcotest.fail "reply has no model"
          | Some model ->
            checki "every variable in the model" vars
              (List.length (String.split_on_char ' ' model))))
  in
  checkb "server drained and exited 0" true (exit_status = Unix.WEXITED 0)

let suite =
  [
    Alcotest.test_case "volatile session lifecycle" `Quick
      test_volatile_session_lifecycle;
    Alcotest.test_case "crash recovery + exactly-once dedup" `Quick
      test_recovery_and_dedup;
    Alcotest.test_case "snapshot + replay recovery" `Quick
      test_snapshot_recovery;
    Alcotest.test_case "newline clause survives snapshot" `Quick
      test_snapshot_newline_clause;
    Alcotest.test_case "max-sessions cap" `Quick test_max_sessions_cap;
    Alcotest.test_case "ttl eviction survives recovery" `Quick
      test_ttl_eviction_survives_recovery;
    Alcotest.test_case "server ping and metrics" `Quick
      test_server_ping_and_metrics;
    Alcotest.test_case "server error replies" `Quick test_server_errors;
    Alcotest.test_case "server sessions and keys" `Quick test_server_sessions;
    Alcotest.test_case "server pool solve" `Quick test_server_pool_solve;
    Alcotest.test_case "server drain rejects" `Quick test_server_drain_rejects;
    Alcotest.test_case "server degraded per request" `Quick
      test_server_degraded_per_request;
    Alcotest.test_case "server selector cache" `Quick
      test_server_selector_cache;
    Alcotest.test_case "server answers after eof" `Quick
      test_server_answers_after_eof;
    Alcotest.test_case "server survives peer that stops reading" `Quick
      test_server_survives_peer_that_stops_reading;
    Alcotest.test_case "server large reply whole" `Quick
      test_server_large_reply_whole;
  ]
