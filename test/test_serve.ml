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

(* The first line starting with [prefix] in the log files of [dir]
   whose names end in [suffix]: WAL segments and snapshots keep each
   record's bytes on lines of their own. *)
let log_line dir suffix prefix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.concat_map (fun f ->
         String.split_on_char '\n'
           (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  |> List.find_opt (String.starts_with ~prefix)

let test_recovery_and_dedup () =
  with_temp_dir (fun dir ->
      let cfg = { Store.default_config with Store.wal_dir = Some dir } in
      let t, _ = create_ok cfg in
      ignore (apply_ok t ~key:"a" ~sid:"s" (Store.New 2));
      ignore (apply_ok t ~key:"b" ~sid:"s" (Store.Add "1 -2 0"));
      (* Session records hold no floats; their bytes stay as written. *)
      Alcotest.(check (option string))
        "add record bytes"
        (Some {|{"sop":"add","clause":"1 -2 0","sid":"s","key":"b"}|})
        (log_line dir ".seg" {|{"sop":"add"|});
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
      (match Store.snapshot_now t2 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
      Alcotest.(check (option string))
        "snapshot dedup line bytes"
        (Some
           {|{"k":"dedup","key":"c#245e6940","resp":"{\"verdict\":\"sat\",\"model\":\"-1 -2\",\"core\":null}"}|})
        (log_line dir ".snap" {|{"k":"dedup","key":"c#|});
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

(* e2e's sessions workload at its steady state: 8 sessions of 120
   variables, each grown by random 3-SAT clauses to 480 and then closed
   and replaced, every op keyed. Of the logged ops, 90% are adds and 10%
   solves under two assumptions (e2e's info ops are never logged), and
   4600 of them leave the dedup cache at its 4096 keys. *)
let sessions_steady_state t =
  let rng = Util.Rng.create 1 in
  let sids = Array.init 8 (fun k -> Printf.sprintf "s%d" k) in
  let counts = Array.make 8 0 in
  let ops = ref 0 in
  let keyed sid op =
    incr ops;
    ignore (apply_ok t ~key:(Printf.sprintf "k%d" !ops) ~sid op)
  in
  let lit v = string_of_int (if Util.Rng.bool rng then v else -v) in
  Array.iter (fun sid -> keyed sid (Store.New 120)) sids;
  while !ops < 4600 do
    let k = Util.Rng.int rng 8 in
    if counts.(k) >= 480 then begin
      keyed sids.(k) Store.Close;
      sids.(k) <- Printf.sprintf "s%d" (8 + !ops);
      counts.(k) <- 0;
      keyed sids.(k) (Store.New 120)
    end
    else if Util.Rng.float rng 1.0 < 0.9 then begin
      let vs = Util.Rng.sample_distinct rng 3 120 in
      keyed sids.(k)
        (Store.Add
           (String.concat " " (Array.to_list (Array.map (fun v -> lit (v + 1)) vs))
           ^ " 0"));
      counts.(k) <- counts.(k) + 1
    end
    else
      keyed sids.(k)
        (Store.Solve
           (lit (1 + Util.Rng.int rng 60) ^ " " ^ lit (61 + Util.Rng.int rng 60)))
  done

(* A snapshot streams its lines to the file instead of building its
   payload (about 470 KB here) as one string and copying it: at the
   sessions steady state it must allocate fewer major-heap words than
   the payload has words. Building it whole cost about 5.5 times that. *)
let test_snapshot_streams_without_garbage () =
  with_temp_dir (fun dir ->
      let t, _ =
        create_ok
          {
            Store.default_config with
            Store.wal_dir = Some dir;
            snapshot_every = 0;
          }
      in
      sessions_steady_state t;
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      (match Store.snapshot_now t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
      let grown = (Gc.quick_stat ()).Gc.major_words -. before in
      Store.close t;
      let snap =
        match
          List.filter
            (fun n -> Filename.check_suffix n ".snap")
            (Array.to_list (Sys.readdir dir))
        with
        | [ name ] ->
          In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
        | names -> Alcotest.failf "%d snapshot files" (List.length names)
      in
      let payload =
        match Runtime.Record.decode ~magic:"NSSNAP1" snap with
        | Ok (_, payload, _) -> payload
        | Error e ->
          Alcotest.failf "snapshot: %s" (Runtime.Record.error_to_string e)
      in
      let lines kind =
        let prefix = Printf.sprintf {|{"k":"%s"|} kind in
        List.length
          (List.filter
             (String.starts_with ~prefix)
             (String.split_on_char '\n' payload))
      in
      checki "session lines" 8 (lines "sess");
      checki "dedup lines" 4096 (lines "dedup");
      let words = String.length payload / (Sys.word_size / 8) in
      checkb
        (Printf.sprintf
           "a %d-byte snapshot grew the major heap by %.0f words (< %d)"
           (String.length payload) grown words)
        true
        (grown < float_of_int words))

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
  checks "names the sid" "session: unknown sid nope" (J.find_string info "error");
  (* Arrays and objects are JSON like any other: a field of the wrong
     kind gets its own error and unknown fields are ignored. *)
  checks "nested extra field ignored" "ok"
    (status (request_raw srv {|{"op":"ping","extra":[1,{"a":[]}]}|}));
  checks "non-string dimacs" "solve: missing dimacs field"
    (J.find_string (request_raw srv {|{"op":"solve","dimacs":["p cnf 1 1"]}|}) "error");
  let t0 = Unix.gettimeofday () in
  let deep = request_raw srv ("{\"op\":" ^ String.make 10_000_000 '[') in
  checks "10^7 open brackets are malformed" "malformed JSON frame"
    (J.find_string deep "error");
  checkb "and answered at once" true (Unix.gettimeofday () -. t0 < 0.5);
  (* Seeded hostile frames, one at a time: each gets exactly one reply
     (a solve that reaches the pool once it is pumped) and none raises. *)
  let rng = Util.Rng.create 26 in
  let pick xs = Util.Rng.choose rng (Array.of_list xs) in
  let str xs = List.map (Printf.sprintf "%S") xs in
  let rec value depth =
    match Util.Rng.int rng (if depth >= 3 then 3 else 5) with
    | 0 ->
      pick
        [ "0"; "-1"; "2"; "-0"; "1.5"; "1e999"; "-1e999"; "1e-400"; "2.5e308";
          "123456789012345678901234567890"; "4611686018427387904"; "true";
          "null"; "NaN"; "-" ]
    | 1 ->
      pick
        (str [ "ping"; "session"; "solve"; "new"; "add"; "info"; "1 -2 0"; "" ]
        @ [ {|"\b\f\t"|}; {|"\u00e9"|}; {|"\ud800"|}; {|"\udc00"|};
            {|"\ud83d\ude00"|}; {|"\ud800\u0041"|}; {|"\u12"|}; {|"\u0000"|};
            "\"raw\ncontrol\"" ])
    | 2 -> pick [ "[]"; "{}"; "[[[[]]]]"; {|{"":{}}|} ]
    | 3 ->
      "["
      ^ String.concat ","
          (List.init (Util.Rng.int rng 4) (fun _ -> value (depth + 1)))
      ^ "]"
    | _ -> obj (depth + 1) []
  and obj depth fixed =
    let key () =
      pick
        [ "op"; "id"; "sid"; "action"; "vars"; "clause"; "assumptions"; "key";
          "dimacs"; "deadline_s"; "mem_mb"; ""; {|\u006fp|} ]
    in
    let members =
      fixed
      @ List.init (Util.Rng.int rng 5) (fun _ ->
            Printf.sprintf {|"%s":%s|} (key ()) (value depth))
    in
    "{" ^ String.concat "," members ^ "}"
  in
  for i = 1 to 400 do
    let frame =
      match Util.Rng.int rng 5 with
      | 0 -> value 0
      | _ ->
        let op = pick [ "ping"; "metrics"; "session"; "solve"; "frobnicate" ] in
        let session =
          [
            Printf.sprintf {|"action":%S|}
              (pick [ "new"; "new_var"; "add"; "solve"; "info"; "close" ]);
            Printf.sprintf {|"sid":%S|} (pick [ "a"; "b" ]);
          ]
        in
        obj 0
          (Printf.sprintf {|"op":%S|} op :: (if op = "session" then session else []))
    in
    let frame = frame ^ pick [ ""; " "; "\n"; "\r\n"; "\t \n " ] in
    let frame =
      if Util.Rng.int rng 10 = 0 then
        String.sub frame 0 (Util.Rng.int rng (String.length frame))
      else frame
    in
    let replies = ref 0 in
    (match Server.handle srv ~reply:(fun _ -> incr replies) frame with
    | () -> ()
    | exception e -> Alcotest.failf "frame %d %S raised %s" i frame (Printexc.to_string e));
    let deadline = Unix.gettimeofday () +. 30.0 in
    while !replies = 0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.002;
      Server.pump srv
    done;
    if !replies <> 1 then Alcotest.failf "frame %d %S got %d replies" i frame !replies
  done

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

(* A present vars, deadline_s or mem_mb must have the right type and
   sign. Coercing a bad one to the default would make a 0-variable
   session of "vars":-5 and run a solve under limits the client never
   asked for. Each bad value is answered with an error that names the
   field, at once: no WAL append, no policy selection, no fork. *)
let test_server_rejects_bad_numeric_fields () =
  with_temp_dir (fun dir ->
      let selector = Some (Core.Model.create Core.Model.paper_config) in
      let store = { Store.default_config with Store.wal_dir = Some dir } in
      let srv = create_server { server_config with Server.selector; store } in
      let misses () = (Core.Selector.cache_stats ()).Core.Selector.misses in
      let misses_before = misses () in
      let refused what expected fields =
        let r = request srv fields in
        checks what "error" (status r);
        checks (what ^ ": names the field") expected (J.find_string r "error")
      in
      List.iter
        (fun (what, v) ->
          refused ("vars " ^ what) "session: new: vars must be an integer >= 0"
            (session ~sid:"bad" "new" [ ("vars", v) ]))
        [
          ("-5", J.Int (-5));
          ("\"abc\"", J.String "abc");
          ("2.5", J.Float 2.5);
          ("true", J.Bool true);
          ("null", J.Null);
        ];
      let solve name v =
        [ op "solve"; ("dimacs", J.String "p cnf 1 1\n1 0\n"); (name, v) ]
      in
      List.iter
        (fun (what, v) ->
          refused ("deadline_s " ^ what)
            "solve: deadline_s must be a finite number > 0"
            (solve "deadline_s" v))
        [
          ("0", J.Int 0);
          ("-1.5", J.Float (-1.5));
          ("\"5\"", J.String "5");
          ("null", J.Null);
        ];
      let inf =
        request_raw srv
          "{\"op\":\"solve\",\"dimacs\":\"p cnf 1 1\\n1 0\\n\",\"deadline_s\":1e999}"
      in
      checks "deadline_s 1e999 (infinite)" "error" (status inf);
      checks "deadline_s 1e999: names the field"
        "solve: deadline_s must be a finite number > 0"
        (J.find_string inf "error");
      List.iter
        (fun (what, v) ->
          refused ("mem_mb " ^ what) "solve: mem_mb must be an integer > 0"
            (solve "mem_mb" v))
        [
          ("0", J.Int 0);
          ("-64", J.Int (-64));
          ("2.5", J.Float 2.5);
          ("\"64\"", J.String "64");
        ];
      checks "no session was made" "session: unknown sid bad"
        (J.find_string (request srv (session ~sid:"bad" "info" [])) "error");
      let m = request srv [ op "metrics" ] in
      checkb "metrics count no session" true (J.find_int m "sessions" = Some 0);
      checkb "nothing queued or in flight" true
        (J.find_int m "queued" = Some 0 && J.find_int m "in_flight" = Some 0);
      checki "no policy selection ran" misses_before (misses ());
      checki "nothing reached the WAL" 0
        (Array.fold_left
           (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
           0 (Sys.readdir dir));
      (* Absent fields keep their defaults; integral deadlines stay valid. *)
      checks "new without vars" "ok" (status (request srv (session "new" [])));
      checkb "a session of 0 vars" true
        (J.find_int (request srv (session "info" [])) "vars" = Some 0);
      let r =
        request_pumped srv
          [
            op "solve";
            ("dimacs", J.String "p cnf 1 1\n1 0\n");
            ("deadline_s", J.Int 5);
            ("mem_mb", J.Int 512);
          ]
      in
      checks "integral deadline_s and mem_mb solve" "sat"
        (J.find_string r "verdict");
      Server.drain srv)

(* An idempotency key replays only the request it was made for: the
   same key on another clause or another session runs as a new op, and
   a retry that differs only in spacing still replays. Snapshots and
   WAL replay keep that binding. *)
let test_server_key_bound_to_request () =
  with_temp_dir (fun dir ->
      let config =
        {
          server_config with
          Server.store =
            { Store.default_config with Store.wal_dir = Some dir; snapshot_every = 4 };
        }
      in
      let srv = create_server config in
      let keyed ?sid srv clause =
        request srv
          (session ?sid "add" [ ("clause", J.String clause); ("key", J.String "k") ])
      in
      let info ?sid srv = request srv (session ?sid "info" []) in
      let ran what r =
        checks what "ok" (status r);
        checkb (what ^ ": not replayed") true (J.find_bool r "replayed" = None)
      in
      checks "new s" "ok" (status (request srv (session "new" [ ("vars", J.Int 1) ])));
      ran "first keyed add" (keyed srv "1 0");
      ran "another clause under the same key" (keyed srv "-1 0");
      checkb "both clauses counted" true (J.find_int (info srv) "clauses" = Some 2);
      checks "both clauses solved" "unsat"
        (J.find_string (request srv (session "solve" [])) "verdict");
      checks "new t" "ok"
        (status (request srv (session ~sid:"t" "new" [ ("vars", J.Int 0) ])));
      ran "the same key on another session" (keyed ~sid:"t" srv "1 0");
      checkb "t counts its own clause" true
        (J.find_int (info ~sid:"t" srv) "clauses" = Some 1);
      let replays what srv sid clause =
        let r = keyed ~sid srv clause in
        checks what "ok" (status r);
        checkb (what ^ ": replayed") true (J.find_bool r "replayed" = Some true)
      in
      replays "a retry with extra spaces" srv "s" "  -1   0 ";
      checkb "the retry added nothing" true
        (J.find_int (info srv) "clauses" = Some 2);
      (* Abandon the server without a drain, as a crash would: the
         snapshot holds the first two keyed adds and the log replays
         the rest. *)
      let srv = create_server config in
      replays "after recovery, from the snapshot" srv "s" "1 0";
      replays "after recovery, from the log" srv "t" "1\t0";
      checkb "recovered counts" true
        (J.find_int (info srv) "clauses" = Some 2
        && J.find_int (info ~sid:"t" srv) "clauses" = Some 1);
      Server.drain srv)

(* Malformed session input is an error reply. Dropping the bad tokens
   instead would ack (and WAL-log) the empty clause, a shorter clause
   or fewer assumptions than the client sent. *)
let test_server_rejects_malformed_session_input () =
  let srv = create_server server_config in
  checks "new" "ok" (status (request srv (session "new" [ ("vars", J.Int 3) ])));
  checks "add" "ok"
    (status (request srv (session "add" [ ("clause", J.String "1 2 0") ])));
  let clauses () = J.find_int (request srv (session "info" [])) "clauses" in
  let refused what fields =
    checks what "error" (status (request srv fields));
    checkb (what ^ ": no clause counted") true (clauses () = Some 1)
  in
  let add clause = session "add" [ ("clause", J.String clause) ] in
  refused "junk token" (add "2x 0");
  refused "missing clause" (session "add" []);
  refused "two clauses" (add "1 0 2 0");
  refused "junk mid-clause" (add "-1 abc 0");
  refused "no terminating 0" (add "1 2");
  refused "hex token" (add "0x1 0");
  refused "junk assumption"
    (session "solve" [ ("assumptions", J.String "-2 junk") ]);
  refused "zero assumption" (session "solve" [ ("assumptions", J.String "1 0") ]);
  checks "the error names the bad token"
    "session: add: unexpected token \"abc\""
    (J.find_string (request srv (add "-1 abc 0")) "error");
  checks "a token after the 0 is named"
    "session: add: unexpected token \"2\" after the clause's 0"
    (J.find_string (request srv (add "1 0 2 0")) "error");
  checks "the session still solves" "sat"
    (J.find_string (request srv (session "solve" [])) "verdict");
  checks "assumptions still parse" "sat"
    (J.find_string
       (request srv (session "solve" [ ("assumptions", J.String "-1 2") ]))
       "verdict");
  checks "0 alone is the empty clause" "ok" (status (request srv (add "0")));
  checks "the empty clause makes the session unsat" "unsat"
    (J.find_string (request srv (session "solve" [])) "verdict")

(* Sessions run in the server process, so their size is capped before
   anything is logged or allocated. Both probes used to kill the server
   (a 400M-variable session, and one clause naming variable 400M), and
   since the op was logged first, a restart over the WAL died again
   replaying it. The server runs in a supervised worker capped at
   1.5 GB: should a cap regress, that worker runs out of memory, not
   the host. *)
let test_server_session_caps () =
  let limits =
    { Runtime.Supervisor.default_limits with mem_limit_mb = Some 1536 }
  in
  with_temp_dir (fun dir ->
      match
        Runtime.Supervisor.run limits (fun () ->
              let problems = ref [] in
              let expect what ok = if not ok then problems := what :: !problems in
              let store = { Store.default_config with Store.wal_dir = Some dir } in
              let srv = create_server { server_config with Server.store } in
              let answered what fields =
                expect what (status (request srv fields) = Some "ok")
              in
              let refused what fields error =
                expect what
                  (J.find_string (request srv fields) "error"
                  = Some (Printf.sprintf error Server.max_session_vars))
              in
              let add clause = session "add" [ ("clause", J.String clause) ] in
              Gc.minor ();
              let before = (Gc.quick_stat ()).Gc.major_words in
              refused "vars over the cap"
                (session ~sid:"big" "new" [ ("vars", J.Int 400_000_000) ])
                "session: new: vars 400000000 is over the cap of %d";
              answered "a 3-variable session opens"
                (session "new" [ ("vars", J.Int 3) ]);
              refused "a clause literal over the cap" (add "400000000 0")
                "session: add: clause literal 400000000 is over the cap of %d \
                 variables";
              answered "a ping is answered" [ op "ping" ];
              let grown = (Gc.quick_stat ()).Gc.major_words -. before in
              expect
                (Printf.sprintf "the major heap grew by %.0f words (< 1 M)" grown)
                (grown < 1e6);
              refused "an assumption over the cap"
                (session "solve" [ ("assumptions", J.String "-400000000") ])
                "session: solve: assumptions literal -400000000 is over the cap of %d \
                 variables";
              answered "a literal at the cap"
                (add (Printf.sprintf "-%d 0" Server.max_session_vars));
              refused "new_var past the cap" (session "new_var" [])
                "session: new_var: the session already has the cap of %d variables";
              Server.drain srv;
              (match Runtime.Wal.open_dir dir with
              | Error e -> expect (Runtime.Error.to_string e) false
              | Ok (wal, r) ->
                Runtime.Wal.close wal;
                expect "only the two accepted ops are logged"
                  (List.length r.Runtime.Wal.records = 2));
              match List.rev !problems with
              | [] -> Ok ""
              | problems -> Error (String.concat "; " problems))
      with
      | Runtime.Supervisor.Completed (Ok _) -> ()
      | verdict -> Alcotest.fail (Runtime.Supervisor.verdict_to_string verdict))

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

(* PHP(6,5) reaches its first reduce at 100 conflicts (152 in all), and
   so does any clause-shuffled copy of it: a solve that selects. *)
let php65 = Gen.Pigeonhole.unsat 5
let php65_dimacs = Cnf.Dimacs.to_string php65

(* The selection runs in the worker, at the first reduce, through the
   cache the worker inherited; the server counts the lookup and stores
   the decision. A solve that never reduces selects nothing. *)
let test_server_selector_cache () =
  Core.Selector.clear_cache ();
  let selector = Some (Core.Model.create Core.Model.paper_config) in
  let srv = create_server { server_config with Server.selector } in
  let solve dimacs = request_pumped srv [ op "solve"; ("dimacs", J.String dimacs) ] in
  (* The cache counters are process-lifetime totals. *)
  let counted () =
    let m = request srv [ op "metrics" ] in
    (J.find_int m "cache_hits", J.find_int m "cache_misses")
  in
  let since (h0, m0) =
    match (counted (), h0, m0) with
    | (Some h, Some m), Some h0, Some m0 -> (h - h0, m - m0)
    | _ -> Alcotest.fail "metrics without cache counters"
  in
  let start = counted () in
  let cold = solve php65_dimacs in
  let shuffled =
    Cnf.Dimacs.to_string (Cnf.Formula.shuffle (Util.Rng.create 5) php65)
  in
  checkb "the copy is shuffled" true (shuffled <> php65_dimacs);
  let warm = solve shuffled in
  checks "first solve misses" "miss" (J.find_string cold "cache");
  checks "clause-shuffled copy hits" "hit" (J.find_string warm "cache");
  List.iter
    (fun r ->
      checks "solved" "ok" (status r);
      checks "verdict" "unsat" (J.find_string r "verdict");
      checkb "not degraded" true (J.find_bool r "degraded" = Some false);
      checkb "policy" true (J.find_string r "policy" <> None);
      checkb "selection_ms" true (J.find_float r "selection_ms" <> None);
      checkb "probability" true (J.find_float r "probability" <> None);
      checkb "no internal field" true (J.find_string r "fingerprint" = None))
    [ cold; warm ];
  checkb "same decision" true
    (J.find_float cold "probability" = J.find_float warm "probability");
  checkb "server counted one hit and one miss" true (since start = (1, 1));
  checkb "server holds the decision" true
    (J.find_int (request srv [ op "metrics" ]) "cache_size" = Some 1);
  let small = solve "p cnf 4 5\n1 -2 0\n2 3 0\n-1 -3 4 0\n-4 1 0\n2 -3 0\n" in
  checks "small instance solved" "ok" (status small);
  checks "no selection before the first reduce" "none"
    (J.find_string small "cache");
  checkb "not degraded" true (J.find_bool small "degraded" = Some false);
  List.iter
    (fun field ->
      checkb ("no " ^ field) true (not (List.mem_assoc field small)))
    [ "policy"; "selection_ms"; "probability" ];
  checkb "no lookup counted" true (since start = (1, 1));
  Server.drain srv

(* The parent never parses a request's DIMACS or runs a forward: a
   20000-variable formula costs it only the reply. A parent that parsed
   it and ran the HGT forward would allocate about 3.3 M major words. *)
let test_server_parent_holds_no_formula () =
  Core.Selector.clear_cache ();
  let selector = Some (Core.Model.create Core.Model.paper_config) in
  let srv = create_server { server_config with Server.selector } in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r =
    request_pumped srv
      [ op "solve"; ("dimacs", J.String "p cnf 20000 1\n1 0\n") ]
  in
  let grown = (Gc.quick_stat ()).Gc.major_words -. before in
  checks "solved" "ok" (status r);
  checks "sat" "sat" (J.find_string r "verdict");
  checkb
    (Printf.sprintf "parent major heap grew by %.0f words (< 1 M)" grown)
    true (grown < 1e6);
  Server.drain srv

let load_journal path =
  match J.load path with
  | Ok (records, 0) -> records
  | Ok (_, torn) -> Alcotest.failf "journal has %d torn records" torn
  | Error e -> Alcotest.failf "journal: %s" (Runtime.Error.to_string e)

(* How many replies of each status the client saw. *)
let tally replies st =
  Hashtbl.fold (fun _ r n -> if status r = Some st then n + 1 else n) replies 0

(* The drained record closes the journal, and its counters match the
   client's tallies: [completed] and [rejected] are process-wide
   counters, so they count from the metrics reply taken before the
   burst. *)
let check_drained_matches ~before ~replies journal =
  match List.rev (load_journal journal) with
  | last :: _ when J.find_string last "event" = Some "drained" ->
    let since name =
      match (J.find_int last name, J.find_int before name) with
      | Some now, Some was -> Some (now - was)
      | _ -> None
    in
    List.iter
      (fun (field, st) ->
        checkb
          (Printf.sprintf "drained %s matches the %d %s replies" field
             (tally replies st) st)
          true
          (since field = Some (tally replies st)))
      [ ("completed", "ok"); ("rejected", "rejected"); ("shed", "shed") ]
  | _ -> Alcotest.fail "journal does not end with a drained record"

let small_instance = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"

(* Burst and drain, in process. With 2 jobs and a queue of 2, two
   solves launch, two more wait, and the rest of the burst is shed.
   A shutdown request before [drain] lets the two in flight finish and
   rejects the two waiting, so the counts are exact; every request
   gets exactly one reply and none is an error. *)
let test_server_burst_sheds_and_drains () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "serve.jsonl" in
      let srv =
        create_server
          { server_config with Server.jobs = 2; max_queue = 2; journal = Some journal }
      in
      let before = request srv [ op "metrics" ] in
      let replies = Hashtbl.create 16 in
      let submit i =
        let rid = Printf.sprintf "b%d" i in
        Server.handle srv
          ~reply:(fun r -> Hashtbl.add replies rid r)
          (J.encode [ op "solve"; id rid; ("dimacs", J.String small_instance) ])
      in
      submit 0;
      submit 1;
      Server.pump srv;
      for i = 2 to 9 do
        submit i
      done;
      Runtime.Shutdown.request ();
      Fun.protect ~finally:Runtime.Shutdown.reset (fun () -> Server.drain srv);
      for i = 0 to 9 do
        checki
          (Printf.sprintf "b%d answered exactly once" i)
          1
          (List.length (Hashtbl.find_all replies (Printf.sprintf "b%d" i)))
      done;
      checki "the two launched solves finished" 2 (tally replies "ok");
      checki "the two queued solves were rejected" 2 (tally replies "rejected");
      checki "the overflow was shed, not errored" 6 (tally replies "shed");
      let journaled = load_journal journal in
      Hashtbl.iter
        (fun rid r ->
          checkb (rid ^ " journaled once with its reply's status") true
            (List.filter_map
               (fun j ->
                 if J.find_string j "id" = Some rid then Some (status j)
                 else None)
               journaled
            = [ status r ]))
        replies;
      check_drained_matches ~before ~replies journal)

(* A worker that dies mid-solve is retried. Worker_crash is decided in
   the parent before the fork, so arming it with a limit of one kills
   exactly the first worker: the solve answers ok on attempt 2, the
   metrics count one retry, and the journal holds the request once. *)
let test_server_worker_crash_retried () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "serve.jsonl" in
      let srv = create_server { server_config with Server.journal = Some journal } in
      let retries () =
        J.find_int (request srv [ op "metrics" ]) "worker_retries"
      in
      let before = retries () in
      let r =
        Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
            Runtime.Fault.arm ~seed:7 ~limit:1 [ Runtime.Fault.Worker_crash ];
            let r =
              request_pumped srv
                [ op "solve"; id "crashy"; ("dimacs", J.String small_instance) ]
            in
            checki "the crash fired once" 1
              (Runtime.Fault.fired_count Runtime.Fault.Worker_crash);
            r)
      in
      checks "the retried solve answers ok" "ok" (status r);
      checks "with a verdict" "sat" (J.find_string r "verdict");
      checkb "on its second attempt" true (J.find_int r "attempts" = Some 2);
      checkb "metrics count one worker retry" true
        (retries () = Option.map succ before);
      checki "the journal holds the request once" 1
        (List.length
           (List.filter
              (fun j -> J.find_string j "id" = Some "crashy")
              (load_journal journal))))

(* [degraded] belongs to the request. An injected model failure, armed
   here and inherited by each forked worker, degrades each selection on
   its own: every such solve falls back and says so, and none of them
   changes the next instance's decision or any other reply. A formula
   that ends before its first reduce selects nothing and is not
   degraded. *)
let test_server_degraded_per_request () =
  Core.Selector.clear_cache ();
  let selector = Some (Core.Model.create Core.Model.paper_config) in
  let srv = create_server { server_config with Server.selector } in
  let solve dimacs = request_pumped srv [ op "solve"; ("dimacs", J.String dimacs) ] in
  let degraded r = J.find_bool r "degraded" in
  Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
      Runtime.Fault.arm ~seed:11 [ Runtime.Fault.Inference_failure ];
      for i = 1 to 5 do
        let r = solve php65_dimacs in
        checks "fallback solved" "ok" (status r);
        checkb (Printf.sprintf "fallback %d degraded" i) true (degraded r = Some true);
        checks "fallback policy" "default" (J.find_string r "policy");
        checks "fallback looked up the cache" "miss" (J.find_string r "cache");
        checkb "fallback has no probability" true (J.find_float r "probability" = None)
      done);
  let fresh = solve (Cnf.Dimacs.to_string (Gen.Pigeonhole.unsat 6)) in
  checkb "fresh instance not degraded" true (degraded fresh = Some false);
  checkb "fresh instance gets a model decision" true
    (match J.find_float fresh "probability" with
    | Some p -> Float.is_finite p
    | None -> false);
  let empty = solve "p cnf 0 0\n" in
  checkb "empty formula not degraded" true (degraded empty = Some false);
  checks "empty formula selects nothing" "none" (J.find_string empty "cache");
  checkb "ping not degraded" true (degraded (request srv [ op "ping" ]) = Some false);
  Server.drain srv

(* --- the select loop over real sockets ----------------------------------- *)

type conn = { fd : Unix.file_descr; reader : Runtime.Frame.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; reader = Runtime.Frame.create_reader () }

let send c fields = Runtime.Frame.write c.fd (J.encode fields)

(* The next reply frame; [None] when the server closed the connection
   or went silent for [timeout] seconds. *)
let recv ?(timeout = 30.0) c =
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

(* Send a request and wait for the next reply frame; [None] when the
   server closed the connection or went silent. *)
let rpc ?timeout c fields =
  match send c fields with
  | exception Unix.Unix_error _ -> None
  | () -> recv ?timeout c

let rpc_fields c fields = Option.bind (rpc c fields) J.parse_line

(* Whether this process has no child left, running or exited. *)
let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* Fork a server for [config] on a fresh listening socket at [path] and
   return its pid. The child exits 0 after a clean drain that left no
   worker unreaped, 3 if one was, and 2 if the server raised (a failed
   WAL recovery included). *)
let fork_server config path =
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
        Server.serve (create_server config) ~listener:lfd [];
        if no_children () then 0 else 3
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    Unix.close lfd;
    pid

(* Run [f ~spawn ~reap] with SIGPIPE ignored, so a dead server fails
   the test instead of killing the test runner. [spawn config path]
   forks a server and [reap pid] waits for its exit status; a server
   still unreaped when [f] returns or raises is SIGKILLed and reaped. *)
let with_forked_servers f =
  let live = ref [] in
  let spawn config path =
    let pid = fork_server config path in
    live := pid :: !live;
    pid
  in
  let reap pid =
    live := List.filter (( <> ) pid) !live;
    snd (Unix.waitpid [] pid)
  in
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !live)
    (fun () -> f ~spawn ~reap)

(* Serve a fresh listening socket from a forked child, run [f path pid]
   as the client side, then SIGTERM the child: returns [f]'s result and
   how the child ended (the drain contract says exit 0). *)
let with_served_socket ?(config = server_config) f =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "serve.sock" in
      with_forked_servers (fun ~spawn ~reap ->
          let pid = spawn config path in
          let result = f path pid in
          Unix.kill pid Sys.sigterm;
          (result, reap pid)))

(* EOF on a client's input stops reading it, not answering it: a
   half-closed client still gets every reply it is owed, and then the
   loop, with no listener and no reading client left, drains and
   returns (the stdio server's exit path) with its worker reaped. *)
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
  (* In-process servers that earlier tests dropped without a drain can
     leave exited workers unreaped; collect those first. *)
  let rec collect () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | _ -> collect ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  collect ();
  Server.serve srv [ (server_end, server_end) ];
  checkb "serve returned with its worker reaped" true (no_children ());
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
  let (), exit_status =
    with_served_socket (fun path _ ->
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
   peer whole: a non-blocking socket tears it at the first EAGAIN. The
   model of a one-shot solve of 700 000 variables is over 4 MB; a
   session cannot declare that many (Server.max_session_vars). *)
let test_server_large_reply_whole () =
  let vars = 700_000 in
  let (), exit_status =
    with_served_socket (fun path _ ->
        let c = connect path in
        let dimacs = Printf.sprintf "p cnf %d 0\n" vars in
        match rpc c [ op "solve"; ("dimacs", J.String dimacs) ] with
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

(* A solve is answered when its worker's result pipe reaches EOF, not
   on the loop's next 50 ms timeout: one-variable solves sent one at a
   time come back in a few milliseconds. *)
let test_server_answers_without_the_tick () =
  let rtts, exit_status =
    with_served_socket (fun path _ ->
        let c = connect path in
        let rtts =
          List.init 20 (fun i ->
              let t0 = Unix.gettimeofday () in
              (match
                 rpc_fields c
                   [
                     op "solve";
                     id (string_of_int i);
                     ("dimacs", J.String "p cnf 1 1\n1 0\n");
                   ]
               with
              | Some r when status r = Some "ok" -> ()
              | _ -> Alcotest.failf "solve %d was not answered ok" i);
              1000.0 *. (Unix.gettimeofday () -. t0))
        in
        Unix.close c.fd;
        Array.of_list rtts)
  in
  Array.sort compare rtts;
  let median = (rtts.(9) +. rtts.(10)) /. 2.0 in
  checkb
    (Printf.sprintf "median round trip %.1f ms is under 25 ms" median)
    true (median < 25.0);
  checkb "server drained, reaped every worker and exited 0" true
    (exit_status = Unix.WEXITED 0)

(* A solve worker is forked without exec and closes the listening
   socket it inherits. After SIGTERM the server closes its listener, so
   a new connect is refused at once while a 2 s solve still runs; a
   worker that kept the listener would accept it into its backlog. *)
let test_server_refuses_after_sigterm () =
  let hard =
    Cnf.Dimacs.to_string (Gen.Pigeonhole.generate ~pigeons:12 ~holes:11)
  in
  let (), exit_status =
    with_served_socket (fun path pid ->
        let c = connect path in
        send c
          [
            op "solve";
            id "slow";
            ("dimacs", J.String hard);
            ("deadline_s", J.Float 2.0);
          ];
        let probe = connect path in
        let rec running tries =
          match rpc_fields probe [ op "metrics" ] with
          | Some m when J.find_int m "in_flight" = Some 1 -> ()
          | Some _ when tries > 0 ->
            Unix.sleepf 0.01;
            running (tries - 1)
          | _ -> Alcotest.fail "the solve never started"
        in
        running 500;
        Unix.close probe.fd;
        let t0 = Unix.gettimeofday () in
        Unix.kill pid Sys.sigterm;
        (* The server closes its listener when the signal wakes its
           loop; give that 1 s, half the solve's deadline. A connect is
           non-blocking: once a held listener's backlog fills, it would
           wait for the worker's exit. *)
        let rec refused () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.set_nonblock fd;
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            Unix.close fd
          | () | (exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINPROGRESS), _, _))
            ->
            Unix.close fd;
            if Unix.gettimeofday () -. t0 > 1.0 then
              Alcotest.fail "a connect after SIGTERM was not refused"
            else begin
              Unix.sleepf 0.05;
              refused ()
            end
        in
        refused ();
        (match Option.bind (recv c) J.parse_line with
        | Some r -> checks "the in-flight solve is answered" "ok" (status r)
        | None -> Alcotest.fail "the in-flight solve got no reply");
        Unix.close c.fd)
  in
  checkb "server drained and exited 0" true (exit_status = Unix.WEXITED 0)

(* Burst and drain over real sockets. Four clients overflow 2 jobs
   and a queue of 2 with solves that run for their 1 s deadline, and
   the server is SIGTERMed while they are in flight. Each client's
   burst ends with a metrics request: frames on one connection are
   handled in order, so its reply means every solve before it was read.
   Every solve is then answered exactly once (ok, shed or rejected,
   never error), the journal's drained record matches the client's
   tallies, and the server exits 0. *)
let test_server_sigterm_mid_burst () =
  with_temp_dir (fun dir ->
      let journal = Filename.concat dir "serve.jsonl" in
      let config =
        { server_config with Server.jobs = 2; max_queue = 2; journal = Some journal }
      in
      let hard =
        Cnf.Dimacs.to_string (Gen.Pigeonhole.generate ~pigeons:12 ~holes:11)
      in
      let (before, replies), exit_status =
        with_served_socket ~config (fun path pid ->
            let clients = List.init 4 (fun _ -> connect path) in
            let before =
              match rpc_fields (List.hd clients) [ op "metrics" ] with
              | Some m -> m
              | None -> Alcotest.fail "no metrics reply before the burst"
            in
            List.iteri
              (fun k c ->
                for j = 0 to 2 do
                  send c
                    [
                      op "solve";
                      id (Printf.sprintf "c%d-%d" k j);
                      ("dimacs", J.String hard);
                      ("deadline_s", J.Float 1.0);
                    ]
                done;
                send c [ op "metrics"; id "read" ])
              clients;
            let replies = Hashtbl.create 16 in
            (* Collect solve replies until [stop] says so or the server
               closes the connection. *)
            let rec collect c stop =
              match Option.bind (recv c) J.parse_line with
              | None -> ()
              | Some r when stop r -> ()
              | Some r ->
                Option.iter
                  (fun rid -> Hashtbl.add replies rid r)
                  (J.find_string r "id");
                collect c stop
            in
            List.iter
              (fun c -> collect c (fun r -> J.find_string r "id" = Some "read"))
              clients;
            Unix.kill pid Sys.sigterm;
            List.iter
              (fun c ->
                collect c (fun _ -> false);
                Unix.close c.fd)
              clients;
            (before, replies))
      in
      checkb "the server drained and exited 0" true
        (exit_status = Unix.WEXITED 0);
      for k = 0 to 3 do
        for j = 0 to 2 do
          let rid = Printf.sprintf "c%d-%d" k j in
          match Hashtbl.find_all replies rid with
          | [ r ] ->
            checkb (rid ^ " is ok, shed or rejected") true
              (List.mem (status r) [ Some "ok"; Some "shed"; Some "rejected" ])
          | rs -> Alcotest.failf "%s got %d replies" rid (List.length rs)
        done
      done;
      checkb "the overflow was shed" true (tally replies "shed" > 0);
      checkb "solves in flight at SIGTERM finished" true (tally replies "ok" > 0);
      checkb "queued solves were rejected" true (tally replies "rejected" > 0);
      check_drained_matches ~before ~replies journal)

(* Shadow of one durable session, updated only on acks: what a server
   restarted on the same WAL must still know. *)
type shadow = {
  sid : string;
  mutable vars : int;
  mutable clauses : int list list; (* newest first *)
}

let clause_string lits =
  String.concat " " (List.map string_of_int (lits @ [ 0 ]))

(* A fresh solver's verdict over the shadow's clauses. *)
let shadow_verdict sh =
  Store.verdict_name
    (Cdcl.Solver.solve
       (Cdcl.Solver.create
          (Cnf.Formula.of_dimacs_lists ~num_vars:sh.vars sh.clauses)))

(* Keyed op [i] on [sh]: its wire fields, and what an ack of it does to
   the shadow. Most ops add a 3-literal clause that sometimes names the
   next variable, so replay must reproduce auto-introduction; [~add]
   forces an add. *)
let shadow_op rng ?(add = false) sh i =
  let key = ("key", J.String (Printf.sprintf "k%d" i)) in
  let u = Util.Rng.uniform rng 0.0 1.0 in
  if sh.vars = 0 then
    (session ~sid:sh.sid "new" [ ("vars", J.Int 4); key ], fun () -> sh.vars <- 4)
  else if (not add) && u < 0.1 then
    (session ~sid:sh.sid "solve" [ key ], fun () -> ())
  else if (not add) && u < 0.15 then
    (session ~sid:sh.sid "new_var" [ key ], fun () -> sh.vars <- sh.vars + 1)
  else
    let lit () =
      let v =
        if Util.Rng.uniform rng 0.0 1.0 < 0.2 then sh.vars + 1
        else Util.Rng.int_in rng 1 sh.vars
      in
      if Util.Rng.bool rng then v else -v
    in
    let lits = [ lit (); lit (); lit () ] in
    ( session ~sid:sh.sid "add" [ ("clause", J.String (clause_string lits)); key ],
      fun () ->
        sh.vars <- List.fold_left (fun m l -> max m (abs l)) sh.vars lits;
        sh.clauses <- lits :: sh.clauses )

(* The ok reply to [fields]; any other outcome fails [what]. *)
let ack c what fields =
  match rpc_fields c fields with
  | Some r when status r = Some "ok" -> r
  | Some r ->
    Alcotest.failf "%s: %s" what
      (Option.value (J.find_string r "error") ~default:"not ok")
  | None -> Alcotest.failf "%s: no reply" what

(* The body of the SIGKILL drill below, against servers forked by
   [spawn] on a WAL in [wal_dir]. *)
let sigkill_drill ~wal_dir ~sock_dir ~spawn ~reap =
  let config =
    {
      server_config with
      Server.store =
        { Store.default_config with Store.wal_dir = Some wal_dir; snapshot_every = 16 };
    }
  in
  let incarnation = ref 0 and pid = ref 0 in
  let start () =
    incr incarnation;
    let path = Filename.concat sock_dir (Printf.sprintf "s%d.sock" !incarnation) in
    pid := spawn config path;
    connect path
  in
  let conn = ref (start ()) in
  let sigkill () =
    Unix.kill !pid Sys.sigkill;
    checkb "the server died of SIGKILL" true (reap !pid = Unix.WSIGNALED Sys.sigkill);
    Unix.close !conn.fd;
    conn := start ()
  in
  let shadows =
    Array.init 4 (fun i -> { sid = Printf.sprintf "s%d" i; vars = 0; clauses = [] })
  in
  let rng = Util.Rng.create 11 in
  let op ?add i = shadow_op rng ?add shadows.(i mod Array.length shadows) i in
  let check_sessions after =
    Array.iter
      (fun sh ->
        let r = ack !conn (after ^ ": info") (session ~sid:sh.sid "info" []) in
        checkb
          (Printf.sprintf "%s: %s has %d vars and %d clauses" after sh.sid
             sh.vars (List.length sh.clauses))
          true
          (J.find_int r "vars" = Some sh.vars
          && J.find_int r "clauses" = Some (List.length sh.clauses)))
      shadows
  in
  let retry what fields =
    let r = ack !conn what fields in
    checkb (what ^ ": answered from the dedup cache") true
      (J.find_bool r "replayed" = Some true)
  in
  for i = 0 to 59 do
    match i with
    | 20 ->
      (* Killed right after the ack. *)
      let fields, apply = op ~add:true i in
      ignore (ack !conn "op 20" fields);
      apply ();
      sigkill ();
      retry "op 20 after the first kill" fields;
      check_sessions "after the first kill"
    | 40 ->
      (* Killed with the op written and its reply unread; the reply
         being readable shows that the op was acked. *)
      let fields, apply = op ~add:true i in
      send !conn fields;
      checkb "op 40 acked before the kill" true
        (match Unix.select [ !conn.fd ] [] [] 30.0 with
        | [ _ ], _, _ -> true
        | _ -> false);
      sigkill ();
      retry "op 40 after the second kill" fields;
      apply ();
      check_sessions "after the second kill"
    | _ ->
      let fields, apply = op i in
      ignore (ack !conn (Printf.sprintf "op %d" i) fields);
      apply ()
  done;
  let s0 = shadows.(0) in
  List.iter
    (fun lits ->
      let clause = ("clause", J.String (clause_string lits)) in
      ignore (ack !conn "unsat add" (session ~sid:s0.sid "add" [ clause ]));
      s0.clauses <- lits :: s0.clauses)
    [ [ 1 ]; [ -1 ] ];
  checks "session s0 was made unsat" "unsat" (Some (shadow_verdict s0));
  Array.iter
    (fun sh ->
      let r = ack !conn "final solve" (session ~sid:sh.sid "solve" []) in
      checks
        (Printf.sprintf "%s: verdict after the restarts" sh.sid)
        (shadow_verdict sh) (J.find_string r "verdict"))
    shadows;
  Unix.close !conn.fd;
  Unix.kill !pid Sys.sigterm;
  checkb "the last server drained and exited 0" true (reap !pid = Unix.WEXITED 0)

(* SIGKILL and restart over a WAL. Keyed session ops run against a
   forked server, and each acked op is mirrored in a shadow. The
   server is SIGKILLed twice: once right after an ack, and once with
   an op written and its reply unread. Each time, a server restarted
   on the same directory receives that op again under the same key and
   must answer it from its rebuilt dedup cache; every session's [info]
   must then match the shadow (no acked op lost, the retried op counted
   once). Finally one session is made unsat, and every session's
   verdict must equal a fresh solver's over the shadow's clauses. *)
let test_server_sigkill_restart_over_wal () =
  with_temp_dir (fun wal_dir ->
      with_temp_dir (fun sock_dir ->
          with_forked_servers (sigkill_drill ~wal_dir ~sock_dir)))

let suite =
  [
    Alcotest.test_case "volatile session lifecycle" `Quick
      test_volatile_session_lifecycle;
    Alcotest.test_case "crash recovery + exactly-once dedup" `Quick
      test_recovery_and_dedup;
    Alcotest.test_case "snapshot + replay recovery" `Quick
      test_snapshot_recovery;
    Alcotest.test_case "snapshot streams without garbage" `Quick
      test_snapshot_streams_without_garbage;
    Alcotest.test_case "newline clause survives snapshot" `Quick
      test_snapshot_newline_clause;
    Alcotest.test_case "max-sessions cap" `Quick test_max_sessions_cap;
    Alcotest.test_case "ttl eviction survives recovery" `Quick
      test_ttl_eviction_survives_recovery;
    Alcotest.test_case "server ping and metrics" `Quick
      test_server_ping_and_metrics;
    Alcotest.test_case "server error replies" `Quick test_server_errors;
    Alcotest.test_case "server sessions and keys" `Quick test_server_sessions;
    Alcotest.test_case "server rejects bad numeric fields" `Quick
      test_server_rejects_bad_numeric_fields;
    Alcotest.test_case "server key replays only its request" `Quick
      test_server_key_bound_to_request;
    Alcotest.test_case "server rejects malformed session input" `Quick
      test_server_rejects_malformed_session_input;
    Alcotest.test_case "server session caps" `Quick test_server_session_caps;
    Alcotest.test_case "server pool solve" `Quick test_server_pool_solve;
    Alcotest.test_case "server drain rejects" `Quick test_server_drain_rejects;
    Alcotest.test_case "server burst sheds and drains" `Quick
      test_server_burst_sheds_and_drains;
    Alcotest.test_case "server worker crash retried" `Quick
      test_server_worker_crash_retried;
    Alcotest.test_case "server degraded per request" `Quick
      test_server_degraded_per_request;
    Alcotest.test_case "server selector cache" `Quick
      test_server_selector_cache;
    Alcotest.test_case "server parent holds no formula" `Quick
      test_server_parent_holds_no_formula;
    Alcotest.test_case "server answers after eof" `Quick
      test_server_answers_after_eof;
    Alcotest.test_case "server survives peer that stops reading" `Quick
      test_server_survives_peer_that_stops_reading;
    Alcotest.test_case "server large reply whole" `Quick
      test_server_large_reply_whole;
    Alcotest.test_case "server answers without the tick" `Quick
      test_server_answers_without_the_tick;
    Alcotest.test_case "server refuses connects after sigterm" `Quick
      test_server_refuses_after_sigterm;
    Alcotest.test_case "server sigterm mid burst" `Quick
      test_server_sigterm_mid_burst;
    Alcotest.test_case "server sigkill restart over wal" `Quick
      test_server_sigkill_restart_over_wal;
  ]
