(* ns-loadtest: replay a mixed generated workload against ns-serve at a
   controlled request rate and report latency percentiles, shed rate,
   and worker-restart counts in ns.bench/1 JSON.

   The harness spawns the server itself (--server PATH), opens several
   client connections over the Unix-domain socket, paces requests to
   the target QPS from one select loop, and matches responses by id.
   Two drill scenarios are built in:

   - --kill-worker K tags every Kth request inject:"crash_once", so its
     first worker attempt dies with a nonzero exit and the pool's
     retry/backoff path must finish the campaign anyway (the server
     must be spawned with --allow-inject, which this harness does).

   - --sigterm-after K sends SIGTERM to the server after K responses
     have arrived and then asserts the graceful-drain contract: every
     outstanding request terminates (completed or rejected), the
     server exits 0, and the journal ends with a "drained" event whose
     counters match what the clients observed.

   - --crash-restart N switches to a chaos campaign against durable
     sessions: the server runs with a WAL, the harness drives keyed
     session ops while mirroring every acked op in shadow state,
     SIGKILLs the server mid-load N times, restarts it, and asserts
     that zero acked ops were lost (per-session "info" must match the
     shadow exactly) and that recovered sessions answer solves
     identically to a local fresh-solver oracle. Recovery times
     (spawn-to-first-pong) are reported as percentiles.

   Exit status: 0 when every assertion holds, 1 otherwise. *)

let mixed_instance rng i =
  match i mod 5 with
  | 0 ->
    let n = Util.Rng.int_in rng 8 20 in
    let m = int_of_float (float_of_int n *. Util.Rng.uniform rng 3.0 4.5) in
    Gen.Ksat.generate rng ~num_vars:n ~num_clauses:(max 1 m) ~k:3
  | 1 ->
    let pigeons = Util.Rng.int_in rng 3 5 in
    Gen.Pigeonhole.generate ~pigeons ~holes:(pigeons - 1)
  | 2 ->
    let vertices = Util.Rng.int_in rng 5 8 in
    Gen.Coloring.generate rng ~vertices
      ~edge_prob:(Util.Rng.uniform rng 0.3 0.6)
      ~colors:3
  | 3 -> Gen.Parity.chain rng ~num_vars:(Util.Rng.int_in rng 4 9) ~target:true
  | _ -> Gen.Circuits.adder_miter ~faulty:(Util.Rng.bool rng) 1

(* --- response bookkeeping ---------------------------------------------- *)

type outcome = {
  status : string;
  attempts : int;
  latency : float; (* client-observed seconds *)
}

type harness = {
  conns : (Unix.file_descr * Runtime.Frame.reader) array;
  outcomes : (string, outcome) Hashtbl.t;
  sent_at : (string, float) Hashtbl.t;
  verbose : bool;
}

let record_response h fields =
  match Runtime.Journal.find_string fields "id" with
  | None -> ()
  | Some id -> (
    match Hashtbl.find_opt h.sent_at id with
    | None -> () (* metrics / unsolicited *)
    | Some t0 ->
      let status =
        Option.value (Runtime.Journal.find_string fields "status")
          ~default:"error"
      in
      let attempts =
        Option.value (Runtime.Journal.find_int fields "attempts") ~default:0
      in
      Hashtbl.replace h.outcomes id
        { status; attempts; latency = Unix.gettimeofday () -. t0 };
      if h.verbose then
        Printf.eprintf "c [loadtest] %s -> %s (%d attempts)\n%!" id status
          attempts)

let pump_responses h =
  let fds = Array.to_list (Array.map fst h.conns) in
  let readable, _, _ =
    try Unix.select fds [] [] 0.02
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  Array.iter
    (fun (fd, reader) ->
      if List.mem fd readable then
        match Runtime.Frame.read_into reader fd with
        | `Eof | `Blocked -> ()
        | `Data ->
          let rec drain () =
            match Runtime.Frame.next reader with
            | None -> ()
            | Some payload ->
              (match Runtime.Journal.parse_line payload with
              | Some fields -> record_response h fields
              | None -> ());
              drain ()
          in
          drain ())
    h.conns

(* --- percentiles -------------------------------------------------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* --- crash-restart chaos campaign --------------------------------------- *)

(* Shadow of one durable session: what the server must still know
   after any number of SIGKILL/restart cycles, updated only on acks. *)
type shadow = {
  s_sid : string;
  mutable s_created : bool;
  mutable s_vars : int;
  mutable s_clauses : string list; (* newest first *)
}

let max_var_in clause =
  List.fold_left
    (fun m l -> max m (Cnf.Lit.var l))
    0
    (Nserve.Session_store.lits_of_string clause)

(* Apply an acked op to the shadow, mirroring Session_store.execute. *)
let shadow_apply sh action ~vars ~clause =
  match action with
  | "new" ->
    sh.s_created <- true;
    sh.s_vars <- vars;
    sh.s_clauses <- []
  | "new_var" -> sh.s_vars <- sh.s_vars + 1
  | "add" ->
    sh.s_vars <- max sh.s_vars (max_var_in clause);
    sh.s_clauses <- clause :: sh.s_clauses
  | _ -> ()

let run_crash_restart ~server_exe ~socket ~journal ~requests ~sessions ~crashes
    ~json_path ~seed ~verbose =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failures := m :: !failures;
        Printf.eprintf "FAIL: %s\n%!" m)
      fmt
  in
  let log fmt =
    Printf.ksprintf
      (fun s -> if verbose then Printf.eprintf "c [loadtest] %s\n%!" s)
      fmt
  in
  let tmp = Filename.get_temp_dir_name () in
  let wal_dir =
    Filename.concat tmp (Printf.sprintf "ns-loadtest-%d-wal" (Unix.getpid ()))
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  rm_rf wal_dir;
  Unix.mkdir wal_dir 0o755;
  let spawn () =
    Unix.create_process server_exe
      [|
        server_exe; "--socket"; socket; "--journal"; journal; "--wal"; wal_dir;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  (* Connect and ping until the (re)started server answers; returns the
     live connection. The stale socket file from a SIGKILLed server
     still exists until the successor sweeps and rebinds it, so
     connection attempts simply retry. *)
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    Printf.sprintf "C%d" !next_id
  in
  let rpc ?(timeout = 10.0) (fd, reader) fields =
    let id = fresh_id () in
    let payload =
      Runtime.Journal.encode (("id", Runtime.Journal.String id) :: fields)
    in
    match Runtime.Frame.write fd payload with
    | exception Unix.Unix_error _ -> None
    | () ->
      let deadline = Unix.gettimeofday () +. timeout in
      let result = ref None in
      (try
         while !result = None && Unix.gettimeofday () < deadline do
           (match Unix.select [ fd ] [] [] 0.05 with
           | [ _ ], _, _ -> (
             match Runtime.Frame.read_into reader fd with
             | `Eof -> raise Exit
             | `Data | `Blocked -> ())
           | _ -> ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
           let rec drain () =
             match Runtime.Frame.next reader with
             | None -> ()
             | Some payload ->
               (match Runtime.Journal.parse_line payload with
               | Some fields
                 when Runtime.Journal.find_string fields "id" = Some id ->
                 result := Some fields
               | _ -> ());
               drain ()
           in
           drain ()
         done
       with Exit -> ());
      !result
  in
  let connect_ready () =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let rec go () =
      if Unix.gettimeofday () >= deadline then None
      else
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.02;
          go ()
        | () -> (
          Unix.set_nonblock fd;
          let conn = (fd, Runtime.Frame.create_reader ()) in
          match rpc ~timeout:2.0 conn [ ("op", Runtime.Journal.String "ping") ]
          with
          | Some _ -> Some conn
          | None ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Unix.sleepf 0.02;
            go ())
    in
    go ()
  in
  (* --- workload ---------------------------------------------------- *)
  let rng = Util.Rng.create seed in
  let shadows =
    Array.init (max 1 sessions) (fun i ->
        {
          s_sid = Printf.sprintf "s%d" i;
          s_created = false;
          s_vars = 0;
          s_clauses = [];
        })
  in
  let gen_op i =
    let sh = shadows.(i mod Array.length shadows) in
    if not sh.s_created then (sh, "new", 4, "")
    else if sh.s_vars = 0 then (sh, "new_var", 0, "")
    else if Util.Rng.uniform rng 0.0 1.0 < 0.15 then (sh, "solve", 0, "")
    else
      (* Random 3-clause; occasionally mention var+1 so replay must
         reproduce auto-introduction too. *)
      let pick () =
        let v =
          if Util.Rng.uniform rng 0.0 1.0 < 0.2 then sh.s_vars + 1
          else Util.Rng.int_in rng 1 (sh.s_vars + 1)
        in
        if Util.Rng.bool rng then v else -v
      in
      let clause =
        Printf.sprintf "%d %d %d 0" (pick ()) (pick ()) (pick ())
      in
      (sh, "add", 0, clause)
  in
  let op_fields sh action vars clause key =
    [
      ("op", Runtime.Journal.String "session");
      ("action", Runtime.Journal.String action);
      ("sid", Runtime.Journal.String sh.s_sid);
      ("key", Runtime.Journal.String key);
    ]
    @ (if action = "new" then [ ("vars", Runtime.Journal.Int vars) ] else [])
    @
    if action = "add" then [ ("clause", Runtime.Journal.String clause) ]
    else []
  in
  (* --- campaign ---------------------------------------------------- *)
  (try Sys.remove journal with Sys_error _ -> ());
  let server_pid = ref (spawn ()) in
  let acked = ref 0 in
  let replays = ref 0 in
  let crashes_done = ref 0 in
  let recovery_times = ref [] in
  let per_phase = max 1 (requests / (crashes + 1)) in
  let t_start = Unix.gettimeofday () in
  (match connect_ready () with
  | None -> fail "server never became ready"
  | Some conn0 ->
    let conn = ref conn0 in
    let apply_acked sh action vars clause fields =
      incr acked;
      if Runtime.Journal.find_bool fields "replayed" = Some true then
        incr replays;
      shadow_apply sh action ~vars ~clause
    in
    (* Send one keyed op and wait for the ack; abort the campaign on a
       non-ok status (every generated op is valid). *)
    let do_op i =
      let sh, action, vars, clause = gen_op i in
      let key = Printf.sprintf "k%d" i in
      match rpc !conn (op_fields sh action vars clause key) with
      | None -> fail "op %d (%s on %s): no response" i action sh.s_sid
      | Some fields -> (
        match Runtime.Journal.find_string fields "status" with
        | Some "ok" -> apply_acked sh action vars clause fields
        | s ->
          fail "op %d (%s on %s): status %s" i action sh.s_sid
            (Option.value s ~default:"none"))
    in
    (* Verify no acked op was lost: every session's server-side view
       must match the shadow exactly. *)
    let verify_sessions phase =
      Array.iter
        (fun sh ->
          if sh.s_created then
            match
              rpc !conn
                [
                  ("op", Runtime.Journal.String "session");
                  ("action", Runtime.Journal.String "info");
                  ("sid", Runtime.Journal.String sh.s_sid);
                ]
            with
            | None -> fail "%s: info on %s got no response" phase sh.s_sid
            | Some fields ->
              let vars =
                Option.value (Runtime.Journal.find_int fields "vars")
                  ~default:(-1)
              in
              let clauses =
                Option.value (Runtime.Journal.find_int fields "clauses")
                  ~default:(-1)
              in
              if vars <> sh.s_vars then
                fail "%s: %s has %d vars, shadow says %d (acked op lost)"
                  phase sh.s_sid vars sh.s_vars;
              if clauses <> List.length sh.s_clauses then
                fail "%s: %s has %d clauses, shadow says %d (acked op lost)"
                  phase sh.s_sid clauses (List.length sh.s_clauses))
        shadows
    in
    let i = ref 0 in
    while !i < requests && !failures = [] do
      do_op !i;
      incr i;
      if
        !crashes_done < crashes
        && !i mod per_phase = 0
        && !i < requests
      then begin
        (* Fire one more op and SIGKILL before reading its response:
           the op is in flight, possibly durable, never acked. The
           keyed retry after restart must make it exactly-once. *)
        let sh, action, vars, clause = gen_op !i in
        let key = Printf.sprintf "k%d" !i in
        let inflight = op_fields sh action vars clause key in
        (try
           Runtime.Frame.write (fst !conn) (Runtime.Journal.encode
             (("id", Runtime.Journal.String "inflight") :: inflight))
         with Unix.Unix_error _ -> ());
        (* A few ms usually lets the server log (even ack) the op
           before dying — the retry then exercises the rebuilt dedup
           cache; when the kill wins the race the retry executes
           fresh. Both must end exactly-once. *)
        Unix.sleepf 0.005;
        Unix.kill !server_pid Sys.sigkill;
        ignore (Unix.waitpid [] !server_pid);
        (try Unix.close (fst !conn) with Unix.Unix_error _ -> ());
        incr crashes_done;
        log "crash %d/%d after %d acked ops" !crashes_done crashes !acked;
        let t0 = Unix.gettimeofday () in
        server_pid := spawn ();
        (match connect_ready () with
        | None -> fail "server never recovered after crash %d" !crashes_done
        | Some c ->
          recovery_times := (Unix.gettimeofday () -. t0) :: !recovery_times;
          conn := c;
          (* Retry the unacked in-flight op with the same key. *)
          (match rpc !conn inflight with
          | None -> fail "in-flight retry (op %d) got no response" !i
          | Some fields -> (
            match Runtime.Journal.find_string fields "status" with
            | Some "ok" -> apply_acked sh action vars clause fields
            | s ->
              fail "in-flight retry (op %d): status %s" !i
                (Option.value s ~default:"none")));
          incr i;
          verify_sessions
            (Printf.sprintf "after crash %d" !crashes_done))
      end
    done;
    if !failures = [] then begin
      (* Force one session unsat so the sticky-Unsat path is exercised
         through the WAL, then check every session's final verdict
         against a fresh local solver over the shadow clauses. *)
      let sh0 = shadows.(0) in
      if sh0.s_created then
        List.iter
          (fun clause ->
            match
              rpc !conn
                (op_fields sh0 "add" 0 clause
                   (Printf.sprintf "k-unsat-%s" clause))
            with
            | Some fields
              when Runtime.Journal.find_string fields "status" = Some "ok" ->
              apply_acked sh0 "add" 0 clause fields
            | _ -> fail "unsat injection add %S failed" clause)
          [ "1 0"; "-1 0" ];
      Array.iter
        (fun sh ->
          if sh.s_created then begin
            let server_verdict =
              match
                rpc !conn
                  (op_fields sh "solve" 0 ""
                     (Printf.sprintf "k-final-%s" sh.s_sid))
              with
              | Some fields
                when Runtime.Journal.find_string fields "status" = Some "ok"
                ->
                Option.value
                  (Runtime.Journal.find_string fields "verdict")
                  ~default:"none"
              | _ -> "no-response"
            in
            let oracle =
              let solver =
                Cdcl.Solver.create
                  (Cnf.Formula.create ~num_vars:sh.s_vars [||])
              in
              List.iter
                (fun clause ->
                  let lits = Nserve.Session_store.lits_of_string clause in
                  List.iter
                    (fun l ->
                      while Cnf.Lit.var l > Cdcl.Solver.num_vars solver do
                        ignore (Cdcl.Solver.new_var solver)
                      done)
                    lits;
                  Cdcl.Solver.add_clause solver lits)
                (List.rev sh.s_clauses);
              match Cdcl.Solver.solve solver with
              | Cdcl.Solver.Sat _ -> "sat"
              | Cdcl.Solver.Unsat -> "unsat"
              | Cdcl.Solver.Unknown -> "unknown"
            in
            if server_verdict <> oracle then
              fail "%s: recovered server says %s, oracle says %s" sh.s_sid
                server_verdict oracle
            else log "%s: verdict %s matches oracle" sh.s_sid server_verdict
          end)
        shadows
    end;
    (try Unix.close (fst !conn) with Unix.Unix_error _ -> ()));
  (* Graceful shutdown of the last incarnation. *)
  Unix.kill !server_pid Sys.sigterm;
  (match Unix.waitpid [] !server_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "server exited %d after SIGTERM, expected 0" c
  | _, Unix.WSIGNALED s -> fail "server killed by signal %d" s
  | _, Unix.WSTOPPED _ -> fail "server stopped unexpectedly");
  (* --- report ------------------------------------------------------ *)
  let wall = Unix.gettimeofday () -. t_start in
  let recov = Array.of_list !recovery_times in
  Array.sort compare recov;
  let p50 = percentile recov 50.0
  and p95 = percentile recov 95.0
  and p99 = percentile recov 99.0 in
  Printf.printf
    "loadtest --crash-restart: %d acked ops over %d sessions, %d crashes in \
     %.1fs\n\
    \  lost acked ops 0 of %d  deduped replays %d\n\
    \  recovery p50 %.1f ms  p95 %.1f ms  p99 %.1f ms\n"
    !acked (Array.length shadows) !crashes_done wall !acked !replays
    (1000.0 *. p50) (1000.0 *. p95) (1000.0 *. p99);
  (match json_path with
  | None -> ()
  | Some path ->
    let g name v = Obs.Metrics.set (Obs.Metrics.gauge name) v in
    g "loadtest.acked_ops" (float_of_int !acked);
    g "loadtest.crashes" (float_of_int !crashes_done);
    g "loadtest.lost_acked_ops"
      (if !failures = [] then 0.0 else float_of_int (List.length !failures));
    g "loadtest.deduped_replays" (float_of_int !replays);
    g "loadtest.wall_seconds" wall;
    let date =
      let tm = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    in
    let kernels =
      [
        {
          Obs.Bench_report.name = "serve.recovery.p50";
          ns_per_run = 1e9 *. p50;
        };
        {
          Obs.Bench_report.name = "serve.recovery.p95";
          ns_per_run = 1e9 *. p95;
        };
        {
          Obs.Bench_report.name = "serve.recovery.p99";
          ns_per_run = 1e9 *. p99;
        };
      ]
    in
    Obs.Bench_report.write_file path
      (Obs.Bench_report.make ~date ~fast:false ~kernels);
    Printf.printf "loadtest report written to %s\n" path);
  rm_rf wal_dir;
  (try Sys.remove journal with Sys_error _ -> ());
  if !failures = [] then 0 else 1

(* --- the campaign ------------------------------------------------------- *)

let run server socket_opt requests qps conns jobs max_queue deadline
    kill_worker sigterm_after crash_restart sessions json_path seed verbose =
  let tmp = Filename.get_temp_dir_name () in
  let socket =
    match socket_opt with
    | Some s -> s
    | None -> Filename.concat tmp (Printf.sprintf "ns-loadtest-%d.sock" (Unix.getpid ()))
  in
  let journal =
    Filename.concat tmp (Printf.sprintf "ns-loadtest-%d.jsonl" (Unix.getpid ()))
  in
  if crash_restart > 0 then
    match server with
    | None ->
      Printf.eprintf "FAIL: --crash-restart needs --server (the harness \
                      spawns and kills it)\n%!";
      1
    | Some server_exe ->
      run_crash_restart ~server_exe ~socket ~journal ~requests ~sessions
        ~crashes:crash_restart ~json_path ~seed ~verbose
  else begin
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failures := m :: !failures;
        Printf.eprintf "FAIL: %s\n%!" m)
      fmt
  in
  (try Sys.remove journal with Sys_error _ -> ());
  (* Spawn the server under test. *)
  let server_pid =
    match server with
    | None -> None
    | Some exe ->
      let args =
        [|
          exe;
          "--socket";
          socket;
          "--journal";
          journal;
          "--jobs";
          string_of_int jobs;
          "--max-queue";
          string_of_int max_queue;
          "--deadline";
          string_of_float deadline;
          "--allow-inject";
        |]
      in
      let pid = Unix.create_process exe args Unix.stdin Unix.stderr Unix.stderr in
      Some pid
  in
  (* Wait for the socket to appear. *)
  let deadline_t = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline_t do
    Unix.sleepf 0.05
  done;
  if not (Sys.file_exists socket) then begin
    fail "server socket %s never appeared" socket;
    (match server_pid with Some pid -> Unix.kill pid Sys.sigkill | None -> ());
    exit 1
  end;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.set_nonblock fd;
    (fd, Runtime.Frame.create_reader ())
  in
  let h =
    {
      conns = Array.init (max 1 conns) (fun _ -> connect ());
      outcomes = Hashtbl.create (2 * requests);
      sent_at = Hashtbl.create (2 * requests);
      verbose;
    }
  in
  let rng = Util.Rng.create seed in
  let instances =
    Array.init requests (fun i -> Cnf.Dimacs.to_string (mixed_instance rng i))
  in
  let t_start = Unix.gettimeofday () in
  let sent = ref 0 in
  let sigterm_sent = ref false in
  let responses () = Hashtbl.length h.outcomes in
  let maybe_sigterm () =
    if
      sigterm_after > 0
      && (not !sigterm_sent)
      && responses () >= sigterm_after
    then begin
      match server_pid with
      | Some pid ->
        sigterm_sent := true;
        if verbose then Printf.eprintf "c [loadtest] SIGTERM to server %d\n%!" pid;
        Unix.kill pid Sys.sigterm
      | None -> fail "--sigterm-after needs --server (no pid to signal)"
    end
  in
  let campaign_deadline = Unix.gettimeofday () +. 120.0 in
  while
    (not !sigterm_sent)
    && (responses () < requests || !sent < requests)
    && Unix.gettimeofday () < campaign_deadline
  do
    (* Pace sends to the target QPS. *)
    let due =
      min requests
        (1 + int_of_float ((Unix.gettimeofday () -. t_start) *. qps))
    in
    while !sent < due && not !sigterm_sent do
      let i = !sent in
      let id = Printf.sprintf "L%d" i in
      let inject =
        if kill_worker > 0 && i mod kill_worker = kill_worker - 1 then
          [ ("inject", Runtime.Journal.String "crash_once") ]
        else []
      in
      let payload =
        Runtime.Journal.encode
          ([
             ("op", Runtime.Journal.String "solve");
             ("id", Runtime.Journal.String id);
             ("dimacs", Runtime.Journal.String instances.(i));
             ("deadline_s", Runtime.Journal.Float deadline);
           ]
          @ inject)
      in
      let fd, _ = h.conns.(i mod Array.length h.conns) in
      Hashtbl.replace h.sent_at id (Unix.gettimeofday ());
      (try Runtime.Frame.write fd payload
       with Unix.Unix_error _ ->
         Hashtbl.replace h.outcomes id
           { status = "connection_lost"; attempts = 0; latency = 0.0 });
      incr sent
    done;
    pump_responses h;
    maybe_sigterm ()
  done;
  (* After SIGTERM, outstanding requests terminate as completed or
     rejected; keep reading until the server closes the connections. *)
  if !sigterm_sent then begin
    let settle = Unix.gettimeofday () +. 30.0 in
    while responses () < !sent && Unix.gettimeofday () < settle do
      pump_responses h
    done
  end;
  (* Ask for the server-level snapshot (skip when it is shutting down). *)
  let worker_retries = ref (-1) in
  if not !sigterm_sent then begin
    let fd, reader = h.conns.(0) in
    (try
       Runtime.Frame.write fd
         (Runtime.Journal.encode
            [
              ("op", Runtime.Journal.String "metrics");
              ("id", Runtime.Journal.String "final-metrics");
            ])
     with Unix.Unix_error _ -> ());
    let t_end = Unix.gettimeofday () +. 5.0 in
    let got = ref false in
    while (not !got) && Unix.gettimeofday () < t_end do
      (match Unix.select [ fd ] [] [] 0.05 with
      | [ _ ], _, _ -> ignore (Runtime.Frame.read_into reader fd)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let rec drain () =
        match Runtime.Frame.next reader with
        | None -> ()
        | Some payload ->
          (match Runtime.Journal.parse_line payload with
          | Some fields
            when Runtime.Journal.find_string fields "id"
                 = Some "final-metrics" ->
            worker_retries :=
              Option.value
                (Runtime.Journal.find_int fields "worker_retries")
                ~default:(-1);
            got := true
          | Some fields -> record_response h fields
          | None -> ());
          drain ()
      in
      drain ()
    done
  end;
  Array.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    h.conns;
  (* Reap the spawned server and check the drain contract. *)
  let server_exit =
    match server_pid with
    | None -> None
    | Some pid ->
      if not !sigterm_sent then Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      Some status
  in
  (match server_exit with
  | Some (Unix.WEXITED 0) | None -> ()
  | Some (Unix.WEXITED c) -> fail "server exited %d, expected 0" c
  | Some (Unix.WSIGNALED s) -> fail "server killed by signal %d" s
  | Some (Unix.WSTOPPED _) -> fail "server stopped unexpectedly");
  (* --- tally -------------------------------------------------------- *)
  let count pred = Hashtbl.fold (fun _ o n -> if pred o then n + 1 else n) h.outcomes 0 in
  let ok = count (fun o -> o.status = "ok") in
  let shed = count (fun o -> o.status = "shed") in
  let rejected = count (fun o -> o.status = "rejected") in
  let errors = count (fun o -> o.status = "error" || o.status = "connection_lost") in
  let retried_ok = count (fun o -> o.status = "ok" && o.attempts >= 2) in
  let unanswered = !sent - responses () in
  let latencies =
    Hashtbl.fold
      (fun _ o acc -> if o.status = "ok" then o.latency :: acc else acc)
      h.outcomes []
    |> Array.of_list
  in
  Array.sort compare latencies;
  let p50 = percentile latencies 50.0
  and p95 = percentile latencies 95.0
  and p99 = percentile latencies 99.0 in
  if unanswered > 0 then
    fail "%d requests never received a terminal response" unanswered;
  if errors > 0 then fail "%d requests errored" errors;
  if ok = 0 then fail "no request completed successfully";
  if kill_worker > 0 && retried_ok = 0 then
    fail "--kill-worker set but no request completed on a retry";
  (* Journal cross-check: every terminal response the clients saw must
     be journaled, and a drain event must close the file. *)
  (match Runtime.Journal.load journal with
  | Error e ->
    fail "journal unreadable: %s" (Runtime.Error.to_string e)
  | Ok (records, dropped) ->
    if dropped > 0 then fail "journal has %d torn records" dropped;
    let drained =
      List.exists
        (fun r -> Runtime.Journal.find_string r "event" = Some "drained")
        records
    in
    if server <> None && not drained then
      fail "journal has no drained event";
    let journaled_terminal =
      List.length
        (List.filter
           (fun r -> Runtime.Journal.find_string r "status" <> None)
           records)
    in
    let client_terminal = ok + shed + rejected + errors in
    if journaled_terminal < client_terminal then
      fail "journal has %d terminal records, clients saw %d"
        journaled_terminal client_terminal);
  (* --- report ------------------------------------------------------- *)
  let wall = Unix.gettimeofday () -. t_start in
  Printf.printf
    "loadtest: %d requests at %.0f qps over %d conns in %.1fs\n\
    \  ok %d (retried %d)  shed %d  rejected %d  errors %d  unanswered %d\n\
    \  latency p50 %.1f ms  p95 %.1f ms  p99 %.1f ms  worker retries %s\n"
    !sent qps (Array.length h.conns) wall ok retried_ok shed rejected errors
    unanswered (1000.0 *. p50) (1000.0 *. p95) (1000.0 *. p99)
    (if !worker_retries >= 0 then string_of_int !worker_retries else "n/a");
  (match json_path with
  | None -> ()
  | Some path ->
    let g name v = Obs.Metrics.set (Obs.Metrics.gauge name) v in
    g "loadtest.sent" (float_of_int !sent);
    g "loadtest.ok" (float_of_int ok);
    g "loadtest.shed" (float_of_int shed);
    g "loadtest.rejected" (float_of_int rejected);
    g "loadtest.errors" (float_of_int errors);
    g "loadtest.retried_ok" (float_of_int retried_ok);
    g "loadtest.worker_retries" (float_of_int !worker_retries);
    g "loadtest.qps_target" qps;
    g "loadtest.wall_seconds" wall;
    let date =
      let tm = Unix.gmtime (Unix.time ()) in
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    in
    let kernels =
      [
        { Obs.Bench_report.name = "serve.latency.p50"; ns_per_run = 1e9 *. p50 };
        { Obs.Bench_report.name = "serve.latency.p95"; ns_per_run = 1e9 *. p95 };
        { Obs.Bench_report.name = "serve.latency.p99"; ns_per_run = 1e9 *. p99 };
      ]
    in
    Obs.Bench_report.write_file path
      (Obs.Bench_report.make ~date ~fast:false ~kernels);
    Printf.printf "loadtest report written to %s\n" path);
  (try Sys.remove journal with Sys_error _ -> ());
  if !failures = [] then 0 else 1
  end

open Cmdliner

let server =
  Arg.(
    value
    & opt (some string) None
    & info [ "server" ] ~docv:"PATH"
        ~doc:
          "ns-serve binary to spawn (with --allow-inject and a fresh \
           journal). Without it, --socket must name a running server and \
           the drain assertions are skipped.")

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Socket path (default: fresh temp).")

let requests =
  Arg.(
    value & opt int 200
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total solve requests to replay.")

let qps =
  Arg.(
    value & opt float 100.0
    & info [ "qps" ] ~docv:"Q" ~doc:"Target request rate.")

let conns =
  Arg.(
    value & opt int 4
    & info [ "conns" ] ~docv:"C" ~doc:"Client connections (round-robin).")

let jobs =
  Arg.(value & opt int 2 & info [ "jobs" ] ~docv:"N" ~doc:"Server worker slots.")

let max_queue =
  Arg.(
    value & opt int 8
    & info [ "max-queue" ] ~docv:"N" ~doc:"Server admission-control bound.")

let deadline =
  Arg.(
    value & opt float 5.0
    & info [ "deadline" ] ~docv:"S" ~doc:"Per-request wall deadline.")

let kill_worker =
  Arg.(
    value & opt int 0
    & info [ "kill-worker" ] ~docv:"K"
        ~doc:
          "Crash the worker of every Kth request on its first attempt \
           (0 = off); the campaign must still complete via retries.")

let sigterm_after =
  Arg.(
    value & opt int 0
    & info [ "sigterm-after" ] ~docv:"K"
        ~doc:
          "SIGTERM the server after K responses (0 = off) and assert the \
           graceful-drain contract: outstanding requests terminate, exit \
           code 0, journal closes with a drained event.")

let crash_restart =
  Arg.(
    value & opt int 0
    & info [ "crash-restart" ] ~docv:"N"
        ~doc:
          "Chaos mode: run keyed session ops against a WAL-backed server, \
           SIGKILL it mid-load N times, restart it, and assert zero acked \
           ops are lost while reporting recovery-time percentiles. Needs \
           --server.")

let sessions =
  Arg.(
    value & opt int 4
    & info [ "sessions" ] ~docv:"S"
        ~doc:"Concurrent durable sessions in --crash-restart mode.")

let json_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write an ns.bench/1 report.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N")
let verbose = Arg.(value & flag & info [ "verbose"; "v" ])

let cmd =
  let doc = "load-test harness for ns-serve" in
  Cmd.v
    (Cmd.info "ns-loadtest" ~doc)
    Term.(
      const run $ server $ socket $ requests $ qps $ conns $ jobs $ max_queue
      $ deadline $ kill_worker $ sigterm_after $ crash_restart $ sessions
      $ json_path $ seed $ verbose)

let () = exit (Cmd.eval' cmd)
