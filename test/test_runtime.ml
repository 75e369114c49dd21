(* Tests for the fault-tolerance runtime: CRC-32, the JSONL journal,
   atomic file IO, seeded fault injection, and the monotonized wall
   clock. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- CRC-32 --- *)

let test_crc32_vectors () =
  (* Standard IEEE 802.3 check values. *)
  checki "empty" 0 (Runtime.Crc32.string "");
  checki "123456789" 0xcbf43926 (Runtime.Crc32.string "123456789");
  checks "hex formatting" "cbf43926"
    (Runtime.Crc32.to_hex (Runtime.Crc32.string "123456789"));
  checks "hex pads to 8 digits" "00000000" (Runtime.Crc32.to_hex 0)

let test_crc32_incremental () =
  let whole = Runtime.Crc32.string "hello, world" in
  let split = Runtime.Crc32.update (Runtime.Crc32.string "hello,") " world" in
  checki "incremental matches one-shot" whole split

let test_crc32_sensitivity () =
  checkb "single bit flip changes checksum" true
    (Runtime.Crc32.string "checkpoint" <> Runtime.Crc32.string "checkpoins")

(* --- journal --- *)

let test_journal_encode_roundtrip () =
  let record =
    [
      ("name", Runtime.Journal.String "inst \"quoted\"\nline");
      ("solved", Runtime.Journal.Bool true);
      ("epoch", Runtime.Journal.Int 17);
      ("loss", Runtime.Journal.Float 0.125);
      ("missing", Runtime.Journal.Null);
    ]
  in
  match Runtime.Journal.parse_line (Runtime.Journal.encode record) with
  | None -> Alcotest.fail "encoded record did not parse"
  | Some r ->
    checks "string field (with escapes)" "inst \"quoted\"\nline"
      (Option.get (Runtime.Journal.find_string r "name"));
    checkb "bool field" true (Option.get (Runtime.Journal.find_bool r "solved"));
    checki "int field" 17 (Option.get (Runtime.Journal.find_int r "epoch"));
    Alcotest.(check (float 1e-12))
      "float field" 0.125
      (Option.get (Runtime.Journal.find_float r "loss"));
    checkb "null reads as nan via find_float" true
      (Float.is_nan (Option.get (Runtime.Journal.find_float r "missing")));
    (* A session WAL record as written before the journal used
       Obs.Json reads back to the same record. *)
    checkb "WAL record bytes read back" true
      (Runtime.Journal.parse_line
         {|{"sop":"add","clause":"1 -2 0","sid":"s","key":"b"}|}
      = Some
          [
            ("sop", Runtime.Journal.String "add");
            ("clause", Runtime.Journal.String "1 -2 0");
            ("sid", Runtime.Journal.String "s");
            ("key", Runtime.Journal.String "b");
          ])

let test_journal_nonfinite_floats () =
  let r =
    Option.get
      (Runtime.Journal.parse_line
         (Runtime.Journal.encode [ ("p", Runtime.Journal.Float Float.nan) ]))
  in
  checkb "nan encodes as null, reads back as nan" true
    (Float.is_nan (Option.get (Runtime.Journal.find_float r "p")))

let with_temp_path f =
  let path = Filename.temp_file "nsjournal" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_journal_append_load () =
  with_temp_path (fun path ->
      (match Runtime.Journal.load path with
      | Ok ([], 0) -> ()
      | Ok _ -> Alcotest.fail "missing file must be an empty journal"
      | Error e -> Alcotest.failf "missing file errored: %s" (Runtime.Error.to_string e));
      List.iter
        (fun i ->
          match
            Runtime.Journal.append path [ ("epoch", Runtime.Journal.Int i) ]
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "append failed: %s" (Runtime.Error.to_string e))
        [ 0; 1; 2 ];
      match Runtime.Journal.load path with
      | Error e -> Alcotest.failf "load failed: %s" (Runtime.Error.to_string e)
      | Ok (records, dropped) ->
        checki "three records" 3 (List.length records);
        checki "nothing dropped" 0 dropped;
        checki "last epoch" 2
          (Option.get (Runtime.Journal.find_int (List.nth records 2) "epoch")))

let test_journal_torn_tail () =
  with_temp_path (fun path ->
      ignore (Runtime.Journal.append path [ ("epoch", Runtime.Journal.Int 0) ]);
      ignore (Runtime.Journal.append path [ ("epoch", Runtime.Journal.Int 1) ]);
      (* Simulate a SIGKILL mid-append: a torn, unterminated last line. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"epoch\":2,\"lo";
      close_out oc;
      match Runtime.Journal.load path with
      | Error e -> Alcotest.failf "torn journal errored: %s" (Runtime.Error.to_string e)
      | Ok (records, dropped) ->
        checki "intact records survive" 2 (List.length records);
        checki "torn tail dropped and counted" 1 dropped)

(* --- atomic file IO --- *)

let test_atomic_write_read () =
  with_temp_path (fun path ->
      (match Runtime.Atomic_file.write path "first" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "write failed: %s" (Runtime.Error.to_string e));
      (match Runtime.Atomic_file.write path "second" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rewrite failed: %s" (Runtime.Error.to_string e));
      (match Runtime.Atomic_file.read path with
      | Ok s -> checks "replace is whole-file" "second" s
      | Error e -> Alcotest.failf "read failed: %s" (Runtime.Error.to_string e));
      checkb "no temp file left behind" true
        (Sys.readdir (Filename.dirname path)
        |> Array.for_all (fun f ->
               not
                 (String.length f > String.length (Filename.basename path)
                 && String.sub f 0 (String.length (Filename.basename path))
                    = Filename.basename path))))

let test_read_missing_is_typed () =
  match Runtime.Atomic_file.read "/nonexistent/neuroselect/nope" with
  | Error (Runtime.Error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error kind: %s" (Runtime.Error.to_string e)
  | Ok _ -> Alcotest.fail "read of missing path succeeded"

(* --- fault injection --- *)

let test_fault_names_roundtrip () =
  List.iter
    (fun p ->
      match Runtime.Fault.of_name (Runtime.Fault.name p) with
      | Some q -> checkb "name roundtrip" true (p = q)
      | None -> Alcotest.failf "of_name failed for %s" (Runtime.Fault.name p))
    Runtime.Fault.all;
  checkb "unknown name rejected" true (Runtime.Fault.of_name "no-such-fault" = None)

let test_fault_disarmed_never_fires () =
  Runtime.Fault.disarm ();
  checkb "disarmed point not armed" false
    (Runtime.Fault.armed Runtime.Fault.Instance_crash);
  for _ = 1 to 100 do
    checkb "disarmed query is false" false
      (Runtime.Fault.fires Runtime.Fault.Instance_crash)
  done

let test_fault_limit_and_count () =
  Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
      Runtime.Fault.arm ~seed:11 ~limit:3 [ Runtime.Fault.Poisoned_gradient ];
      let fired = ref 0 in
      for _ = 1 to 50 do
        if Runtime.Fault.fires Runtime.Fault.Poisoned_gradient then incr fired
      done;
      checki "limit caps fires" 3 !fired;
      checki "fired_count agrees" 3
        (Runtime.Fault.fired_count Runtime.Fault.Poisoned_gradient);
      checkb "other points stay disarmed" false
        (Runtime.Fault.armed Runtime.Fault.Inference_failure))

let test_fault_deterministic_in_seed () =
  let observe seed =
    Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
        Runtime.Fault.arm ~seed ~rate:0.3 [ Runtime.Fault.Instance_crash ];
        List.init 64 (fun _ -> Runtime.Fault.fires Runtime.Fault.Instance_crash))
  in
  checkb "same seed, same firing pattern" true (observe 5 = observe 5);
  checkb "different seeds diverge" true (observe 5 <> observe 6)

(* --- clock --- *)

let test_clock_monotone () =
  let a = Runtime.Clock.now () in
  let b = Runtime.Clock.now () in
  checkb "now never decreases" true (b >= a);
  checkb "elapsed_since nonnegative" true (Runtime.Clock.elapsed_since a >= 0.0);
  let x, dt = Runtime.Clock.timed (fun () -> 42) in
  checki "timed returns the result" 42 x;
  checkb "timed duration nonnegative" true (dt >= 0.0)

(* --- error taxonomy --- *)

let test_error_classification () =
  let e =
    Runtime.Error.of_exn ~context:"test" (Sys_error "f: No such file or directory")
  in
  (match e with
  | Runtime.Error.Io _ -> ()
  | _ -> Alcotest.failf "Sys_error not classified as Io: %s" (Runtime.Error.to_string e));
  let inner = Runtime.Error.Corrupt { path = "p"; detail = "d" } in
  checkb "Runtime_error unwraps" true
    (Runtime.Error.of_exn ~context:"test" (Runtime.Error.Runtime_error inner) = inner);
  (match Runtime.Error.protect ~context:"test" (fun () -> failwith "boom") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "protect swallowed the failure");
  checkb "protect passes values through" true
    (Runtime.Error.protect ~context:"test" (fun () -> 7) = Ok 7)

(* --- backoff --- *)

let prop_backoff_bounded =
  QCheck.Test.make ~name:"backoff delays stay within [base, cap]" ~count:200
    QCheck.(pair small_int (int_range 0 24))
    (fun (seed, attempts) ->
      let base = 0.05 and cap = 5.0 in
      let rec go b k ok =
        if k < 0 then ok
        else
          let d, b' = Runtime.Backoff.next b in
          go b' (k - 1) (ok && d >= base -. 1e-12 && d <= cap +. 1e-12)
      in
      go (Runtime.Backoff.create ~seed ()) attempts true)

let prop_backoff_deterministic =
  QCheck.Test.make ~name:"backoff schedule deterministic in (seed, attempt)"
    ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let walk () =
        let rec go acc b k =
          if k = 0 then List.rev acc
          else
            let d, b' = Runtime.Backoff.next b in
            go (d :: acc) b' (k - 1)
        in
        go [] (Runtime.Backoff.create ~seed ()) n
      in
      walk () = walk ())

let test_backoff_envelope () =
  (* With jitter 0 the schedule is the bare exponential, capped. *)
  let b = Runtime.Backoff.create ~base:0.1 ~cap:0.9 ~multiplier:2.0 ~jitter:0.0
      ~seed:1 ()
  in
  let d0, b = Runtime.Backoff.next b in
  let d1, b = Runtime.Backoff.next b in
  let d2, b = Runtime.Backoff.next b in
  let d3, b = Runtime.Backoff.next b in
  Alcotest.(check (float 1e-9)) "attempt 0 = base" 0.1 d0;
  Alcotest.(check (float 1e-9)) "attempt 1 doubles" 0.2 d1;
  Alcotest.(check (float 1e-9)) "attempt 2 doubles" 0.4 d2;
  Alcotest.(check (float 1e-9)) "attempt 3 doubles" 0.8 d3;
  let d4, b = Runtime.Backoff.next b in
  Alcotest.(check (float 1e-9)) "attempt 4 capped" 0.9 d4;
  let reset = Runtime.Backoff.reset b in
  checki "reset returns to attempt 0" 0 (Runtime.Backoff.attempt reset);
  Alcotest.(check (float 1e-9)) "reset replays the schedule" 0.1
    (Runtime.Backoff.delay reset)

(* --- supervisor --- *)

let slim =
  {
    Runtime.Supervisor.default_limits with
    heartbeat_interval = 0.05;
    grace_seconds = 0.2;
  }

let check_verdict name expect v =
  if not (expect v) then
    Alcotest.failf "%s: unexpected verdict %s" name
      (Runtime.Supervisor.verdict_to_string v)

let test_supervisor_completed () =
  check_verdict "ok payload"
    (function Runtime.Supervisor.Completed (Ok "payload") -> true | _ -> false)
    (Runtime.Supervisor.run slim (fun () -> Ok "payload"));
  check_verdict "error payload"
    (function Runtime.Supervisor.Completed (Error "boom") -> true | _ -> false)
    (Runtime.Supervisor.run slim (fun () -> Error "boom"));
  (* The worker writes its result 20 ms in, after the first drain, and
     exits; the reap-delay fault holds the reap back 0.2 s, so the reap
     finds an exited worker whose result is still in the pipe. *)
  Runtime.Fault.arm ~seed:1 [ Runtime.Fault.Reap_delay ];
  Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
      check_verdict "result written just before the reap"
        (function
          | Runtime.Supervisor.Completed (Ok "payload") -> true | _ -> false)
        (Runtime.Supervisor.run slim (fun () ->
             Unix.sleepf 0.02;
             Ok "payload")));
  checkb "completed not retryable" false
    (Runtime.Supervisor.retryable (Runtime.Supervisor.Completed (Ok "x")))

(* A caller that selects on [wait_fds] and calls [service] wakes a few
   times per worker: on its first heartbeat, its result and the result
   pipe's EOF. A pipe left in the set after its EOF makes every select
   return at once until the reap; a verdict that waits for the exit
   after both pipes close sleeps through the select's timeout. [await]
   then returns only once the worker is reaped. *)
let test_supervisor_wakes_without_spinning () =
  for k = 1 to 20 do
    let w =
      Runtime.Supervisor.spawn Runtime.Supervisor.default_limits (fun () ->
          Ok "")
    in
    let t0 = Unix.gettimeofday () in
    let rec drive selects =
      match Runtime.Supervisor.service w with
      | Some v -> (selects, v)
      | None ->
        (try ignore (Unix.select (Runtime.Supervisor.wait_fds w) [] [] 1.0)
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        drive (selects + 1)
    in
    let selects, v = drive 0 in
    let wall = Unix.gettimeofday () -. t0 in
    check_verdict "no-op worker"
      (function Runtime.Supervisor.Completed (Ok "") -> true | _ -> false)
      v;
    checkb
      (Printf.sprintf "worker %d: %d selects, at most 4" k selects)
      true (selects <= 4);
    checkb
      (Printf.sprintf "worker %d: verdict in %.3f s, under 0.5 s" k wall)
      true (wall < 0.5);
    ignore (Runtime.Supervisor.await w);
    checkb
      (Printf.sprintf "worker %d reaped by await" k)
      true
      (match Unix.waitpid [ Unix.WNOHANG ] (Runtime.Supervisor.pid w) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | _ -> false)
  done

let test_supervisor_exception_is_error () =
  match Runtime.Supervisor.run slim (fun () -> failwith "worker exploded") with
  | Runtime.Supervisor.Completed (Error msg) ->
    checkb "exception text propagated" true
      (String.length msg > 0)
  | v ->
    Alcotest.failf "unexpected verdict %s" (Runtime.Supervisor.verdict_to_string v)

let test_supervisor_crash_verdicts () =
  let exited = Runtime.Supervisor.run slim (fun () -> Unix._exit 7) in
  check_verdict "exit 7"
    (function Runtime.Supervisor.Exited 7 -> true | _ -> false)
    exited;
  checkb "exit retryable" true (Runtime.Supervisor.retryable exited);
  let signaled =
    Runtime.Supervisor.run slim (fun () ->
        Unix.kill (Unix.getpid ()) Sys.sigkill;
        Ok "unreachable")
  in
  check_verdict "sigkill"
    (function Runtime.Supervisor.Signaled _ -> true | _ -> false)
    signaled;
  checkb "signal retryable" true (Runtime.Supervisor.retryable signaled)

let test_supervisor_deadline () =
  let limits = { slim with deadline_seconds = Some 0.15 } in
  let t0 = Unix.gettimeofday () in
  let v =
    Runtime.Supervisor.run limits (fun () ->
        Unix.sleepf 30.0;
        Ok "slept")
  in
  let wall = Unix.gettimeofday () -. t0 in
  check_verdict "deadline"
    (function Runtime.Supervisor.Timed_out t -> t >= 0.15 | _ -> false)
    v;
  checkb "reaped promptly, not after the sleep" true (wall < 5.0)

let test_supervisor_mem_limit () =
  let limits = { slim with mem_limit_mb = Some 1024 } in
  match
    Runtime.Supervisor.run limits (fun () ->
        let b = Bytes.create (2 * 1024 * 1024 * 1024) in
        Ok (string_of_int (Bytes.length b)))
  with
  | Runtime.Supervisor.Completed (Error msg) ->
    checkb "failed with an out-of-memory error" true
      (let m = String.lowercase_ascii msg in
       let n = String.length "memory" in
       let rec has i =
         i + n <= String.length m && (String.sub m i n = "memory" || has (i + 1))
       in
       has 0)
  | v ->
    Alcotest.failf "RSS cap not enforced: %s"
      (Runtime.Supervisor.verdict_to_string v)

(* --- pool --- *)

let test_pool_runs_all () =
  Runtime.Shutdown.reset ();
  let ids = List.init 6 (fun i -> Printf.sprintf "t%d" i) in
  let batch =
    Runtime.Pool.run_list ~jobs:3 ~limits:slim
      ~should_stop:(fun () -> false)
      (List.map (fun id -> (id, fun () -> Ok id)) ids)
  in
  checki "all tasks completed" 6 (List.length batch.Runtime.Pool.completions);
  checkb "nothing skipped" true (batch.Runtime.Pool.not_run = []);
  List.iter
    (fun id ->
      match
        List.find
          (fun (c : Runtime.Pool.completion) -> c.Runtime.Pool.id = id)
          batch.Runtime.Pool.completions
      with
      | { Runtime.Pool.outcome = Runtime.Pool.Done payload; attempts; _ } ->
        checks "payload is the id" id payload;
        checki "one attempt sufficed" 1 attempts
      | _ -> Alcotest.failf "%s did not complete" id)
    ids

let test_pool_sheds_on_full_queue () =
  Runtime.Shutdown.reset ();
  let shed = ref [] and completions = ref [] in
  let pool =
    Runtime.Pool.create ~jobs:1 ~max_queue:1 ~limits:slim
      ~should_stop:(fun () -> false)
      ~on_complete:(fun c ->
        completions := c :: !completions;
        match c.Runtime.Pool.outcome with
        | Runtime.Pool.Shed -> shed := c.Runtime.Pool.id :: !shed
        | _ -> ())
      ()
  in
  let statuses =
    List.map
      (fun id -> Runtime.Pool.submit pool ~id (fun () -> Ok id))
      [ "a"; "b"; "c" ]
  in
  checkb "at least one submit shed" true (List.mem `Shed statuses);
  checkb "at least one submit accepted" true (List.mem `Accepted statuses);
  checkb "shed recorded via on_complete" true (!shed <> []);
  checkb "shed counter agrees" true (Runtime.Pool.shed_count pool >= 1);
  let not_run = Runtime.Pool.drain pool in
  checkb "accepted tasks still completed" true
    (List.exists
       (fun (c : Runtime.Pool.completion) ->
         match c.Runtime.Pool.outcome with
         | Runtime.Pool.Done _ -> true
         | _ -> false)
       !completions);
  checkb "no task stranded" true (not_run = [])

(* ns-serve's pool lives as long as the process, so a finished solve's
   payload must leave with its on_complete call and not stay reachable
   from the pool. *)
let test_pool_keeps_no_payload () =
  Runtime.Shutdown.reset ();
  let payload_bytes = 256 * 1024 and tasks = 24 in
  let done_ = ref 0 in
  let pool =
    Runtime.Pool.create ~jobs:2 ~limits:slim
      ~should_stop:(fun () -> false)
      ~on_complete:(fun c ->
        match c.Runtime.Pool.outcome with
        | Runtime.Pool.Done p when String.length p = payload_bytes -> incr done_
        | _ -> Alcotest.failf "%s did not return its payload" c.Runtime.Pool.id)
      ()
  in
  for i = 1 to tasks do
    ignore
      (Runtime.Pool.submit pool ~id:(string_of_int i) (fun () ->
           Ok (String.make payload_bytes 'x')))
  done;
  checkb "nothing left unrun" true (Runtime.Pool.drain pool = []);
  checki "every payload delivered" tasks !done_;
  let bytes = Obj.reachable_words (Obj.repr pool) * (Sys.word_size / 8) in
  checkb
    (Printf.sprintf "pool holds %d bytes after %d payloads of %d bytes" bytes
       tasks payload_bytes)
    true (bytes < payload_bytes)

let test_pool_graceful_drain_keeps_journal_intact () =
  Runtime.Shutdown.reset ();
  with_temp_path (fun journal ->
      (* Mid-campaign stop: the first completion requests shutdown (as
         the SIGTERM handler would); in-flight work finishes and is
         journaled, the rest is reported not_run — and the journal tail
         stays fully parseable. *)
      let stop = ref false in
      let on_complete (c : Runtime.Pool.completion) =
        (match c.Runtime.Pool.outcome with
        | Runtime.Pool.Done payload ->
          (match
             Runtime.Journal.append journal
               [ ("name", Runtime.Journal.String payload) ]
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "append: %s" (Runtime.Error.to_string e))
        | _ -> Alcotest.failf "%s failed" c.Runtime.Pool.id);
        stop := true
      in
      let batch =
        Runtime.Pool.run_list ~jobs:1 ~limits:slim
          ~should_stop:(fun () -> !stop)
          ~on_complete
          (List.map
             (fun id -> (id, fun () -> Ok id))
             [ "first"; "second"; "third" ])
      in
      checki "only the in-flight task completed" 1
        (List.length batch.Runtime.Pool.completions);
      checki "the rest were drained before launch" 2
        (List.length batch.Runtime.Pool.not_run);
      match Runtime.Journal.load journal with
      | Error e -> Alcotest.failf "journal load: %s" (Runtime.Error.to_string e)
      | Ok (records, dropped) ->
        checki "every completion journaled exactly once" 1 (List.length records);
        checki "journal tail intact (no torn line)" 0 dropped)

(* --- shutdown flag --- *)

let test_shutdown_signal_flag () =
  Runtime.Shutdown.reset ();
  Runtime.Shutdown.install ();
  Fun.protect
    ~finally:(fun () ->
      Runtime.Shutdown.uninstall ();
      Runtime.Shutdown.reset ())
    (fun () ->
      checkb "not requested initially" false (Runtime.Shutdown.requested ());
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* OCaml delivers the signal at the next safe point. *)
      Unix.sleepf 0.01;
      checkb "requested after SIGTERM" true (Runtime.Shutdown.requested ());
      checki "exit code is 128+SIGTERM" 143 (Runtime.Shutdown.exit_code ()))

(* --- stale temp-file sweep --- *)

let test_sweep_stale_tmp () =
  let dir = Filename.temp_file "nssweep" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let touch name =
        let oc = open_out (Filename.concat dir name) in
        output_string oc "x";
        close_out oc
      in
      let own = Printf.sprintf "ckpt.tmp.%d" (Unix.getpid ()) in
      touch "ckpt.tmp.999999";
      (* dead pid: stale *)
      touch own;
      (* live (our own) pid: in use *)
      touch "ckpt";
      (* not a temp file at all *)
      checki "exactly the stale file swept" 1
        (Runtime.Atomic_file.sweep_stale dir);
      checkb "dead-pid temp removed" false
        (Sys.file_exists (Filename.concat dir "ckpt.tmp.999999"));
      checkb "live-pid temp kept" true (Sys.file_exists (Filename.concat dir own));
      checkb "regular file kept" true (Sys.file_exists (Filename.concat dir "ckpt"));
      checki "second sweep is a no-op" 0 (Runtime.Atomic_file.sweep_stale dir))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_backoff_bounded; prop_backoff_deterministic ]

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "crc32 sensitivity" `Quick test_crc32_sensitivity;
    Alcotest.test_case "journal encode roundtrip" `Quick test_journal_encode_roundtrip;
    Alcotest.test_case "journal non-finite floats" `Quick test_journal_nonfinite_floats;
    Alcotest.test_case "journal append/load" `Quick test_journal_append_load;
    Alcotest.test_case "journal torn tail" `Quick test_journal_torn_tail;
    Alcotest.test_case "atomic write/read" `Quick test_atomic_write_read;
    Alcotest.test_case "read missing is typed" `Quick test_read_missing_is_typed;
    Alcotest.test_case "fault names roundtrip" `Quick test_fault_names_roundtrip;
    Alcotest.test_case "fault disarmed never fires" `Quick
      test_fault_disarmed_never_fires;
    Alcotest.test_case "fault limit and count" `Quick test_fault_limit_and_count;
    Alcotest.test_case "fault deterministic in seed" `Quick
      test_fault_deterministic_in_seed;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    Alcotest.test_case "error classification" `Quick test_error_classification;
    Alcotest.test_case "backoff envelope (jitter 0)" `Quick test_backoff_envelope;
    Alcotest.test_case "supervisor completed results" `Quick
      test_supervisor_completed;
    Alcotest.test_case "supervisor wakes without spinning" `Quick
      test_supervisor_wakes_without_spinning;
    Alcotest.test_case "supervisor worker exception" `Quick
      test_supervisor_exception_is_error;
    Alcotest.test_case "supervisor crash verdicts" `Quick
      test_supervisor_crash_verdicts;
    Alcotest.test_case "supervisor deadline" `Quick test_supervisor_deadline;
    Alcotest.test_case "supervisor memory limit" `Quick test_supervisor_mem_limit;
    Alcotest.test_case "pool runs all tasks" `Quick test_pool_runs_all;
    Alcotest.test_case "pool sheds on full queue" `Quick
      test_pool_sheds_on_full_queue;
    Alcotest.test_case "pool keeps no payload" `Quick
      test_pool_keeps_no_payload;
    Alcotest.test_case "pool graceful drain, journal intact" `Quick
      test_pool_graceful_drain_keeps_journal_intact;
    Alcotest.test_case "shutdown signal flag" `Quick test_shutdown_signal_flag;
    Alcotest.test_case "stale temp-file sweep" `Quick test_sweep_stale_tmp;
  ]
  @ qcheck_tests

(* --- pidlock and stale-socket sweeping (ns-serve startup) --- *)

let test_pidlock_sweeps_stale_and_acquires () =
  let path = Filename.temp_file "ns-test-pidlock" ".pid" in
  (* A pid that is certainly dead: fork a child, let it exit, reap it. *)
  let dead_pid =
    match Unix.fork () with
    | 0 -> Stdlib.exit 0
    | pid ->
      ignore (Unix.waitpid [] pid);
      pid
  in
  checkb "reaped child is dead" false (Runtime.Pidlock.pid_alive dead_pid);
  ignore (Runtime.Atomic_file.write path (string_of_int dead_pid));
  (match Runtime.Pidlock.acquire path with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "stale pidfile not swept: %s" (Runtime.Error.to_string e));
  (match Runtime.Atomic_file.read path with
  | Ok s -> checki "pidfile now names us" (Unix.getpid ()) (int_of_string (String.trim s))
  | Error _ -> Alcotest.fail "pidfile unreadable after acquire");
  Runtime.Pidlock.release path;
  checkb "release removed the pidfile" false (Sys.file_exists path)

let test_pidlock_refuses_live_owner () =
  let path = Filename.temp_file "ns-test-pidlock" ".pid" in
  (* pid 1 is always alive (EPERM from kill still means alive). *)
  ignore (Runtime.Atomic_file.write path "1");
  (match Runtime.Pidlock.acquire path with
  | Error (Runtime.Error.Invalid_state _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Runtime.Error.to_string e)
  | Ok () -> Alcotest.fail "acquired over a live owner");
  (* A garbage pidfile is stale, not a conflict. *)
  ignore (Runtime.Atomic_file.write path "not-a-pid");
  (match Runtime.Pidlock.acquire path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "garbage not swept: %s" (Runtime.Error.to_string e));
  Runtime.Pidlock.release path

let test_pidlock_socket_sweep () =
  let dir = Filename.get_temp_dir_name () in
  let sock = Filename.concat dir (Printf.sprintf "ns-test-%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  (* The socket file outlives its server: exactly the stale case. *)
  checkb "stale socket swept" true (Runtime.Pidlock.sweep_socket sock);
  checkb "socket gone" false (Sys.file_exists sock);
  checkb "second sweep is a no-op" false (Runtime.Pidlock.sweep_socket sock);
  (* A regular file at the path must be refused, not deleted. *)
  let file = Filename.temp_file "ns-test-notsock" ".txt" in
  checkb "regular file refused" false (Runtime.Pidlock.sweep_socket file);
  checkb "regular file intact" true (Sys.file_exists file);
  Sys.remove file

(* --- length-prefixed framing --- *)

let test_frame_roundtrip_chunked () =
  let payloads = [ "{\"op\":\"ping\"}"; "x"; String.make 1000 'y' ] in
  let wire =
    String.concat ""
      (List.map (fun p -> Printf.sprintf "%d\n%s" (String.length p) p) payloads)
  in
  (* Feed the stream one byte at a time: frames must reassemble. *)
  let r = Runtime.Frame.create_reader () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Runtime.Frame.feed r (Bytes.make 1 ch) ~len:1;
      match Runtime.Frame.next r with
      | Some p -> got := p :: !got
      | None -> ())
    wire;
  checkb "all frames recovered" true (List.rev !got = payloads);
  checkb "clean stream not poisoned" false (Runtime.Frame.malformed r);
  (* Reading costs allocation linear in the bytes read: a 16 MiB frame
     fed in 64 KiB chunks, calling next after each, and a 64 KiB chunk
     of 13-byte frames fed at once. *)
  let allocated_reading wire ~chunk =
    let r = Runtime.Frame.create_reader () in
    let buf = Bytes.create chunk and frames = ref 0 and bytes = ref 0 in
    let before = Gc.allocated_bytes () in
    let off = ref 0 in
    while !off < String.length wire do
      let len = min chunk (String.length wire - !off) in
      Bytes.blit_string wire !off buf 0 len;
      Runtime.Frame.feed r buf ~len;
      let rec drain () =
        match Runtime.Frame.next r with
        | Some p ->
          incr frames;
          bytes := !bytes + String.length p;
          drain ()
        | None -> ()
      in
      drain ();
      off := !off + len
    done;
    (Gc.allocated_bytes () -. before, !frames, !bytes)
  in
  let size = 16 * 1024 * 1024 in
  let allocated, frames, bytes =
    allocated_reading (Printf.sprintf "%d\n%s" size (String.make size 'x'))
      ~chunk:65536
  in
  checkb "16 MiB frame read whole" true (frames = 1 && bytes = size);
  checkb
    (Printf.sprintf "16 MiB frame allocates %.0f bytes, at most 4x its size"
       allocated)
    true
    (allocated <= 4.0 *. float size);
  let small = String.concat "" (List.init 5041 (fun _ -> "10\n0123456789")) in
  let allocated, frames, _ = allocated_reading small ~chunk:(String.length small) in
  checki "small frames read" 5041 frames;
  checkb
    (Printf.sprintf "5041 small frames allocate %.0f bytes, at most 8x the input"
       allocated)
    true
    (allocated <= 8.0 *. float (String.length small))

let test_frame_malformed_poisons () =
  let r = Runtime.Frame.create_reader () in
  let junk = "garbage\n{}" in
  Runtime.Frame.feed r (Bytes.of_string junk) ~len:(String.length junk);
  checkb "no frame from junk" true (Runtime.Frame.next r = None);
  checkb "reader poisoned" true (Runtime.Frame.malformed r);
  let fine = "2\nok" in
  Runtime.Frame.feed r (Bytes.of_string fine) ~len:(String.length fine);
  checkb "poisoned reader stays closed" true (Runtime.Frame.next r = None)

(* --- per-submit limits (ns-serve per-request deadlines) --- *)

let test_pool_per_submit_limits () =
  Runtime.Shutdown.reset ();
  let outcomes = Hashtbl.create 4 in
  let pool =
    Runtime.Pool.create ~jobs:2 ~max_retries:0 ~limits:slim
      ~should_stop:(fun () -> false)
      ~on_complete:(fun c -> Hashtbl.replace outcomes c.Runtime.Pool.id c)
      ()
  in
  (* "slow" would run forever under the pool-wide limits (no deadline);
     its per-submit override reaps it fast. "quick" shares the pool. *)
  ignore
    (Runtime.Pool.submit pool
       ~limits:{ slim with Runtime.Supervisor.deadline_seconds = Some 0.2 }
       ~id:"slow"
       (fun () ->
         Unix.sleepf 30.0;
         Ok "never"));
  ignore (Runtime.Pool.submit pool ~id:"quick" (fun () -> Ok "done"));
  let _ = Runtime.Pool.drain pool in
  (match Hashtbl.find_opt outcomes "slow" with
  | Some { Runtime.Pool.outcome = Runtime.Pool.Failed msg; _ } ->
    checkb "slow task hit its own deadline" true
      (String.length msg > 0
      && String.lowercase_ascii msg |> fun m ->
         (* timed out (deadline) or hung (watchdog) — both are the
            per-submit envelope firing, never 30s of sleep *)
         String.length m > 0)
  | Some _ -> Alcotest.fail "slow task should fail under its deadline"
  | None -> Alcotest.fail "slow task never completed");
  match Hashtbl.find_opt outcomes "quick" with
  | Some { Runtime.Pool.outcome = Runtime.Pool.Done payload; _ } ->
    checks "quick unaffected" "done" payload
  | _ -> Alcotest.fail "quick task should complete"

(* --- write-ahead log --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "nswal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let wal_append_ok wal p =
  match Runtime.Wal.append wal p with
  | Ok lsn -> lsn
  | Error e -> Alcotest.failf "append: %s" (Runtime.Error.to_string e)

let wal_open_ok ?segment_bytes dir =
  match Runtime.Wal.open_dir ?segment_bytes dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "open_dir: %s" (Runtime.Error.to_string e)

let test_wal_append_replay () =
  with_temp_dir (fun dir ->
      let payloads = [ "one"; ""; "two\nwith newline"; "three" ] in
      let wal, r0 = wal_open_ok dir in
      checki "fresh log has no records" 0 (List.length r0.Runtime.Wal.records);
      List.iteri
        (fun i p -> checki "LSNs are consecutive" (i + 1) (wal_append_ok wal p))
        payloads;
      Runtime.Wal.close wal;
      let wal2, r = wal_open_ok dir in
      checkb "payloads replay in order" true
        (List.map snd r.Runtime.Wal.records = payloads);
      checkb "LSNs replay in order" true
        (List.map fst r.Runtime.Wal.records = [ 1; 2; 3; 4 ]);
      checki "no bytes truncated" 0 r.Runtime.Wal.truncated_bytes;
      checki "append resumes the sequence" 5 (wal_append_ok wal2 "five");
      Runtime.Wal.close wal2)

(* Truncate the (only) segment at EVERY byte offset: recovery must
   return exactly the records whose complete frames survived, report
   the leftover bytes as truncated, and keep accepting appends. *)
let test_wal_torn_tail_every_offset () =
  with_temp_dir (fun dir ->
      let payloads = [ "alpha"; "b"; "gamma-gamma"; "" ] in
      let seg = Filename.concat dir "wal-000000000001.seg" in
      (* Byte offset of the end of each record, offsets.(i) = end of
         record i; offsets.(0) = 0. *)
      let wal, _ = wal_open_ok dir in
      let offsets =
        Array.of_list
          (0
          :: List.map
               (fun p ->
                 ignore (wal_append_ok wal p);
                 (Unix.stat seg).Unix.st_size)
               payloads)
      in
      Runtime.Wal.close wal;
      let full = In_channel.with_open_bin seg In_channel.input_all in
      checki "offsets cover the file" (String.length full)
        offsets.(Array.length offsets - 1);
      for cut = 0 to String.length full do
        (* Rewrite the segment as a cut-byte prefix, as a torn tail
           would leave it. *)
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        Out_channel.with_open_bin seg (fun oc ->
            Out_channel.output_string oc (String.sub full 0 cut));
        let survivors = ref 0 in
        Array.iteri (fun i o -> if i > 0 && o <= cut then incr survivors) offsets;
        let wal2, r = wal_open_ok dir in
        if
          List.map snd r.Runtime.Wal.records
          <> List.filteri (fun i _ -> i < !survivors) payloads
        then
          Alcotest.failf
            "cut at byte %d: expected %d-record prefix, got %d records" cut
            !survivors
            (List.length r.Runtime.Wal.records);
        checki
          (Printf.sprintf "cut at byte %d: leftover bytes reported" cut)
          (cut - offsets.(!survivors))
          r.Runtime.Wal.truncated_bytes;
        (* The log stays writable after recovery. *)
        checki
          (Printf.sprintf "cut at byte %d: next LSN" cut)
          (!survivors + 1)
          (wal_append_ok wal2 "resumed");
        Runtime.Wal.close wal2
      done)

let test_wal_segment_rotation () =
  with_temp_dir (fun dir ->
      let payloads = List.init 12 (fun i -> Printf.sprintf "record-%02d" i) in
      (* segment_bytes is clamped to 4096: payloads are padded so a few
         rotations actually happen. *)
      let pad = String.make 2048 'x' in
      let wal, _ = wal_open_ok ~segment_bytes:4096 dir in
      List.iter (fun p -> ignore (wal_append_ok wal (p ^ pad))) payloads;
      checkb "log rotated into several segments" true
        (Runtime.Wal.segment_count wal > 1);
      Runtime.Wal.close wal;
      let wal2, r = wal_open_ok ~segment_bytes:4096 dir in
      checkb "rotation preserves every record in order" true
        (List.map snd r.Runtime.Wal.records
        = List.map (fun p -> p ^ pad) payloads);
      Runtime.Wal.close wal2)

let test_wal_snapshot_compaction () =
  with_temp_dir (fun dir ->
      let pad = String.make 2048 'y' in
      let wal, _ = wal_open_ok ~segment_bytes:4096 dir in
      for i = 1 to 8 do
        ignore (wal_append_ok wal (Printf.sprintf "pre-%d%s" i pad))
      done;
      let before = Runtime.Wal.segment_count wal in
      (match Runtime.Wal.snapshot wal (fun emit -> emit "the-state") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
      checkb "snapshot compacted covered segments" true
        (Runtime.Wal.segment_count wal < before);
      ignore (wal_append_ok wal "post-1");
      ignore (wal_append_ok wal "post-2");
      Runtime.Wal.close wal;
      let wal2, r = wal_open_ok ~segment_bytes:4096 dir in
      (match r.Runtime.Wal.snapshot with
      | Some (lsn, "the-state") -> checki "snapshot covers the prefix" 8 lsn
      | Some (_, s) -> Alcotest.failf "wrong snapshot payload %S" s
      | None -> Alcotest.fail "snapshot not recovered");
      checkb "replay starts after the snapshot" true
        (List.map snd r.Runtime.Wal.records = [ "post-1"; "post-2" ]);
      Runtime.Wal.close wal2)

(* Bit rot in the newest snapshot must fall back to the older one with
   no LSN hole: compaction retains every segment after the OLDER of
   the two kept snapshots, so the fallback still has a contiguous
   record chain to replay. *)
let two_snapshot_log dir =
  let pad = String.make 2048 'z' in
  let wal, _ = wal_open_ok ~segment_bytes:4096 dir in
  for i = 1 to 4 do
    ignore (wal_append_ok wal (Printf.sprintf "a%d%s" i pad))
  done;
  (match Runtime.Wal.snapshot wal (fun emit -> emit "snap-old") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
  for i = 5 to 8 do
    ignore (wal_append_ok wal (Printf.sprintf "b%d%s" i pad))
  done;
  (match Runtime.Wal.snapshot wal (fun emit -> emit "snap-new") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
  Runtime.Wal.close wal;
  (* Rot the newest snapshot: flip its last payload byte in place. *)
  let newest = Filename.concat dir "snap-000000000008.snap" in
  let text = In_channel.with_open_bin newest In_channel.input_all in
  let b = Bytes.of_string text in
  Bytes.set b (Bytes.length b - 1) '!';
  Out_channel.with_open_bin newest (fun oc -> Out_channel.output_bytes oc b)

let test_wal_snapshot_fallback_no_gap () =
  with_temp_dir (fun dir ->
      two_snapshot_log dir;
      let wal2, r = wal_open_ok ~segment_bytes:4096 dir in
      checki "rotted snapshot counted" 1 r.Runtime.Wal.corrupt_snapshots;
      (match r.Runtime.Wal.snapshot with
      | Some (4, "snap-old") -> ()
      | Some (lsn, s) -> Alcotest.failf "fell back to (%d, %S)" lsn s
      | None -> Alcotest.fail "older snapshot not used");
      checkb "every record after the fallback snapshot survives" true
        (List.map fst r.Runtime.Wal.records = [ 5; 6; 7; 8 ]);
      checki "append resumes the sequence" 9 (wal_append_ok wal2 "nine");
      Runtime.Wal.close wal2)

(* If the records between the fallback snapshot and the surviving
   segments really are gone (here: a segment deleted by hand), recovery
   must refuse loudly instead of replaying across the hole. *)
let test_wal_gap_fails_loudly () =
  with_temp_dir (fun dir ->
      two_snapshot_log dir;
      Sys.remove (Filename.concat dir "wal-000000000005.seg");
      match Runtime.Wal.open_dir ~segment_bytes:4096 dir with
      | Error (Runtime.Error.Corrupt _) -> ()
      | Error e ->
        Alcotest.failf "wrong error class: %s" (Runtime.Error.to_string e)
      | Ok _ -> Alcotest.fail "LSN hole between snapshot and segments accepted")

(* qcheck: any payload list (arbitrary bytes, any sizes) survives an
   append/close/reopen cycle byte-for-byte, in order. *)
let prop_wal_roundtrip =
  QCheck.Test.make ~name:"wal append/replay roundtrip" ~count:60
    QCheck.(small_list string)
    (fun payloads ->
      with_temp_dir (fun dir ->
          let wal, _ = wal_open_ok dir in
          List.iter (fun p -> ignore (wal_append_ok wal p)) payloads;
          Runtime.Wal.close wal;
          let wal2, r = wal_open_ok dir in
          Runtime.Wal.close wal2;
          List.map snd r.Runtime.Wal.records = payloads
          && r.Runtime.Wal.truncated_bytes = 0))

(* fixtures/wal was written by the WAL before its frames moved onto
   Runtime.Record: five records (an empty one and one holding a fake
   header among them) filling a segment, a snapshot at LSN 5, five
   more records over two segments, then an injected torn append of
   record 11. It must recover exactly as that code recovered it. *)
let test_wal_compat_fixture () =
  with_temp_dir (fun dir ->
      Array.iter
        (fun name ->
          let text =
            In_channel.with_open_bin (Filename.concat "fixtures/wal" name)
              In_channel.input_all
          in
          Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
              Out_channel.output_string oc text))
        (Sys.readdir "fixtures/wal");
      let wal, r = wal_open_ok ~segment_bytes:4096 dir in
      (match r.Runtime.Wal.snapshot with
      | Some (5, "state at 5\n{\"k\":\"v\"}") -> ()
      | Some (lsn, s) -> Alcotest.failf "snapshot (%d, %S)" lsn s
      | None -> Alcotest.fail "snapshot not recovered");
      let payload i =
        Printf.sprintf "rec-%02d %s" i (String.make 1500 (Char.chr (96 + i)))
      in
      checkb "records 6..10 replay" true
        (r.Runtime.Wal.records
        = List.init 5 (fun k -> (k + 6, payload (k + 6))));
      checki "torn tail bytes" 773 r.Runtime.Wal.truncated_bytes;
      checki "dropped segments" 0 r.Runtime.Wal.dropped_segments;
      checki "corrupt snapshots" 0 r.Runtime.Wal.corrupt_snapshots;
      checki "segments" 3 (Runtime.Wal.segment_count wal);
      checki "append resumes at 11" 11 (wal_append_ok wal "eleven");
      Runtime.Wal.close wal)

(* --- the framed record ------------------------------------------------- *)

let record_magics = [| "NSWAL1"; "NSSNAP1"; "NSCKPT3" |]

(* A magic, a seq below 2^48 and a payload: arbitrary bytes, or text
   that holds newlines and another frame's header. *)
let record_case =
  let open QCheck.Gen in
  let header_like =
    map3
      (fun m seq p ->
        Runtime.Record.encode ~magic:record_magics.(m) ~seq p ^ "\n" ^ p)
      (int_bound 2) (int_bound 1000) (string_size ~gen:printable (int_bound 20))
  in
  QCheck.make
    ~print:(fun (m, seq, p) ->
      Printf.sprintf "(%s, %d, %S)" record_magics.(m) seq p)
    (triple (int_bound 2)
       (map (fun x -> x land (1 lsl 48 - 1)) int)
       (oneof [ string_size (int_bound 64); header_like ]))

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record round trip" ~count:300 record_case
    (fun (m, seq, payload) ->
      let magic = record_magics.(m) in
      let frame = Runtime.Record.encode ~magic ~seq payload in
      let junk = "x\n" in
      Runtime.Record.decode ~magic frame
      = Ok (seq, payload, String.length frame)
      && Runtime.Record.decode ~magic ~off:2 (junk ^ frame ^ frame)
         = Ok (seq, payload, 2 + String.length frame))

let prop_record_prefix_truncated =
  QCheck.Test.make ~name:"record prefixes are truncated" ~count:100 record_case
    (fun (m, seq, payload) ->
      let magic = record_magics.(m) in
      let frame = Runtime.Record.encode ~magic ~seq payload in
      List.for_all
        (fun k ->
          Runtime.Record.decode ~magic (String.sub frame 0 k)
          = Error Runtime.Record.Truncated)
        (List.init (String.length frame) Fun.id))

(* A flip anywhere but in the seq digits is an error. The CRC covers
   the payload only, so a flip there that leaves a hex digit yields
   the same payload under another seq, for the user to reject; never
   a wrong payload, and never an exception. *)
let prop_record_bit_flips =
  QCheck.Test.make ~name:"record bit flips detected" ~count:100 record_case
    (fun (m, seq, payload) ->
      let magic = record_magics.(m) in
      let frame = Runtime.Record.encode ~magic ~seq payload in
      let n = String.length frame in
      let ml = String.length magic in
      let seq_digits i = i > ml && i <= ml + 12 in
      List.for_all
        (fun i ->
          List.for_all
            (fun bit ->
              let b = Bytes.of_string frame in
              Bytes.set b i (Char.chr (Char.code frame.[i] lxor (1 lsl bit)));
              match Runtime.Record.decode ~magic (Bytes.to_string b) with
              | Error _ -> true
              | Ok (seq', payload', next) ->
                seq_digits i && seq' <> seq && payload' = payload && next = n)
            [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        (List.init n Fun.id))

(* A length field at least 1 MiB beyond what follows is [Truncated],
   and decode allocates nothing of that size. The minor heap is
   emptied first, so no collection falls inside the measured call. *)
let prop_record_hostile_length =
  QCheck.Test.make ~name:"record hostile length" ~count:200
    QCheck.(
      pair (int_range (1 lsl 20) 0xffffffff) (string_of_size (Gen.int_bound 64)))
    (fun (extra, payload) ->
      let declared = String.length payload + extra in
      let frame =
        Printf.sprintf "NSCKPT3 %012x %08x %08x\n%s" 3 (min declared 0xffffffff)
          (Runtime.Crc32.string payload) payload
      in
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let r = Runtime.Record.decode ~magic:"NSCKPT3" frame in
      let allocated = Gc.allocated_bytes () -. before in
      r = Error Runtime.Record.Truncated && allocated < 65536.0)

(* --- strict decimal length prefixes --- *)

let test_frame_strict_decimal () =
  let accepts prefix =
    let r = Runtime.Frame.create_reader () in
    let s = prefix ^ "\nhello" in
    Runtime.Frame.feed r (Bytes.of_string s) ~len:(String.length s);
    match Runtime.Frame.next r with
    | Some "hello" -> true
    | Some _ | None -> false
  in
  checkb "plain decimal accepted" true (accepts "5");
  checkb "trailing CR tolerated" true (accepts "5\r");
  (* Hostile spellings int_of_string would happily take. *)
  List.iter
    (fun prefix ->
      checkb (Printf.sprintf "%S rejected" prefix) false (accepts prefix))
    [ "0x10"; "1_000"; "+5"; "-5"; " 5"; "5 "; "0b101"; "0o17"; ""; "1e2" ]

(* Every read lands in the one chunk the process's readers share: a
   thousand small frames read one at a time over a socketpair must not
   cost a 64 KiB chunk each (8192 major words a read, 8.2 M in all).
   The minor heap is emptied first, so only what the reads allocate or
   promote is counted. *)
let test_frame_read_allocation () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let r = Runtime.Frame.create_reader () in
      let frames = ref 0 in
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      for i = 1 to 1000 do
        Runtime.Frame.write a (Printf.sprintf {|{"op":"ping","id":"%d"}|} i);
        (match Runtime.Frame.read_into r b with
        | `Data -> ()
        | `Eof | `Blocked -> Alcotest.fail "frame not read");
        let rec drain () =
          match Runtime.Frame.next r with
          | Some _ ->
            incr frames;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      let grown = (Gc.quick_stat ()).Gc.major_words -. before in
      checki "every frame read" 1000 !frames;
      checkb
        (Printf.sprintf "1000 reads grew the major heap by %.0f words (< 81920)"
           grown)
        true (grown < 81920.0))

(* The streamed snapshot's CRC rests on this: a checksum extended piece
   by piece is the checksum of the pieces joined. *)
let prop_crc32_update_streams =
  QCheck.Test.make ~name:"crc32 update streams" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      Runtime.Crc32.update (Runtime.Crc32.update 0 a) b
      = Runtime.Crc32.string (a ^ b))

(* A snapshot's payload cut into pieces at arbitrary points (empty
   pieces included) lands as exactly the frame Record.encode gives the
   joined payload. *)
let prop_wal_snapshot_pieces =
  QCheck.Test.make ~name:"wal snapshot streamed in pieces" ~count:40
    QCheck.(pair (string_of_size Gen.(int_bound 3000)) (small_list small_nat))
    (fun (payload, cuts) ->
      let n = String.length payload in
      let cuts = List.sort compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let pieces, last =
        List.fold_left
          (fun (acc, from) cut ->
            (String.sub payload from (cut - from) :: acc, cut))
          ([], 0) cuts
      in
      let pieces = List.rev (String.sub payload last (n - last) :: pieces) in
      with_temp_dir (fun dir ->
          let wal, _ = wal_open_ok dir in
          let lsn = wal_append_ok wal "record" in
          (match Runtime.Wal.snapshot wal (fun emit -> List.iter emit pieces) with
          | Ok () -> ()
          | Error e -> Alcotest.failf "snapshot: %s" (Runtime.Error.to_string e));
          Runtime.Wal.close wal;
          let file = Filename.concat dir (Printf.sprintf "snap-%012d.snap" lsn) in
          In_channel.with_open_bin file In_channel.input_all
          = Runtime.Record.encode ~magic:"NSSNAP1" ~seq:lsn payload))

let suite =
  suite
  @ [
      Alcotest.test_case "pidlock sweeps stale pidfile" `Quick
        test_pidlock_sweeps_stale_and_acquires;
      Alcotest.test_case "pidlock refuses live owner" `Quick
        test_pidlock_refuses_live_owner;
      Alcotest.test_case "pidlock sweeps stale socket" `Quick
        test_pidlock_socket_sweep;
      Alcotest.test_case "frame chunked roundtrip" `Quick
        test_frame_roundtrip_chunked;
      Alcotest.test_case "frame malformed poisons" `Quick
        test_frame_malformed_poisons;
      Alcotest.test_case "frame strict decimal prefix" `Quick
        test_frame_strict_decimal;
      Alcotest.test_case "frame reads share one chunk" `Quick
        test_frame_read_allocation;
      QCheck_alcotest.to_alcotest prop_crc32_update_streams;
      Alcotest.test_case "pool per-submit limits" `Quick
        test_pool_per_submit_limits;
      Alcotest.test_case "wal append/replay" `Quick test_wal_append_replay;
      Alcotest.test_case "wal torn tail at every offset" `Quick
        test_wal_torn_tail_every_offset;
      Alcotest.test_case "wal segment rotation" `Quick test_wal_segment_rotation;
      Alcotest.test_case "wal snapshot compaction" `Quick
        test_wal_snapshot_compaction;
      Alcotest.test_case "wal snapshot fallback without gap" `Quick
        test_wal_snapshot_fallback_no_gap;
      Alcotest.test_case "wal LSN gap fails loudly" `Quick
        test_wal_gap_fails_loudly;
      QCheck_alcotest.to_alcotest prop_wal_roundtrip;
      Alcotest.test_case "wal compat fixture" `Quick test_wal_compat_fixture;
      QCheck_alcotest.to_alcotest prop_wal_snapshot_pieces;
      QCheck_alcotest.to_alcotest prop_record_roundtrip;
      QCheck_alcotest.to_alcotest prop_record_prefix_truncated;
      QCheck_alcotest.to_alcotest prop_record_bit_flips;
      QCheck_alcotest.to_alcotest prop_record_hostile_length;
    ]
