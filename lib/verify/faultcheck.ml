(* Fault-injection scenarios: arm Runtime.Fault (or corrupt files by
   hand), drive the real recovery code, assert the documented outcome. *)

module Fault = Runtime.Fault
module Error = Runtime.Error
module Mat = Tensor.Mat

type outcome = {
  scenario : string;
  passed : bool;
  detail : string;
}

type report = {
  seed : int;
  outcomes : outcome list;
}

let passed r = List.for_all (fun o -> o.passed) r.outcomes

let pp_report ppf r =
  Format.fprintf ppf "faultcheck: seed %d, %d scenarios, %d failed@." r.seed
    (List.length r.outcomes)
    (List.length (List.filter (fun o -> not o.passed) r.outcomes));
  List.iter
    (fun o ->
      Format.fprintf ppf "  [%s] %-32s %s@."
        (if o.passed then "OK" else "FAIL")
        o.scenario o.detail)
    r.outcomes

(* --- scaffolding --- *)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go i =
    let d = Filename.concat base (Printf.sprintf "nsfault-%d-%d" (Unix.getpid ()) i) in
    if Sys.file_exists d then go (i + 1)
    else begin
      Sys.mkdir d 0o755;
      d
    end
  in
  go 0

let scenario name f =
  let passed, detail =
    match f () with
    | detail -> (true, detail)
    | exception e -> (false, "raised " ^ Printexc.to_string e)
  in
  Fault.disarm ();
  (* Scenario isolation: the clock source is process-wide; a scenario
     that faked it must not leak into the next. *)
  Runtime.Clock.use_wall_clock ();
  { scenario = name; passed; detail }

let check cond msg = if not cond then failwith msg

let params_of_floats name values =
  [ Nn.Param.create name (Mat.row_vector (Array.of_list values)) ]

let param_values (ps : Nn.Param.t list) =
  List.concat_map
    (fun (p : Nn.Param.t) ->
      let v = p.Nn.Param.value in
      List.init (Mat.rows v * Mat.cols v) (fun k ->
          Mat.get v (k / Mat.cols v) (k mod Mat.cols v)))
    ps

(* --- checkpoint scenarios --- *)

let torn_write_falls_back ~seed ~dir () =
  let path = Filename.concat dir "torn.ckpt" in
  let good = params_of_floats "w" [ 1.0; 2.0; 3.0 ] in
  Nn.Checkpoint.save ~epochs:1 path good;
  (* Second save is torn mid-write: the intact first save was promoted
     to .bak, the primary holds half a file. *)
  Fault.arm ~seed ~limit:1 [ Fault.Torn_checkpoint_write ];
  let updated = params_of_floats "w" [ 9.0; 9.0; 9.0 ] in
  Nn.Checkpoint.save ~epochs:2 path updated;
  Fault.disarm ();
  check (Fault.fired_count Fault.Torn_checkpoint_write <= 1) "fault fired twice";
  let restored = params_of_floats "w" [ 0.0; 0.0; 0.0 ] in
  match Nn.Checkpoint.load_result path restored with
  | Ok (Nn.Checkpoint.Backup, epochs) ->
    check (param_values restored = [ 1.0; 2.0; 3.0 ]) "backup values wrong";
    check (epochs = 1) "backup epoch count wrong";
    "torn primary detected; .bak restored the last-good weights and epoch"
  | Ok (Nn.Checkpoint.Primary, _) -> failwith "torn primary loaded as intact"
  | Error e -> failwith ("no fallback: " ^ Error.to_string e)

let bit_flip_falls_back ~seed ~dir () =
  let path = Filename.concat dir "flip.ckpt" in
  let good = params_of_floats "w" [ 4.0; 5.0 ] in
  Nn.Checkpoint.save ~epochs:0 path good;
  Fault.arm ~seed ~limit:1 [ Fault.Checkpoint_bit_flip ];
  Nn.Checkpoint.save ~epochs:0 path (params_of_floats "w" [ 7.0; 7.0 ]);
  Fault.disarm ();
  let restored = params_of_floats "w" [ 0.0; 0.0 ] in
  match Nn.Checkpoint.load_result path restored with
  | Ok (Nn.Checkpoint.Backup, _) ->
    check (param_values restored = [ 4.0; 5.0 ]) "backup values wrong";
    "CRC caught the bit flip; .bak restored the last-good weights"
  | Ok (Nn.Checkpoint.Primary, _) ->
    failwith "bit-flipped checkpoint passed CRC"
  | Error e -> failwith ("no fallback: " ^ Error.to_string e)

let corruption_without_backup ~seed:_ ~dir () =
  let path = Filename.concat dir "orphan.ckpt" in
  let good = params_of_floats "w" [ 1.0 ] in
  Nn.Checkpoint.save ~epochs:0 path good;
  (* Flip one payload byte by hand; no .bak exists for this path. *)
  let text =
    match Runtime.Atomic_file.read path with Ok t -> t | Error _ -> failwith "read"
  in
  let b = Bytes.of_string text in
  Bytes.set b (Bytes.length b - 2) 'X';
  (match Runtime.Atomic_file.write_raw path (Bytes.to_string b) with
  | Ok () -> ()
  | Error e -> failwith (Error.to_string e));
  let restored = params_of_floats "w" [ 0.0 ] in
  match Nn.Checkpoint.load_result path restored with
  | Error (Error.Corrupt _) ->
    check (param_values restored = [ 0.0 ]) "params mutated despite corruption";
    "typed Corrupt error; parameters left untouched"
  | Error e -> failwith ("wrong error class: " ^ Error.to_string e)
  | Ok _ -> failwith "corrupt checkpoint accepted"

let duplicate_parameter_rejected ~seed:_ ~dir:_ () =
  let p = params_of_floats "w" [ 1.0; 2.0 ] in
  let doubled = Nn.Checkpoint.encode ~epochs:0 (p @ p) in
  let target = params_of_floats "w" [ 0.0; 0.0 ] in
  match Nn.Checkpoint.of_string_result doubled target with
  | Error (Error.Corrupt { detail; _ }) ->
    check
      (String.length detail >= 9 && String.sub detail 0 9 = "duplicate")
      ("wrong detail: " ^ detail);
    "duplicate parameter block raised a typed error"
  | Error e -> failwith ("wrong error class: " ^ Error.to_string e)
  | Ok _ -> failwith "duplicate parameter block accepted"

(* --- training scenario --- *)

let poisoned_gradient_recovers ~seed ~dir:_ () =
  let rng = Util.Rng.create seed in
  let mlp = Nn.Layer.Mlp.create rng ~dims:[ 2; 4; 1 ] ~name:"fault" in
  let spec =
    {
      Nn.Train.params = Nn.Layer.Mlp.params mlp;
      forward = (fun tape m -> Nn.Layer.Mlp.forward tape mlp (Nn.Ad.const tape m));
    }
  in
  let examples =
    Array.init 16 (fun _ ->
        let v = Array.init 2 (fun _ -> Util.Rng.uniform rng (-1.0) 1.0) in
        (Mat.row_vector v, v.(0) +. v.(1) > 0.0))
  in
  let lr = 0.05 in
  Fault.arm ~seed ~limit:2 [ Fault.Poisoned_gradient ];
  let history = Nn.Train.fit ~epochs:4 ~lr ~seed spec examples in
  Fault.disarm ();
  check (Fault.fired_count Fault.Poisoned_gradient = 0) "fault state leaked";
  check (history.Nn.Train.skipped_steps >= 1) "no step was skipped";
  check (history.Nn.Train.lr_backoffs >= 1) "learning rate never backed off";
  check (history.Nn.Train.final_lr < lr) "learning rate did not shrink";
  Array.iter
    (fun l -> check (Float.is_finite l) "non-finite epoch loss leaked")
    history.Nn.Train.epoch_losses;
  List.iter
    (fun (p : Nn.Param.t) ->
      for i = 0 to Mat.rows p.Nn.Param.value - 1 do
        for j = 0 to Mat.cols p.Nn.Param.value - 1 do
          check
            (Float.is_finite (Mat.get p.Nn.Param.value i j))
            "NaN leaked into the weights"
        done
      done)
    spec.Nn.Train.params;
  Printf.sprintf "skipped %d step(s), %d backoff(s), final lr %.2e, weights finite"
    history.Nn.Train.skipped_steps history.Nn.Train.lr_backoffs
    history.Nn.Train.final_lr

(* --- inference scenarios --- *)

let small_formula =
  Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ] ]

let inference_failure_degrades ~seed ~dir:_ () =
  let model = Core.Model.create Core.Model.small_config in
  Fault.arm ~seed ~limit:1 [ Fault.Inference_failure ];
  let s = Core.Selector.select_policy model small_formula in
  (match s.Core.Selector.degraded with
  | Some (Core.Selector.Model_failure _) -> ()
  | Some _ | None -> failwith "degradation not recorded");
  check (s.Core.Selector.policy = Cdcl.Policy.Default) "did not fall back to default";
  (* The fault is exhausted: the next selection works normally. *)
  let s2 = Core.Selector.select_policy model small_formula in
  Fault.disarm ();
  check (s2.Core.Selector.degraded = None) "degradation persisted after recovery";
  check (Float.is_finite s2.Core.Selector.probability) "recovered probability not finite";
  "failed inference fell back to the default policy and recovered on the next call"

let non_finite_probability_degrades ~seed:_ ~dir:_ () =
  let model = Core.Model.create Core.Model.small_config in
  (* A NaN in the output layer is what loading a silently corrupted
     checkpoint used to produce; it propagates straight to the
     predicted probability. (Hidden-layer NaNs can be masked by relu,
     whose [x > 0] test is false for NaN.) *)
  (match List.rev (Core.Model.params model) with
  | [] -> failwith "model has no parameters"
  | p :: _ -> Mat.set p.Nn.Param.value 0 0 Float.nan);
  let s = Core.Selector.select_policy model small_formula in
  (match s.Core.Selector.degraded with
  | Some (Core.Selector.Non_finite_probability _) -> ()
  | Some _ | None -> failwith "non-finite output not detected");
  check (s.Core.Selector.policy = Cdcl.Policy.Default) "did not fall back to default";
  "NaN probability detected; default policy substituted"

(* --- campaign scenarios --- *)

let tiny_instances ~seed n =
  List.init n (fun i ->
      let rng = Util.Rng.create ((seed * 613) + i) in
      let num_vars = 6 + i in
      {
        Gen.Dataset.name = Printf.sprintf "fault-%02d" i;
        family = "ksat";
        year = 2022;
        formula =
          Gen.Ksat.generate rng ~num_vars ~num_clauses:(3 * num_vars) ~k:3;
      })

let instance_crash_retried ~seed ~dir:_ () =
  let model = Core.Model.create Core.Model.small_config in
  let simtime = Experiments.Simtime.make ~budget:50_000 in
  let instances = tiny_instances ~seed 3 in
  Fault.arm ~seed ~limit:1 [ Fault.Instance_crash ];
  let result = Experiments.Adaptive_eval.run model simtime instances in
  let fired = Fault.fired_count Fault.Instance_crash in
  Fault.disarm ();
  check (fired = 1) "crash fault never fired";
  check (result.Experiments.Adaptive_eval.failures = []) "retry did not absorb the crash";
  check
    (List.length result.Experiments.Adaptive_eval.entries = 3)
    "an instance went missing";
  "one injected crash, absorbed by the per-instance retry; all entries present"

let campaign_resumes_from_journal ~seed ~dir () =
  let model = Core.Model.create Core.Model.small_config in
  let simtime = Experiments.Simtime.make ~budget:50_000 in
  let instances = tiny_instances ~seed 4 in
  let journal = Filename.concat dir "campaign.jsonl" in
  (* Reference: the uninterrupted campaign. *)
  let full = Experiments.Adaptive_eval.run model simtime instances in
  (* "Kill" the campaign after two instances by only running a prefix,
     then tear the journal's final line as a SIGKILL would. *)
  let prefix = [ List.nth instances 0; List.nth instances 1 ] in
  let interrupted =
    Experiments.Adaptive_eval.run ~journal model simtime prefix
  in
  check (List.length interrupted.Experiments.Adaptive_eval.entries = 2) "prefix run broken";
  (match Runtime.Atomic_file.read journal with
  | Ok text ->
    let torn = String.sub text 0 (String.length text - 7) ^ "{\"name\":\"half" in
    (match Runtime.Atomic_file.write_raw journal torn with
    | Ok () -> ()
    | Error e -> failwith (Error.to_string e))
  | Error e -> failwith (Error.to_string e));
  let resumed = Experiments.Adaptive_eval.run ~journal model simtime instances in
  check
    (resumed.Experiments.Adaptive_eval.resumed >= 1)
    "nothing was resumed from the journal";
  check
    (List.length resumed.Experiments.Adaptive_eval.entries = 4)
    "resumed campaign lost instances";
  let names r =
    List.map (fun (e : Experiments.Adaptive_eval.entry) -> e.name)
      r.Experiments.Adaptive_eval.entries
  in
  check (names resumed = names full) "entry order diverged from the full run";
  Printf.sprintf "resumed %d/4 instances from a torn journal; campaign completed"
    resumed.Experiments.Adaptive_eval.resumed

(* --- supervision scenarios --- *)

module Supervisor = Runtime.Supervisor
module Pool = Runtime.Pool

(* A worker SIGKILLed mid-solve is retried by the pool and the
   campaign still completes with every entry present. *)
let worker_killed_retried ~seed ~dir:_ () =
  let model = Core.Model.create Core.Model.small_config in
  let simtime = Experiments.Simtime.make ~budget:50_000 in
  let instances = tiny_instances ~seed 3 in
  Fault.arm ~seed ~limit:1 [ Fault.Worker_crash ];
  let result = Experiments.Adaptive_eval.run ~jobs:2 model simtime instances in
  let fired = Fault.fired_count Fault.Worker_crash in
  Fault.disarm ();
  check (fired = 1) "worker-crash fault never fired";
  check
    (result.Experiments.Adaptive_eval.failures = [])
    "retry did not absorb the SIGKILLed worker";
  check
    (List.length result.Experiments.Adaptive_eval.entries = 3)
    "an instance went missing after the worker was killed";
  "one worker SIGKILLed mid-solve; the pool retried it and the campaign completed"

(* A worker that blows past the address-space cap fails alone —
   [Out_of_memory] inside the child — without taking down the pool. *)
let worker_rss_reaped ~seed:_ ~dir:_ () =
  let limits =
    { Supervisor.default_limits with mem_limit_mb = Some 1024 }
  in
  let tasks =
    [
      ("small-a", fun () -> Ok "a");
      ( "hog",
        fun () ->
          (* 2 GiB against a 1 GiB address-space cap: malloc fails in
             the child, which reports Out_of_memory as its result. *)
          let b = Bytes.create (2 * 1024 * 1024 * 1024) in
          Ok (string_of_int (Bytes.length b)) );
      ("small-b", fun () -> Ok "b");
    ]
  in
  let batch =
    Pool.run_list ~jobs:2 ~max_retries:0 ~limits
      ~should_stop:(fun () -> false)
      tasks
  in
  check (batch.Pool.not_run = []) "pool stopped early";
  let find id =
    List.find (fun (c : Pool.completion) -> c.Pool.id = id)
      batch.Pool.completions
  in
  let contains_sub ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match (find "hog").Pool.outcome with
  | Pool.Failed msg ->
    check
      (contains_sub ~sub:"memory" (String.lowercase_ascii msg))
      ("hog failed for the wrong reason: " ^ msg)
  | Pool.Done payload -> failwith ("RSS cap not enforced: hog returned " ^ payload)
  | Pool.Shed -> failwith "hog was shed, not run");
  List.iter
    (fun id ->
      match (find id).Pool.outcome with
      | Pool.Done _ -> ()
      | _ -> failwith (id ^ " did not survive the hog's OOM"))
    [ "small-a"; "small-b" ];
  "RSS-capped worker died of Out_of_memory alone; both siblings completed"

(* A hung worker (heartbeats stop) is detected by the watchdog within
   hang_factor (= 2) heartbeat intervals, reaped, and retried. *)
let worker_hang_watchdog ~seed ~dir:_ () =
  let limits =
    {
      Supervisor.default_limits with
      heartbeat_interval = 0.1;
      grace_seconds = 0.2;
    }
  in
  let watchdog_bound = limits.Supervisor.heartbeat_interval *. limits.Supervisor.hang_factor in
  Fault.arm ~seed ~limit:1 [ Fault.Worker_hang ];
  let verdict = Supervisor.run ~label:"hang" limits (fun () -> Ok "never") in
  check (Fault.fired_count Fault.Worker_hang = 1) "worker-hang fault never fired";
  let silence =
    match verdict with
    | Supervisor.Hung s -> s
    | v ->
      failwith ("expected a Hung verdict, got " ^ Supervisor.verdict_to_string v)
  in
  check (silence >= watchdog_bound) "watchdog fired before the silence bound";
  check (silence <= watchdog_bound +. 0.3) "hang detected late";
  check (Supervisor.retryable verdict) "hang not classified as retryable";
  (* Through the pool: the hang is absorbed by a retry. *)
  Fault.arm ~seed ~limit:1 [ Fault.Worker_hang ];
  let batch =
    Pool.run_list ~jobs:1 ~limits
      ~should_stop:(fun () -> false)
      [ ("t", fun () -> Ok "ok") ]
  in
  Fault.disarm ();
  (match batch.Pool.completions with
  | [ { Pool.outcome = Pool.Done "ok"; attempts; _ } ] ->
    check (attempts = 2) "hang retry count wrong"
  | _ -> failwith "pool did not absorb the hang with a retry");
  Printf.sprintf
    "hang detected after %.2fs silence (bound %.2fs); pool retry absorbed it"
    silence watchdog_bound

(* --- inprocessing scenario --- *)

(* An abort mid-vivification escapes the solve as a typed runtime
   error. The DRUP prefix emitted up to the abort must still replay
   line by line (inprocessing commits each rewrite atomically: the Add
   precedes the Delete it justifies), and a fresh solve with the fault
   exhausted must recover the verdict with a complete, valid proof. *)
let inprocess_abort_recovers ~seed ~dir:_ () =
  let f = Gen.Pigeonhole.unsat 5 in
  let config =
    Cdcl.Config.with_inprocess ~interval:1 true
      {
        Cdcl.Config.default with
        Cdcl.Config.policy = Cdcl.Policy.frequency_default;
        reduce_first = 20;
        reduce_inc = 10;
        reduce_fraction = 0.7;
        restart_mode = Cdcl.Config.Luby 8;
      }
  in
  let t = Cdcl.Solver.create ~config f in
  let drup = Cdcl.Drup.create () in
  Cdcl.Solver.set_trace t (fun ev -> Cdcl.Drup.event drup ev);
  Fault.arm ~seed ~limit:1 [ Fault.Inprocess_abort ];
  (match Cdcl.Solver.solve t with
  | exception Error.Runtime_error (Error.Injected_fault { point }) ->
    check (point = "inprocess-abort") ("wrong fault point: " ^ point)
  | _ -> failwith "abort never escaped the solve");
  let fired = Fault.fired_count Fault.Inprocess_abort in
  check (fired = 1) "fault did not fire exactly once";
  let prefix_lines = Cdcl.Drup.num_lines drup in
  check (prefix_lines > 0) "abort left no proof prefix to check";
  (* Replaying the prefix must fail only for being incomplete — every
     emitted line must itself be RUP. *)
  (match Cdcl.Drup_check.check f (Cdcl.Drup.to_string drup) with
  | Cdcl.Drup_check.Invalid { reason = "proof does not derive the empty clause"; _ }
    ->
    ()
  | Cdcl.Drup_check.Valid -> failwith "aborted solve produced a complete proof"
  | Cdcl.Drup_check.Invalid { line; reason } ->
    failwith
      (Printf.sprintf "proof prefix broken at line %d: %s" line reason));
  (* Recovery: the fault budget is exhausted, so a fresh solve runs the
     same inprocessing schedule to completion. *)
  let t2 = Cdcl.Solver.create ~config f in
  let drup2 = Cdcl.Drup.create () in
  Cdcl.Solver.set_trace t2 (fun ev -> Cdcl.Drup.event drup2 ev);
  (match Cdcl.Solver.solve t2 with
  | Cdcl.Solver.Unsat -> ()
  | _ -> failwith "recovered solve lost the UNSAT verdict");
  check
    (Fault.fired_count Fault.Inprocess_abort = 1)
    "exhausted fault fired again";
  Fault.disarm ();
  Cdcl.Drup.conclude_unsat drup2;
  (match Cdcl.Drup_check.check_solver_proof f drup2 with
  | Cdcl.Drup_check.Valid -> ()
  | Cdcl.Drup_check.Invalid { line; reason } ->
    failwith
      (Printf.sprintf "recovered proof invalid at line %d: %s" line reason));
  Printf.sprintf
    "abort after %d proof lines left a checkable prefix; fresh solve recovered \
     UNSAT with a valid proof"
    prefix_lines

(* A --jobs 4 campaign writes a journal byte-equivalent (modulo
   ordering) to the sequential run. A deterministic fake clock makes
   the measured inference times identical across processes. *)
let parallel_journal_equivalence ~seed ~dir () =
  let model = Core.Model.create Core.Model.small_config in
  let simtime = Experiments.Simtime.make ~budget:50_000 in
  let instances = tiny_instances ~seed 4 in
  let counter = ref 0.0 in
  Runtime.Clock.set_source (fun () ->
      counter := !counter +. 0.001;
      !counter);
  let seq_path = Filename.concat dir "seq.jsonl" in
  let par_path = Filename.concat dir "par.jsonl" in
  let seq =
    Experiments.Adaptive_eval.run ~journal:seq_path model simtime instances
  in
  let par =
    Experiments.Adaptive_eval.run ~journal:par_path ~jobs:4 model simtime
      instances
  in
  Runtime.Clock.use_wall_clock ();
  check
    (seq.Experiments.Adaptive_eval.failures = []
    && par.Experiments.Adaptive_eval.failures = [])
    "a campaign recorded failures";
  check
    (List.length seq.Experiments.Adaptive_eval.entries = 4
    && List.length par.Experiments.Adaptive_eval.entries = 4)
    "a campaign lost instances";
  let lines p =
    match Runtime.Atomic_file.read p with
    | Ok t ->
      String.split_on_char '\n' t
      |> List.filter (fun l -> l <> "")
      |> List.sort compare
    | Error e -> failwith (Error.to_string e)
  in
  let seq_lines = lines seq_path and par_lines = lines par_path in
  check (List.length seq_lines = 4) "sequential journal incomplete";
  check (seq_lines = par_lines) "parallel journal diverged from sequential";
  Printf.sprintf "4-job journal byte-equivalent to sequential (%d lines)"
    (List.length seq_lines)

(* --- WAL / durable-session scenarios --- *)

module Wal = Runtime.Wal
module Store = Nserve.Session_store

let wal_store_config dir =
  { Store.default_config with Store.wal_dir = Some dir }

let store_ok t ?key ~sid op =
  let o = Store.apply t ?key ~sid op in
  match o.Store.reply with
  | Ok fields -> (o.Store.replayed, fields)
  | Error msg -> failwith (Printf.sprintf "op on %s refused: %s" sid msg)

let subdir dir name =
  let d = Filename.concat dir name in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

(* A torn append (half a frame reaches the disk before the "crash")
   must not be acked, and recovery must truncate the tail back to the
   exact durable prefix — no record lost, no garbage replayed. *)
let wal_torn_append_truncates ~seed ~dir () =
  let d = subdir dir "wal-torn" in
  let durable = [ "alpha"; "beta"; "gamma" ] in
  (match Wal.open_dir d with
  | Error e -> failwith (Error.to_string e)
  | Ok (wal, _) ->
    List.iter
      (fun p ->
        match Wal.append wal p with
        | Ok _ -> ()
        | Error e -> failwith (Error.to_string e))
      durable;
    Fault.arm ~seed ~limit:1 [ Fault.Wal_torn_append ];
    (match Wal.append wal "torn-victim" with
    | Error (Error.Injected_fault { point }) ->
      check (point = "wal-torn-append") ("wrong fault point: " ^ point)
    | Ok _ -> failwith "torn append was acked"
    | Error e -> failwith ("wrong error class: " ^ Error.to_string e));
    Fault.disarm ();
    (* The handle is poisoned (the process "died"); further appends
       must refuse rather than write after the tear. *)
    (match Wal.append wal "after-tear" with
    | Error _ -> ()
    | Ok _ -> failwith "append succeeded on a torn log");
    Wal.close wal);
  match Wal.open_dir d with
  | Error e -> failwith ("recovery failed: " ^ Error.to_string e)
  | Ok (wal2, recovery) ->
    check (recovery.Wal.truncated_bytes > 0) "no torn tail was truncated";
    check
      (List.map snd recovery.Wal.records = durable)
      "recovered records are not the exact durable prefix";
    (* The log keeps working: the next append takes the next LSN. *)
    (match Wal.append wal2 "delta" with
    | Ok lsn -> check (lsn = 1 + List.length durable) "LSN sequence broken"
    | Error e -> failwith (Error.to_string e));
    Wal.close wal2;
    Printf.sprintf
      "torn tail truncated (%d bytes); exact %d-record durable prefix recovered"
      recovery.Wal.truncated_bytes (List.length durable)

(* A crash after the WAL write but before the fsync: the op is never
   acked, yet may survive in the log. The client's keyed retry against
   the recovered store must be answered exactly once — from the dedup
   cache the replay rebuilt, not by a second execution. *)
let wal_crash_before_fsync_exactly_once ~seed ~dir () =
  let d = subdir dir "wal-fsync" in
  let cfg = wal_store_config d in
  (match Store.create cfg with
  | Error e -> failwith (Error.to_string e)
  | Ok (store, _) ->
    ignore (store_ok store ~key:"k-new" ~sid:"s0" (Store.New 2));
    ignore (store_ok store ~key:"k-add1" ~sid:"s0" (Store.Add "1 2 0"));
    Fault.arm ~seed ~limit:1 [ Fault.Wal_crash_before_fsync ];
    (match (Store.apply store ~key:"k-add2" ~sid:"s0" (Store.Add "-1 0")).Store.reply with
    | Error _ -> () (* not durable -> not acked *)
    | Ok _ -> failwith "unsynced append was acked");
    Fault.disarm ();
    (* State untouched: the refused op must not have executed. *)
    (match Store.info store "s0" with
    | Some (_, 1) -> ()
    | Some (_, n) -> failwith (Printf.sprintf "refused add executed (%d clauses)" n)
    | None -> failwith "session vanished");
    (* Process dies here: abandon the store without closing. *))
  ;
  match Store.create (wal_store_config d) with
  | Error e -> failwith ("recovery failed: " ^ Error.to_string e)
  | Ok (store2, stats) ->
    check (stats.Store.sessions = 1) "session not recovered";
    (* The unacked record reached the OS before the "crash", so replay
       may legitimately have applied it; either way the retry below
       must leave exactly one copy. *)
    let retried, _ = store_ok store2 ~key:"k-add2" ~sid:"s0" (Store.Add "-1 0") in
    (match Store.info store2 "s0" with
    | Some (_, 2) -> ()
    | Some (_, n) ->
      failwith (Printf.sprintf "retry not exactly-once: %d clauses" n)
    | None -> failwith "session vanished after retry");
    let _, fields = store_ok store2 ~key:"k-solve" ~sid:"s0" (Store.Solve "") in
    (match Runtime.Journal.find_string fields "verdict" with
    | Some "sat" -> ()
    | v -> failwith ("recovered solve verdict wrong: "
                     ^ Option.value v ~default:"none"));
    Store.close store2;
    Printf.sprintf
      "unacked op refused, retry answered exactly once (%s); verdict sat"
      (if retried then "deduped from replay" else "executed fresh")

(* A crash mid-snapshot leaves a torn snapshot file. The op that
   triggered the snapshot stays acked (segments alone carry
   durability), and recovery must reject the torn snapshot and rebuild
   from the full log. *)
let wal_snapshot_crash_falls_back ~seed ~dir () =
  let d = subdir dir "wal-snap" in
  let cfg = { (wal_store_config d) with Store.snapshot_every = 2 } in
  (match Store.create cfg with
  | Error e -> failwith (Error.to_string e)
  | Ok (store, _) ->
    ignore (store_ok store ~sid:"s0" (Store.New 2));
    Fault.arm ~seed ~limit:1 [ Fault.Wal_snapshot_crash ];
    (* Second append crosses snapshot_every: the snapshot tears, the
       add itself must still be acked. *)
    ignore (store_ok store ~sid:"s0" (Store.Add "1 -2 0"));
    check (Fault.fired_count Fault.Wal_snapshot_crash = 1)
      "snapshot-crash fault never fired";
    Fault.disarm ();
    check (Store.snapshot_failures store = 1) "snapshot failure not counted");
  match Store.create (wal_store_config d) with
  | Error e -> failwith ("recovery failed: " ^ Error.to_string e)
  | Ok (store2, stats) ->
    check (stats.Store.corrupt_snapshots >= 1) "torn snapshot not detected";
    check (not stats.Store.from_snapshot) "torn snapshot was trusted";
    (match Store.info store2 "s0" with
    | Some (2, 1) -> ()
    | _ -> failwith "acked ops lost after snapshot crash");
    Store.close store2;
    "torn snapshot rejected; acked ops rebuilt from segments alone"

let oracle_sids = [| "a"; "b"; "c" |]

let random_session_ops rng n =
  List.init n (fun i ->
      let sid = oracle_sids.(i mod Array.length oracle_sids) in
      if i < Array.length oracle_sids then (sid, Store.New 3)
      else if Util.Rng.uniform rng 0.0 1.0 < 0.2 then
        let v = Util.Rng.int_in rng 1 3 in
        (sid, Store.Solve (string_of_int (if Util.Rng.bool rng then v else -v)))
      else
        let pick () =
          let v = Util.Rng.int_in rng 1 5 in
          if Util.Rng.bool rng then v else -v
        in
        (sid, Store.Add (Printf.sprintf "%d %d %d 0" (pick ()) (pick ()) (pick ()))))

(* The equivalence contract behind all of the above: a store recovered
   from its WAL must answer exactly like an uninterrupted oracle that
   executed the same ops, across a seeded random op sequence. *)
let wal_recovery_matches_oracle ~seed ~dir () =
  let d = subdir dir "wal-oracle" in
  let rng = Util.Rng.create seed in
  let sids = oracle_sids in
  let ops = random_session_ops rng 40 in
  let oracle =
    match Store.create Store.default_config with
    | Ok (t, _) -> t
    | Error e -> failwith (Error.to_string e)
  in
  (match Store.create (wal_store_config d) with
  | Error e -> failwith (Error.to_string e)
  | Ok (durable, _) ->
    List.iter
      (fun (sid, op) ->
        ignore (store_ok oracle ~sid op);
        ignore (store_ok durable ~sid op))
      ops
    (* SIGKILL: the durable store is abandoned, never closed. *));
  match Store.create (wal_store_config d) with
  | Error e -> failwith ("recovery failed: " ^ Error.to_string e)
  | Ok (recovered, stats) ->
    check (stats.Store.replayed > 0) "nothing was replayed";
    check
      (stats.Store.sessions = Store.session_count oracle)
      "recovered session count diverged";
    Array.iter
      (fun sid ->
        if Store.info oracle sid <> Store.info recovered sid then
          failwith (Printf.sprintf "session %s diverged after recovery" sid))
      sids;
    (* Same probes, same answers — including models and unsat cores. *)
    Array.iter
      (fun sid ->
        List.iter
          (fun assumptions ->
            let probe t = (Store.apply t ~sid (Store.Solve assumptions)).Store.reply in
            if probe oracle <> probe recovered then
              failwith
                (Printf.sprintf "solve %S on %s diverged after recovery"
                   assumptions sid))
          (* "99" probes the clean out-of-range error path too. *)
          [ ""; "1"; "-1 2"; "99" ])
      sids;
    Store.close recovered;
    Printf.sprintf
      "%d replayed ops; all %d sessions answer identically to the oracle"
      stats.Store.replayed stats.Store.sessions

(* The oracle above never crosses a snapshot (40 ops, snapshot_every
   256). Snapshots persist clauses but not solver-internal search
   state, so replies regenerated by replay on top of a snapshot may
   carry a different — equally valid — SAT model. The durable contract
   across snapshot recovery is therefore *verdict* stability, which
   this scenario checks with snapshot_every small enough that recovery
   restores a snapshot and replays beyond it. *)
let wal_snapshot_recovery_verdicts ~seed ~dir () =
  let d = subdir dir "wal-snap-oracle" in
  let cfg =
    { Store.default_config with Store.wal_dir = Some d; snapshot_every = 7 }
  in
  let rng = Util.Rng.create (seed + 1) in
  let ops = random_session_ops rng 40 in
  let oracle =
    match Store.create Store.default_config with
    | Ok (t, _) -> t
    | Error e -> failwith (Error.to_string e)
  in
  (match Store.create cfg with
  | Error e -> failwith (Error.to_string e)
  | Ok (durable, _) ->
    List.iter
      (fun (sid, op) ->
        ignore (store_ok oracle ~sid op);
        ignore (store_ok durable ~sid op))
      ops
    (* SIGKILL: the durable store is abandoned, never closed. *));
  match Store.create cfg with
  | Error e -> failwith ("recovery failed: " ^ Error.to_string e)
  | Ok (recovered, stats) ->
    check stats.Store.from_snapshot "recovery never restored a snapshot";
    check (stats.Store.replayed > 0) "recovery never replayed past the snapshot";
    check (stats.Store.restore_errors = 0) "snapshot entries failed to restore";
    Array.iter
      (fun sid ->
        if Store.info oracle sid <> Store.info recovered sid then
          failwith (Printf.sprintf "session %s diverged after recovery" sid))
      oracle_sids;
    let verdict t sid assumptions =
      match (Store.apply t ~sid (Store.Solve assumptions)).Store.reply with
      | Ok fields ->
        Option.value
          (Runtime.Journal.find_string fields "verdict")
          ~default:"?"
      | Error _ -> "error"
    in
    Array.iter
      (fun sid ->
        List.iter
          (fun assumptions ->
            let o = verdict oracle sid assumptions in
            let r = verdict recovered sid assumptions in
            if o <> r then
              failwith
                (Printf.sprintf
                   "verdict for %S on %s diverged after recovery: %s vs %s"
                   assumptions sid o r))
          [ ""; "1"; "-1 2"; "99" ])
      oracle_sids;
    Store.close recovered;
    Printf.sprintf
      "snapshot + %d replayed ops; verdicts match the oracle on all %d sessions"
      stats.Store.replayed stats.Store.sessions

(* --- driver --- *)

let all_scenarios =
  [
    ("torn-checkpoint-write", torn_write_falls_back);
    ("checkpoint-bit-flip", bit_flip_falls_back);
    ("corruption-without-backup", corruption_without_backup);
    ("duplicate-parameter", duplicate_parameter_rejected);
    ("poisoned-gradient", poisoned_gradient_recovers);
    ("inference-failure", inference_failure_degrades);
    ("non-finite-probability", non_finite_probability_degrades);
    ("instance-crash-retry", instance_crash_retried);
    ("campaign-journal-resume", campaign_resumes_from_journal);
    ("worker-kill-retry", worker_killed_retried);
    ("worker-rss-cap", worker_rss_reaped);
    ("worker-hang-watchdog", worker_hang_watchdog);
    ("inprocess-abort-recover", inprocess_abort_recovers);
    ("parallel-journal-equivalence", parallel_journal_equivalence);
    ("wal-torn-append-truncate", wal_torn_append_truncates);
    ("wal-crash-before-fsync", wal_crash_before_fsync_exactly_once);
    ("wal-snapshot-crash-fallback", wal_snapshot_crash_falls_back);
    ("wal-recovery-oracle", wal_recovery_matches_oracle);
    ("wal-snapshot-recovery-oracle", wal_snapshot_recovery_verdicts);
  ]

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* A directory made here is removed when the run ends, failed scenarios
   included; one the caller passed stays. *)
let run_all ?dir ~seed () =
  let scratch = match dir with Some d -> d | None -> fresh_dir () in
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        Fault.disarm ();
        if dir = None then remove_tree scratch)
      (fun () ->
        List.map
          (fun (name, f) -> scenario name (f ~seed ~dir:scratch))
          all_scenarios)
  in
  { seed; outcomes }
