(* Tests for the experiment harness: simulated time, runners, and the
   table/figure generators (on miniature inputs). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Simtime --- *)

let test_simtime_mapping () =
  let t = Experiments.Simtime.make ~budget:1_000_000 in
  checkf "zero props" 0.0 (Experiments.Simtime.seconds t 0);
  checkf "half budget = 2500s" 2500.0 (Experiments.Simtime.seconds t 500_000);
  checkf "budget = timeout" 5000.0 (Experiments.Simtime.seconds t 1_000_000);
  checkf "over budget capped" 5000.0 (Experiments.Simtime.seconds t 2_000_000);
  checkb "timed out" true (Experiments.Simtime.timed_out t 1_000_000);
  checkb "not timed out" false (Experiments.Simtime.timed_out t 999_999)

let test_simtime_invalid () =
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Simtime.make: budget must be positive") (fun () ->
      ignore (Experiments.Simtime.make ~budget:0))

(* --- Runner --- *)

let test_runner_solves_within_budget () =
  let t = Experiments.Simtime.make ~budget:1_000_000 in
  let r = Experiments.Runner.solve t Cdcl.Policy.Default (Gen.Pigeonhole.unsat 4) in
  checkb "solved" true r.Experiments.Runner.solved;
  checkb "result unsat" true (r.Experiments.Runner.result = Cdcl.Solver.Unsat);
  checkb "sim seconds sane" true
    (r.Experiments.Runner.sim_seconds > 0.0 && r.Experiments.Runner.sim_seconds < 5000.0)

let test_runner_timeout () =
  let t = Experiments.Simtime.make ~budget:500 in
  let r = Experiments.Runner.solve t Cdcl.Policy.Default (Gen.Pigeonhole.unsat 7) in
  checkb "unsolved" false r.Experiments.Runner.solved;
  checkf "capped at timeout" 5000.0 r.Experiments.Runner.sim_seconds

(* --- Fig3 --- *)

let test_fig3_series () =
  let s = Experiments.Fig3.run ~vertices:60 ~conflicts:300 () in
  checki "vars+1 counts" (s.Experiments.Fig3.num_vars + 1)
    (Array.length s.Experiments.Fig3.counts);
  checkb "f_max attained" true
    (Array.exists (fun c -> c = s.Experiments.Fig3.f_max) s.Experiments.Fig3.counts);
  checkb "above-threshold nonzero when props happened" true
    (s.Experiments.Fig3.total = 0 || s.Experiments.Fig3.above_threshold >= 1);
  checkb "top share within [0,1]" true
    (s.Experiments.Fig3.top1pct_share >= 0.0 && s.Experiments.Fig3.top1pct_share <= 1.0);
  (* The headline qualitative claim: triggers are concentrated. *)
  checkb "skewed distribution" true (s.Experiments.Fig3.top1pct_share > 0.02);
  (* print must not raise *)
  ignore (Format.asprintf "%a" Experiments.Fig3.print s)

(* --- Policy_compare (Fig 4) --- *)

let mini_instances per_year = Gen.Dataset.generate_year ~seed:13 ~per_year 2022

let test_policy_compare_runs () =
  let t = Experiments.Simtime.make ~budget:300_000 in
  let s = Experiments.Policy_compare.run t (mini_instances 6) in
  let n = List.length s.Experiments.Policy_compare.points in
  checki "wins partition points" n
    (s.Experiments.Policy_compare.wins_frequency
    + s.Experiments.Policy_compare.wins_default + s.Experiments.Policy_compare.ties);
  List.iter
    (fun (p : Experiments.Policy_compare.point) ->
      checkb "at least one side solved" true
        (p.Experiments.Policy_compare.default_solved
        || p.Experiments.Policy_compare.frequency_solved))
    s.Experiments.Policy_compare.points;
  ignore (Format.asprintf "%a" Experiments.Policy_compare.print s)

(* --- Data preparation --- *)

let test_data_prepare () =
  let data = Experiments.Data.prepare ~seed:3 ~per_year:2 ~budget:150_000 () in
  checki "train size" 12 (List.length data.Experiments.Data.train);
  checki "test size" 2 (List.length data.Experiments.Data.test);
  List.iter
    (fun (l : Experiments.Data.labelled) ->
      checkb "example label matches outcome" true
        (l.Experiments.Data.example.Core.Trainer.label
        = l.Experiments.Data.outcome.Core.Labeler.label))
    data.Experiments.Data.train

(* --- Adaptive_eval (Table 3 / Fig 7) --- *)

let test_adaptive_eval_runs () =
  let model = Core.Model.create Core.Model.small_config in
  let t = Experiments.Simtime.make ~budget:200_000 in
  let result = Experiments.Adaptive_eval.run model t (mini_instances 5) in
  checki "one entry per instance" 5 (List.length result.Experiments.Adaptive_eval.entries);
  List.iter
    (fun (e : Experiments.Adaptive_eval.entry) ->
      checkb "adaptive time includes inference" true
        (e.Experiments.Adaptive_eval.inference_seconds >= 0.0);
      checkb "times capped" true
        (e.Experiments.Adaptive_eval.kissat_seconds <= 5000.0
        && e.Experiments.Adaptive_eval.adaptive_seconds <= 5000.0))
    result.Experiments.Adaptive_eval.entries;
  checkb "medians positive" true
    (result.Experiments.Adaptive_eval.kissat.Experiments.Adaptive_eval.median_seconds
    >= 0.0);
  ignore (Format.asprintf "%a" Experiments.Adaptive_eval.print_table3 result);
  ignore (Format.asprintf "%a" Experiments.Adaptive_eval.print_fig7a result);
  ignore (Format.asprintf "%a" Experiments.Adaptive_eval.print_fig7b result)

(* --- fault tolerance --- *)

let test_solve_protected_retries () =
  let t = Experiments.Simtime.make ~budget:400_000 in
  let f = (List.hd (mini_instances 1)).Gen.Dataset.formula in
  Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
      (* One injected crash: the single retry absorbs it. *)
      Runtime.Fault.arm ~seed:9 ~limit:1 [ Runtime.Fault.Instance_crash ];
      (match Experiments.Runner.solve_protected t Cdcl.Policy.Default f with
      | Ok run -> checkb "retried run solved" true run.Experiments.Runner.solved
      | Error e -> Alcotest.failf "retry did not absorb crash: %s" (Runtime.Error.to_string e));
      checki "fault fired exactly once" 1
        (Runtime.Fault.fired_count Runtime.Fault.Instance_crash);
      (* Crashes beyond the retry budget become a typed error. *)
      Runtime.Fault.arm ~seed:9 [ Runtime.Fault.Instance_crash ];
      match Experiments.Runner.solve_protected t Cdcl.Policy.Default f with
      | Error (Runtime.Error.Injected_fault _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Runtime.Error.to_string e)
      | Ok _ -> Alcotest.fail "persistent crash must surface as an error")

let test_entry_record_roundtrip () =
  let entry =
    {
      Experiments.Adaptive_eval.name = "inst-01";
      family = "ksat";
      kissat_seconds = 12.5;
      kissat_solved = true;
      adaptive_seconds = 11.25;
      adaptive_solved = true;
      inference_seconds = 0.004;
      chose_frequency = true;
      probability = 0.75;
      degraded = Some "model failure: boom";
    }
  in
  let roundtrip entry =
    Option.bind
      (Runtime.Journal.parse_line
         (Runtime.Journal.encode
            (Experiments.Adaptive_eval.record_of_entry entry)))
      Experiments.Adaptive_eval.entry_of_record
  in
  checkb "roundtrip preserves the entry" true (roundtrip entry = Some entry);
  let third = { entry with inference_seconds = 1.0 /. 3.0 } in
  checkb "a 17-digit float reads back exactly" true (roundtrip third = Some third);
  (* A line in the bytes an earlier encoder wrote, every float in
     %.17g, reads back to the same entry; the encoder now writes the
     shortest digits that read back. *)
  let line inference =
    Printf.sprintf
      {|{"name":"inst-01","family":"ksat","kissat_seconds":12.5,"kissat_solved":true,"adaptive_seconds":11.25,"adaptive_solved":true,"inference_seconds":%s,"chose_frequency":true,"probability":0.75,"degraded":"model failure: boom"}|}
      inference
  in
  checkb "a %.17g journal line reads back" true
    (Option.bind
       (Runtime.Journal.parse_line (line "0.0040000000000000001"))
       Experiments.Adaptive_eval.entry_of_record
    = Some entry);
  Alcotest.(check string)
    "shortest digits" (line "0.004")
    (Runtime.Journal.encode (Experiments.Adaptive_eval.record_of_entry entry))

let test_adaptive_eval_journal_resume () =
  let model = Core.Model.create Core.Model.small_config in
  let t = Experiments.Simtime.make ~budget:150_000 in
  let instances = mini_instances 4 in
  let journal = Filename.temp_file "nscampaign" ".jsonl" in
  Sys.remove journal;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
    (fun () ->
      let reference = Experiments.Adaptive_eval.run model t instances in
      (* First pass measures only a prefix (simulating an interrupt). *)
      let prefix = [ List.nth instances 0; List.nth instances 1 ] in
      let partial = Experiments.Adaptive_eval.run ~journal model t prefix in
      checki "nothing resumed on first pass" 0
        partial.Experiments.Adaptive_eval.resumed;
      (* Second pass over the full list resumes the measured prefix. *)
      let resumed = Experiments.Adaptive_eval.run ~journal model t instances in
      checki "prefix restored from journal" 2
        resumed.Experiments.Adaptive_eval.resumed;
      checki "all instances present" 4
        (List.length resumed.Experiments.Adaptive_eval.entries);
      List.iter2
        (fun (a : Experiments.Adaptive_eval.entry)
             (b : Experiments.Adaptive_eval.entry) ->
          checkb "same instance order as an uninterrupted run" true
            (a.Experiments.Adaptive_eval.name = b.Experiments.Adaptive_eval.name))
        reference.Experiments.Adaptive_eval.entries
        resumed.Experiments.Adaptive_eval.entries)

(* --- Ablation --- *)

let test_alpha_sweep () =
  let t = Experiments.Simtime.make ~budget:150_000 in
  let rows = Experiments.Ablation.alpha_sweep ~alphas:[ 0.5; 0.8 ] t (mini_instances 3) in
  checki "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Experiments.Ablation.alpha_row) ->
      checkb "props counted" true (r.Experiments.Ablation.total_propagations > 0))
    rows;
  ignore (Format.asprintf "%a" Experiments.Ablation.print_alpha rows)

let test_policy_zoo () =
  let t = Experiments.Simtime.make ~budget:150_000 in
  let rows = Experiments.Ablation.policy_zoo t (mini_instances 3) in
  checki "six policies" 6 (List.length rows);
  ignore (Format.asprintf "%a" Experiments.Ablation.print_policies rows)

(* --- Table 2 (miniature) --- *)

let test_table2_runs () =
  let data = Experiments.Data.prepare ~seed:4 ~per_year:2 ~budget:100_000 () in
  let t = Experiments.Table2.run ~epochs:2 ~lr:1e-3 data in
  checki "five rows" 5 (List.length t.Experiments.Table2.rows);
  List.iter
    (fun (r : Experiments.Table2.row) ->
      let rep = r.Experiments.Table2.report in
      checkb "percentages in range" true
        (rep.Core.Metrics.accuracy_pct >= 0.0 && rep.Core.Metrics.accuracy_pct <= 100.0))
    t.Experiments.Table2.rows;
  ignore (Format.asprintf "%a" Experiments.Table2.print t)

let suite =
  [
    Alcotest.test_case "simtime mapping" `Quick test_simtime_mapping;
    Alcotest.test_case "simtime invalid" `Quick test_simtime_invalid;
    Alcotest.test_case "runner solves" `Quick test_runner_solves_within_budget;
    Alcotest.test_case "runner timeout" `Quick test_runner_timeout;
    Alcotest.test_case "fig3 series" `Quick test_fig3_series;
    Alcotest.test_case "policy compare" `Slow test_policy_compare_runs;
    Alcotest.test_case "data prepare" `Slow test_data_prepare;
    Alcotest.test_case "adaptive eval" `Slow test_adaptive_eval_runs;
    Alcotest.test_case "solve protected retries" `Quick test_solve_protected_retries;
    Alcotest.test_case "entry record roundtrip" `Quick test_entry_record_roundtrip;
    Alcotest.test_case "journal resume" `Slow test_adaptive_eval_journal_resume;
    Alcotest.test_case "alpha sweep" `Slow test_alpha_sweep;
    Alcotest.test_case "policy zoo" `Slow test_policy_zoo;
    Alcotest.test_case "table2 miniature" `Slow test_table2_runs;
  ]

(* additional ablation harness coverage *)

let test_fraction_sweep () =
  let t = Experiments.Simtime.make ~budget:150_000 in
  let rows =
    Experiments.Ablation.fraction_sweep ~fractions:[ 0.3; 0.7 ] t (mini_instances 3)
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  ignore (Format.asprintf "%a" Experiments.Ablation.print_fractions rows)

let test_restart_comparison () =
  let t = Experiments.Simtime.make ~budget:150_000 in
  let rows = Experiments.Ablation.restart_comparison t (mini_instances 3) in
  Alcotest.(check int) "three schedules" 3 (List.length rows);
  List.iter
    (fun (r : Experiments.Ablation.restart_row) ->
      checkb "propagations counted" true (r.Experiments.Ablation.r_total_propagations > 0))
    rows;
  ignore (Format.asprintf "%a" Experiments.Ablation.print_restarts rows)

let suite =
  suite
  @ [
      Alcotest.test_case "fraction sweep" `Slow test_fraction_sweep;
      Alcotest.test_case "restart comparison" `Slow test_restart_comparison;
    ]
