(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the DESIGN.md ablations and bechamel kernel
   micro-benchmarks.

   Sections (run all by default, or pass section names as arguments):
     fig3    — propagation-frequency distribution
     table1  — dataset statistics
     fig4    — default vs frequency policy scatter
     table2  — classifier comparison (NeuroSAT / GIN / NS w/o attn / NS)
     table3  — runtime statistics, Kissat vs NeuroSelect-Kissat
     fig7    — scatter + inference/improvement box plots (same run as table3)
     ablation — alpha sweep and deletion-policy zoo
     kernels — bechamel micro-benchmarks (BCP, reduce, inference)

   Environment: NS_BENCH_FAST=1 shrinks the dataset and epochs ~4x;
   NS_TRACE=path emits JSONL spans.

   --json FILE additionally writes an ns.bench/1 report of the kernel
   OLS estimates (see README "Observability"). bin/benchdiff.exe gates
   CI on it. *)

let fast = Sys.getenv_opt "NS_BENCH_FAST" = Some "1"

let sections =
  [
    "fig3"; "table1"; "fig4"; "table2"; "table3"; "fig7"; "ablation"; "kernels";
  ]

let usage () =
  Printf.eprintf
    "usage: bench/main.exe [--json FILE] [SECTION...]\n\
     sections: %s\n\
     (no sections runs everything; NS_BENCH_FAST=1 shrinks the run ~4x)\n"
    (String.concat " " sections)

(* Reject unknown section names instead of silently matching nothing:
   a typo like `kernls` used to print only the banner and exit 0. *)
let selected, json_out =
  let rec parse acc json = function
    | [] -> (List.rev acc, json)
    | "--json" :: path :: rest -> parse acc (Some path) rest
    | [ "--json" ] ->
      prerr_endline "bench: --json needs a FILE argument";
      usage ();
      exit 2
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: rest when List.mem arg sections -> parse (arg :: acc) json rest
    | arg :: _ ->
      Printf.eprintf "bench: unknown section %S\n" arg;
      usage ();
      exit 2
  in
  parse [] None (List.tl (Array.to_list Sys.argv))

(* Dataset settings validated to give a learnable label distribution at
   this scale (see DESIGN.md on label noise): seed 7 draws a family mix
   whose positives correlate with family/size structure. *)
let per_year = if fast then 6 else 12
let budget = if fast then 400_000 else 800_000
let epochs = if fast then 10 else 40
let dataset_seed = 7

let section_header title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let wanted name = selected = [] || List.mem name selected

(* Shared state: dataset preparation and the trained model are reused
   across sections. *)
let prepared = ref None

let progress s = Format.printf "%s@." s

let get_data () =
  match !prepared with
  | Some d -> d
  | None ->
    Format.printf "preparing dataset (seed %d, %d per year, budget %d) ...@."
      dataset_seed per_year budget;
    let d = Experiments.Data.prepare ~seed:dataset_seed ~per_year ~budget () in
    Format.printf "train %d (%d positive), test %d (%d positive)@."
      (List.length d.Experiments.Data.train)
      (Experiments.Data.positives d.Experiments.Data.train)
      (List.length d.Experiments.Data.test)
      (Experiments.Data.positives d.Experiments.Data.test);
    prepared := Some d;
    d

let trained_model = ref None

let get_model () =
  match !trained_model with
  | Some m -> m
  | None ->
    let data = get_data () in
    let model = Core.Model.create Core.Model.paper_config in
    Format.printf "training NeuroSelect (%d params, %d epochs) ...@."
      (Core.Model.num_parameters model) epochs;
    let train_progress ~epoch ~loss =
      if epoch mod 5 = 0 then Format.printf "  epoch %3d  loss %.4f@." epoch loss
    in
    let _ =
      Core.Trainer.train ~epochs ~lr:3e-3 ~progress:train_progress model
        (Experiments.Data.examples data.Experiments.Data.train)
    in
    trained_model := Some model;
    model

let run_fig3 () =
  section_header "Figure 3 — propagation frequency distribution";
  let series =
    if fast then Experiments.Fig3.run ~vertices:200 ~conflicts:1500 ()
    else Experiments.Fig3.run ()
  in
  Format.printf "%a@." Experiments.Fig3.print series

let run_table1 () =
  section_header "Table 1 — dataset statistics (synthetic year-structured)";
  let data = get_data () in
  let instances =
    List.map (fun l -> l.Experiments.Data.instance)
      (data.Experiments.Data.train @ data.Experiments.Data.test)
  in
  Format.printf "%a@." Gen.Dataset.pp_stats (Gen.Dataset.stats instances)

let run_fig4 () =
  section_header "Figure 4 — default vs frequency-guided clause deletion";
  let data = get_data () in
  let instances =
    List.map (fun l -> l.Experiments.Data.instance) data.Experiments.Data.test
  in
  let summary =
    Experiments.Policy_compare.run data.Experiments.Data.simtime instances
  in
  Format.printf "%a@." Experiments.Policy_compare.print summary

let run_table2 () =
  section_header "Table 2 — SAT classification models";
  let data = get_data () in
  let t = Experiments.Table2.run ~epochs ~lr:3e-3 ~progress ~seed:5 data in
  (* Reuse the trained full model for Table 3 / Figure 7. *)
  if !trained_model = None then trained_model := Some t.Experiments.Table2.full_model;
  Format.printf "%a@." Experiments.Table2.print t

let adaptive_result = ref None

let get_adaptive () =
  match !adaptive_result with
  | Some r -> r
  | None ->
    let data = get_data () in
    let model = get_model () in
    let instances =
      List.map (fun l -> l.Experiments.Data.instance) data.Experiments.Data.test
    in
    let r =
      Experiments.Adaptive_eval.run ~progress model data.Experiments.Data.simtime
        instances
    in
    adaptive_result := Some r;
    r

let run_table3 () =
  section_header "Table 3 — runtime statistics (Kissat vs NeuroSelect-Kissat)";
  Format.printf "%a@." Experiments.Adaptive_eval.print_table3 (get_adaptive ())

let run_fig7 () =
  section_header "Figure 7 — NeuroSelect-Kissat performance";
  let r = get_adaptive () in
  Format.printf "%a@.@.%a@." Experiments.Adaptive_eval.print_fig7a r
    Experiments.Adaptive_eval.print_fig7b r

let run_ablation () =
  section_header "Ablations — alpha sweep and deletion-policy zoo";
  let instances =
    Gen.Dataset.generate_year ~seed:77 ~per_year:(if fast then 4 else 8) 2022
  in
  let simtime = Experiments.Simtime.make ~budget:(budget / 2) in
  let zoo = Experiments.Ablation.policy_zoo ~progress simtime instances in
  Format.printf "%a@.@." Experiments.Ablation.print_policies zoo;
  let sweep = Experiments.Ablation.alpha_sweep ~progress simtime instances in
  Format.printf "%a@.@." Experiments.Ablation.print_alpha sweep;
  let fractions = Experiments.Ablation.fraction_sweep ~progress simtime instances in
  Format.printf "%a@.@." Experiments.Ablation.print_fractions fractions;
  let restarts = Experiments.Ablation.restart_comparison ~progress simtime instances in
  Format.printf "%a@." Experiments.Ablation.print_restarts restarts

(* --- bechamel kernel micro-benchmarks --- *)

let kernel_tests () =
  let open Bechamel in
  let bcp_instance =
    let rng = Util.Rng.create 1 in
    Gen.Ksat.generate rng ~num_vars:120 ~num_clauses:500 ~k:3
  in
  let bcp =
    Test.make ~name:"solver: 20k propagations of 3-SAT"
      (Staged.stage (fun () ->
           let config =
             Cdcl.Config.with_budget ~max_propagations:20_000 Cdcl.Config.default
           in
           ignore (Cdcl.Solver.solve_formula ~config bcp_instance)))
  in
  let reduce_instance = Gen.Pigeonhole.unsat 6 in
  let reduce =
    Test.make ~name:"solver: PHP(7,6) full solve (reduces included)"
      (Staged.stage (fun () -> ignore (Cdcl.Solver.solve_formula reduce_instance)))
  in
  (* Arena-specific kernels. bcp_arena is propagation-bound on a larger
     instance (short clause DB walks, blocking-literal hits dominate);
     reduce_arena drives the packed-key ranking, watcher flush, and
     copying compaction hard via an aggressive deletion schedule. *)
  let bcp_arena_instance =
    let rng = Util.Rng.create 3 in
    Gen.Ksat.generate rng ~num_vars:400 ~num_clauses:1_680 ~k:3
  in
  let bcp_arena =
    Test.make ~name:"solver: bcp_arena 100k propagations of 3-SAT"
      (Staged.stage (fun () ->
           let config =
             Cdcl.Config.with_budget ~max_propagations:100_000 Cdcl.Config.default
           in
           ignore (Cdcl.Solver.solve_formula ~config bcp_arena_instance)))
  in
  let reduce_arena =
    Test.make ~name:"solver: reduce_arena PHP(7,6), aggressive deletion"
      (Staged.stage (fun () ->
           let config =
             {
               Cdcl.Config.default with
               Cdcl.Config.policy = Cdcl.Policy.frequency_default;
               reduce_first = 20;
               reduce_inc = 5;
               reduce_fraction = 0.8;
               tier1_glue = 0;
             }
           in
           ignore (Cdcl.Solver.solve_formula ~config reduce_instance)))
  in
  (* Inprocessing kernels. PHP(8,7) is the smallest pigeonhole where the
     tier/vivify/subsume machinery fires often enough to dominate noise:
     a full solve runs ~150 vivifications and ~1k subsumptions. The
     second kernel forces a pass at every restart with the deletion
     schedule of reduce_arena, so pass overhead (occurrence stamping,
     probe propagation, DRUP emission) is the measured quantity rather
     than search. *)
  let inprocess_instance = Gen.Pigeonhole.unsat 7 in
  let inprocess_cfg =
    Cdcl.Config.with_inprocess ~interval:4 true
      {
        Cdcl.Config.default with
        Cdcl.Config.policy = Cdcl.Policy.frequency_default;
        reduce_first = 300;
        reduce_inc = 100;
        reduce_fraction = 0.5;
      }
  in
  let inprocess =
    Test.make ~name:"solver: inprocess PHP(8,7) full solve (vivify+subsume)"
      (Staged.stage (fun () ->
           ignore (Cdcl.Solver.solve_formula ~config:inprocess_cfg inprocess_instance)))
  in
  let inprocess_pass_cfg =
    Cdcl.Config.with_inprocess ~interval:1 true
      {
        Cdcl.Config.default with
        Cdcl.Config.policy = Cdcl.Policy.frequency_default;
        reduce_first = 20;
        reduce_inc = 5;
        reduce_fraction = 0.8;
        tier1_glue = 0;
      }
  in
  let inprocess_pass =
    Test.make ~name:"solver: inprocess_pass PHP(7,6), pass every restart"
      (Staged.stage (fun () ->
           ignore (Cdcl.Solver.solve_formula ~config:inprocess_pass_cfg reduce_instance)))
  in
  let attn_graph =
    let rng = Util.Rng.create 2 in
    Satgraph.Bigraph.of_formula (Gen.Ksat.near_threshold rng ~num_vars:300)
  in
  (* GEMM kernels: the blocked/register-tiled kernel vs the naive
     reference it is held bit-identical to. One shared 256x256 operand
     pair, preallocated output for the blocked kernel so the
     measurement is the kernel, not the allocator. *)
  let gemm_a, gemm_b =
    let rng = Util.Rng.create 11 in
    ( Tensor.Mat.random_uniform rng 256 256 1.0,
      Tensor.Mat.random_uniform rng 256 256 1.0 )
  in
  let gemm_out = Tensor.Mat.zeros 256 256 in
  let gemm_naive =
    Test.make ~name:"tensor: gemm_naive 256x256"
      (Staged.stage (fun () ->
           ignore (Tensor.Mat.matmul_naive gemm_a gemm_b)))
  in
  let gemm_blocked =
    Test.make ~name:"tensor: gemm_blocked 256x256"
      (Staged.stage (fun () ->
           Tensor.Mat.matmul_into ~out:gemm_out gemm_a gemm_b))
  in
  (* Selector inference: the production engine on one 300-var instance
     (the forward that precedes every adaptive solve). *)
  let model = Core.Model.create Core.Model.paper_config in
  let selector_infer =
    Test.make ~name:"model: selector_infer fast engine, 300-var CNF"
      (Staged.stage (fun () -> ignore (Core.Model.predict model attn_graph)))
  in
  [
    bcp;
    bcp_arena;
    reduce;
    reduce_arena;
    inprocess;
    inprocess_pass;
    gemm_naive;
    gemm_blocked;
    selector_infer;
  ]

(* Estimates from the last kernels run, for the --json report. *)
let kernel_estimates = ref []

let run_kernels () =
  section_header "Kernel micro-benchmarks (bechamel)";
  let open Bechamel in
  (* 3s per kernel: the inference kernel runs ~100ms/iteration, so a
     1s quota left the OLS estimate with a handful of samples and
     back-to-back runs drifted past the CI gate's 25% tolerance. *)
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 3.0) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let handle test =
    let results = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let analysis = Analyze.all ols Toolkit.Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
          kernel_estimates :=
            { Obs.Bench_report.name; ns_per_run = est } :: !kernel_estimates;
          Format.printf "%-48s %12.0f ns/run@." name est
        | Some _ | None -> Format.printf "%-48s (no estimate)@." name)
      analysis
  in
  List.iter handle (kernel_tests ())

let write_json path =
  let date =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let report =
    Obs.Bench_report.make ~date ~fast
      ~kernels:
        (List.sort
           (fun a b ->
             String.compare a.Obs.Bench_report.name b.Obs.Bench_report.name)
           !kernel_estimates)
  in
  Obs.Bench_report.write_file path report;
  Format.printf "bench report written to %s@." path

let () =
  Obs.Trace.install_from_env ();
  Format.printf "NeuroSelect benchmark harness%s@."
    (if fast then " (fast mode)" else "");
  if wanted "fig3" then run_fig3 ();
  if wanted "table1" then run_table1 ();
  if wanted "fig4" then run_fig4 ();
  if wanted "table2" then run_table2 ();
  if wanted "table3" then run_table3 ();
  if wanted "fig7" then run_fig7 ();
  if wanted "ablation" then run_ablation ();
  if wanted "kernels" then run_kernels ();
  (match json_out with Some path -> write_json path | None -> ());
  Format.printf "@.done.@."
