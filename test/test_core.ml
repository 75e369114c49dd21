(* Tests for the NeuroSelect core: MPNN, attention, HGT, model,
   metrics, labeller, trainer, selector. *)

module Ad = Nn.Ad
module Mat = Tensor.Mat
module Bigraph = Satgraph.Bigraph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let small_formula =
  Cnf.Formula.of_dimacs_lists ~num_vars:4
    [ [ 1; -2 ]; [ 2; 3 ]; [ -1; -3; 4 ]; [ -4; 1 ]; [ 2; -3 ] ]

let small_graph = Bigraph.of_formula small_formula

(* --- MPNN --- *)

let test_mpnn_shapes () =
  let rng = Util.Rng.create 1 in
  let layer = Core.Mpnn.create rng ~var_in:1 ~clause_in:1 ~out_dim:6 ~name:"m" in
  let tape = Ad.tape () in
  let vf = Ad.const tape (Bigraph.initial_var_features small_graph) in
  let cf = Ad.const tape (Bigraph.initial_clause_features small_graph) in
  let vf', cf' = Core.Mpnn.forward tape layer small_graph ~var_feats:vf ~clause_feats:cf in
  checkb "var shape" true (Mat.shape (Ad.value vf') = (4, 6));
  checkb "clause shape" true (Mat.shape (Ad.value cf') = (5, 6));
  checki "out_dim" 6 (Core.Mpnn.out_dim layer);
  checki "param count" 12 (List.length (Core.Mpnn.params layer))

let test_mpnn_eq6_aggregation () =
  (* Hand-check Eq. 6 on a single-clause graph with identity-ish MLP:
     set message weights to identity (1x1: weight 1, bias 0) so the
     message into clause c is mean(w_uv * h_u). *)
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; -2 ] ] in
  let g = Bigraph.of_formula f in
  let rng = Util.Rng.create 2 in
  let layer = Core.Mpnn.create rng ~var_in:1 ~clause_in:1 ~out_dim:1 ~name:"m" in
  (* Overwrite parameters: every linear = identity with zero bias,
     except the clause-update output which we keep identity too. *)
  List.iter
    (fun (p : Nn.Param.t) ->
      let r = Mat.rows p.Nn.Param.value and c = Mat.cols p.Nn.Param.value in
      p.Nn.Param.value <- Mat.init r c (fun i j -> if r > 1 || c > 1 then 0.0 else if i = j then 1.0 else 0.0);
      if r = 1 && c = 1 then p.Nn.Param.value <- Mat.create 1 1 1.0)
    (Core.Mpnn.params layer);
  (* Zero all biases (they are 1 x out_dim with name containing bias —
     identified by shape 1 x 1 here too; instead set every param of
     shape 1x1 to 1 and rely on the bias being 1... too brittle).
     Simpler: verify numerically that messages respect edge signs:
     clause with +x1 and -x2, var features [a; b] -> aggregated message
     proportional to (a - b)/2. Probe with two feature settings. *)
  let probe a b =
    let tape = Ad.tape () in
    let vf = Ad.const tape (Mat.of_arrays [| [| a |]; [| b |] |]) in
    let cf = Ad.const tape (Mat.zeros 1 1) in
    let _, cf' = Core.Mpnn.forward tape layer g ~var_feats:vf ~clause_feats:cf in
    Mat.get (Ad.value cf') 0 0
  in
  (* Swapping a,b with opposite signs must give the same clause value:
     (a - b)/2 invariant under (a,b) -> (-b,-a). *)
  checkf "sign structure respected" (probe 1.0 0.25) (probe (-0.25) (-1.0))

let test_mpnn_isolated_nodes_finite () =
  (* A formula with an unused variable: inverse degree 0 must not
     produce NaNs. *)
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2 ] ] in
  let g = Bigraph.of_formula f in
  let rng = Util.Rng.create 3 in
  let layer = Core.Mpnn.create rng ~var_in:1 ~clause_in:1 ~out_dim:4 ~name:"m" in
  let tape = Ad.tape () in
  let vf = Ad.const tape (Bigraph.initial_var_features g) in
  let cf = Ad.const tape (Bigraph.initial_clause_features g) in
  let vf', _ = Core.Mpnn.forward tape layer g ~var_feats:vf ~clause_feats:cf in
  let v = Ad.value vf' in
  let finite = ref true in
  for i = 0 to Mat.rows v - 1 do
    for j = 0 to Mat.cols v - 1 do
      if not (Float.is_finite (Mat.get v i j)) then finite := false
    done
  done;
  checkb "all finite" true !finite

(* --- Attention --- *)

let test_attention_shapes () =
  let rng = Util.Rng.create 4 in
  let attn = Core.Attention.create rng ~dim:5 ~name:"a" in
  let tape = Ad.tape () in
  let z = Ad.const tape (Mat.random_uniform rng 7 5 1.0) in
  let out = Core.Attention.forward tape attn z in
  checkb "shape preserved" true (Mat.shape (Ad.value out) = (7, 5));
  checki "three bias-free linears" 3 (List.length (Core.Attention.params attn))

let test_attention_eq9_manual () =
  (* Check Eq. 8/9 against a direct dense computation with the layer's
     own Q, K, V weights. *)
  let rng = Util.Rng.create 6 in
  let dim = 3 and n = 4 in
  let attn = Core.Attention.create rng ~dim ~name:"a" in
  let z = Mat.random_uniform rng n dim 1.0 in
  let params = Core.Attention.params attn in
  let weight name =
    let p =
      List.find (fun (p : Nn.Param.t) -> p.Nn.Param.name = "a." ^ name ^ ".weight") params
    in
    p.Nn.Param.value
  in
  let q = Mat.matmul z (weight "f_q") in
  let k = Mat.matmul z (weight "f_k") in
  let v = Mat.matmul z (weight "f_v") in
  let qn = Mat.scale (1.0 /. Mat.frobenius_norm q) q in
  let kn = Mat.scale (1.0 /. Mat.frobenius_norm k) k in
  let inv_n = 1.0 /. float_of_int n in
  let numerator = Mat.add v (Mat.scale inv_n (Mat.matmul qn (Mat.matmul (Mat.transpose kn) v))) in
  let ones = Mat.create n 1 1.0 in
  let dvec = Mat.matmul qn (Mat.matmul (Mat.transpose kn) ones) in
  let expected =
    Mat.init n dim (fun i j ->
        Mat.get numerator i j /. (1.0 +. (inv_n *. Mat.get dvec i 0)))
  in
  let tape = Ad.tape () in
  let out = Core.Attention.forward tape attn (Ad.const tape z) in
  checkb "matches dense Eq. 9" true (Mat.approx_equal ~eps:1e-9 (Ad.value out) expected)

let test_attention_single_node () =
  let rng = Util.Rng.create 7 in
  let attn = Core.Attention.create rng ~dim:4 ~name:"a" in
  let tape = Ad.tape () in
  let z = Ad.const tape (Mat.random_uniform rng 1 4 1.0) in
  let out = Core.Attention.forward tape attn z in
  checkb "single node ok" true (Mat.shape (Ad.value out) = (1, 4))

(* --- HGT / Model --- *)

let test_hgt_attention_flag () =
  let rng = Util.Rng.create 8 in
  let with_attn =
    Core.Hgt.create rng ~var_in:1 ~clause_in:1 ~hidden:4 ~mpnn_layers:2
      ~use_attention:true ~name:"h"
  in
  let without =
    Core.Hgt.create rng ~var_in:1 ~clause_in:1 ~hidden:4 ~mpnn_layers:2
      ~use_attention:false ~name:"h2"
  in
  checkb "attention on" true (Core.Hgt.uses_attention with_attn);
  checkb "attention off" false (Core.Hgt.uses_attention without);
  checkb "ablation has fewer params" true
    (List.length (Core.Hgt.params without) < List.length (Core.Hgt.params with_attn))

let test_model_predict_range () =
  let model = Core.Model.create Core.Model.small_config in
  let p = Core.Model.predict model small_graph in
  checkb "probability in (0,1)" true (p > 0.0 && p < 1.0);
  checkb "classify consistent" true (Core.Model.classify model small_graph = (p > 0.5))

let test_model_deterministic () =
  let m1 = Core.Model.create Core.Model.small_config in
  let m2 = Core.Model.create Core.Model.small_config in
  checkf "same seed same prediction" (Core.Model.predict m1 small_graph)
    (Core.Model.predict m2 small_graph)

let test_model_seed_changes () =
  let m1 = Core.Model.create Core.Model.small_config in
  let m2 = Core.Model.create { Core.Model.small_config with seed = 99 } in
  checkb "different seed different prediction" true
    (Core.Model.predict m1 small_graph <> Core.Model.predict m2 small_graph)

let test_model_param_count_config () =
  let small = Core.Model.create Core.Model.small_config in
  let paper = Core.Model.create Core.Model.paper_config in
  checkb "paper model bigger" true
    (Core.Model.num_parameters paper > Core.Model.num_parameters small);
  checki "params list consistent"
    (Core.Model.num_parameters paper)
    (List.fold_left (fun a p -> a + Nn.Param.num_elements p) 0 (Core.Model.params paper))

let test_model_save_load () =
  let model = Core.Model.create Core.Model.small_config in
  let path = Filename.temp_file "neuroselect" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let before = Core.Model.predict model small_graph in
      Core.Model.save ~epochs:0 path model;
      let fresh = Core.Model.create { Core.Model.small_config with seed = 123 } in
      checkb "fresh differs" true (Core.Model.predict fresh small_graph <> before);
      Core.Model.load path fresh;
      checkf "restored prediction" before (Core.Model.predict fresh small_graph))

let test_model_predict_formula_agrees () =
  let model = Core.Model.create Core.Model.small_config in
  checkf "predict_formula = predict of graph"
    (Core.Model.predict model small_graph)
    (Core.Model.predict_formula model small_formula)

(* --- Metrics --- *)

let test_metrics_confusion () =
  let predicted = [| true; true; false; false; true |] in
  let actual = [| true; false; false; true; true |] in
  let c = Core.Metrics.confusion ~predicted ~actual in
  checki "tp" 2 c.Core.Metrics.tp;
  checki "fp" 1 c.Core.Metrics.fp;
  checki "tn" 1 c.Core.Metrics.tn;
  checki "fn" 1 c.Core.Metrics.fn;
  checkf "precision" (2.0 /. 3.0) (Core.Metrics.precision c);
  checkf "recall" (2.0 /. 3.0) (Core.Metrics.recall c);
  checkf "f1" (2.0 /. 3.0) (Core.Metrics.f1 c);
  checkf "accuracy" 0.6 (Core.Metrics.accuracy c)

let test_metrics_degenerate () =
  let c = Core.Metrics.confusion ~predicted:[| false; false |] ~actual:[| true; false |] in
  checkf "precision 0 when no positives predicted" 0.0 (Core.Metrics.precision c);
  checkf "f1 0" 0.0 (Core.Metrics.f1 c)

let test_metrics_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics.confusion: length mismatch") (fun () ->
      ignore (Core.Metrics.confusion ~predicted:[| true |] ~actual:[||]))

let test_metrics_report_percentages () =
  let r = Core.Metrics.report ~predicted:[| true; false |] ~actual:[| true; false |] in
  checkf "perfect precision" 100.0 r.Core.Metrics.precision_pct;
  checkf "perfect accuracy" 100.0 r.Core.Metrics.accuracy_pct

(* --- Labeler --- *)

let test_labeler_consistency () =
  let rng = Util.Rng.create 42 in
  let f = Gen.Parity.contradiction rng ~num_vars:14 in
  let o = Core.Labeler.label_instance ~budget:500_000 f in
  checkb "reduction consistent with counts" true
    (Float.abs
       (o.Core.Labeler.reduction
       -. (float_of_int (o.Core.Labeler.default_propagations - o.Core.Labeler.frequency_propagations)
          /. float_of_int o.Core.Labeler.default_propagations))
    < 1e-9);
  checkb "label consistent with threshold" true
    (o.Core.Labeler.label = (o.Core.Labeler.reduction >= 0.02))

let test_labeler_deterministic () =
  let rng = Util.Rng.create 43 in
  let f = Gen.Ksat.generate rng ~num_vars:30 ~num_clauses:120 ~k:3 in
  let o1 = Core.Labeler.label_instance ~budget:200_000 f in
  let o2 = Core.Labeler.label_instance ~budget:200_000 f in
  checki "default props deterministic" o1.Core.Labeler.default_propagations
    o2.Core.Labeler.default_propagations;
  checki "frequency props deterministic" o1.Core.Labeler.frequency_propagations
    o2.Core.Labeler.frequency_propagations

let test_labeler_threshold_sensitivity () =
  let rng = Util.Rng.create 44 in
  let f = Gen.Parity.contradiction rng ~num_vars:12 in
  (* With a -100% threshold every instance is positive; with +100%
     none (reduction can never reach 100%). *)
  let always = Core.Labeler.label_instance ~threshold:(-1.0) ~budget:200_000 f in
  let never = Core.Labeler.label_instance ~threshold:1.0 ~budget:200_000 f in
  checkb "threshold -1 labels positive" true always.Core.Labeler.label;
  checkb "threshold 1 labels negative" false never.Core.Labeler.label

(* --- Selector --- *)

let test_selector_policy_matches_probability () =
  let model = Core.Model.create Core.Model.small_config in
  let s = Core.Selector.select_policy model small_formula in
  (match s.Core.Selector.policy with
  | Cdcl.Policy.Frequency _ -> checkb "p > 0.5" true (s.Core.Selector.probability > 0.5)
  | Cdcl.Policy.Default -> checkb "p <= 0.5" true (s.Core.Selector.probability <= 0.5)
  | _ -> Alcotest.fail "selector must pick default or frequency");
  checkb "inference time nonnegative" true (s.Core.Selector.inference_seconds >= 0.0)

(* The selection runs at the first reduce: PHP(6,5) reaches one (152
   conflicts), PHP(4,3) ends at 7 conflicts without one and so selects
   nothing. *)
let test_selector_solve_adaptive () =
  let model = Core.Model.create Core.Model.small_config in
  let selection, result, stats =
    Core.Selector.solve_adaptive model (Gen.Pigeonhole.unsat 5)
  in
  checkb "solves correctly" true (result = Cdcl.Solver.Unsat);
  checkb "reaches a reduce" true (stats.Cdcl.Solver_stats.reduces > 0);
  (match selection with
  | Some s ->
    checkb "selected by the model" true
      (s.Core.Selector.degraded = None
      && Float.is_finite s.Core.Selector.probability)
  | None -> Alcotest.fail "a solve that reduces must select");
  let selection, result, stats =
    Core.Selector.solve_adaptive model (Gen.Pigeonhole.unsat 3)
  in
  checkb "small instance solves" true (result = Cdcl.Solver.Unsat);
  checki "small instance never reduces" 0 stats.Cdcl.Solver_stats.reduces;
  checkb "no selection before the first reduce" true (selection = None)

let test_selector_custom_alpha () =
  let model = Core.Model.create Core.Model.small_config in
  let s = Core.Selector.select_policy ~alpha:0.6 model small_formula in
  match s.Core.Selector.policy with
  | Cdcl.Policy.Frequency { alpha } -> checkf "alpha propagated" 0.6 alpha
  | Cdcl.Policy.Default -> () (* model said no; nothing to check *)
  | _ -> Alcotest.fail "unexpected policy"

let test_selector_healthy_not_degraded () =
  let model = Core.Model.create Core.Model.small_config in
  let s = Core.Selector.select_policy model small_formula in
  checkb "healthy inference records no degradation" true
    (s.Core.Selector.degraded = None)

(* Poison the output layer (the last parameter): relu layers can mask
   hidden NaNs, the head cannot. *)
let nan_poisoned_model () =
  let model = Core.Model.create Core.Model.small_config in
  (match List.rev (Core.Model.params model) with
  | [] -> Alcotest.fail "model has no parameters"
  | p :: _ -> Tensor.Mat.set p.Nn.Param.value 0 0 Float.nan);
  model

(* Every failure is classified on its own: earlier failures never turn
   a later selection into anything but its own typed fallback. *)
let test_selector_degrades_on_nan_weights () =
  let model = nan_poisoned_model () in
  for i = 1 to 6 do
    let s = Core.Selector.select_policy model small_formula in
    (match s.Core.Selector.degraded with
    | Some (Core.Selector.Non_finite_probability p) ->
      checkb "offending probability is non-finite" true (not (Float.is_finite p))
    | Some (Core.Selector.Model_failure m) ->
      Alcotest.failf "selection %d classified as model failure: %s" i m
    | None -> Alcotest.failf "selection %d: NaN output not detected" i);
    checkb "falls back to the default policy" true
      (s.Core.Selector.policy = Cdcl.Policy.Default)
  done

(* A decision never depends on how long inference took: with a clock
   that jumps 6 s per read, every selection still reaches the model. *)
let test_selector_ignores_clock () =
  let model = Core.Model.create Core.Model.small_config in
  let t = ref 0.0 in
  Runtime.Clock.set_source (fun () ->
      t := !t +. 6.0;
      !t);
  Fun.protect ~finally:Runtime.Clock.use_wall_clock (fun () ->
      for i = 1 to 10 do
        let s = Core.Selector.select_policy model small_formula in
        checkb (Printf.sprintf "selection %d not degraded" i) true
          (s.Core.Selector.degraded = None);
        checkb (Printf.sprintf "selection %d probability finite" i) true
          (Float.is_finite s.Core.Selector.probability)
      done)

let test_selector_degrades_on_injected_failure () =
  let model = Core.Model.create Core.Model.small_config in
  Fun.protect ~finally:Runtime.Fault.disarm (fun () ->
      Runtime.Fault.arm ~seed:3 ~limit:1 [ Runtime.Fault.Inference_failure ];
      let s = Core.Selector.select_policy model small_formula in
      (match s.Core.Selector.degraded with
      | Some (Core.Selector.Model_failure _) -> ()
      | _ -> Alcotest.fail "injected failure not recorded");
      checkb "falls back to the default policy" true
        (s.Core.Selector.policy = Cdcl.Policy.Default);
      (* solve_adaptive still solves under degradation: PHP(6,5)
         reaches a reduce, where the selection fails. *)
      Runtime.Fault.arm ~seed:3 ~limit:1 [ Runtime.Fault.Inference_failure ];
      let sel, result, _ = Core.Selector.solve_adaptive model (Gen.Pigeonhole.unsat 5) in
      checkb "degradation surfaced to caller" true
        (match sel with
        | Some s ->
          s.Core.Selector.degraded <> None
          && s.Core.Selector.policy = Cdcl.Policy.Default
        | None -> false);
      checkb "still solves" true (result = Cdcl.Solver.Unsat))

(* --- Trainer --- *)

let test_trainer_overfits_separable () =
  (* 3 parity vs 3 ksat instances with opposite labels: the model must
     fit them (family structure is clearly separable). *)
  let rng = Util.Rng.create 51 in
  let examples =
    List.init 3 (fun i ->
        Core.Trainer.example_of_formula
          ~name:(Printf.sprintf "p%d" i)
          ~label:true
          (Gen.Parity.contradiction rng ~num_vars:(12 + i)))
    @ List.init 3 (fun i ->
          Core.Trainer.example_of_formula
            ~name:(Printf.sprintf "k%d" i)
            ~label:false
            (Gen.Ksat.near_threshold rng ~num_vars:(60 + (5 * i))))
  in
  let model = Core.Model.create { Core.Model.small_config with hidden_dim = 12 } in
  let history = Core.Trainer.train ~epochs:60 ~lr:5e-3 model examples in
  checkb "loss decreased" true
    (history.Core.Trainer.epoch_losses.(59) < history.Core.Trainer.epoch_losses.(0));
  checkb "fits training set" true (history.Core.Trainer.final_train_accuracy >= 0.99)

let test_trainer_empty () =
  let model = Core.Model.create Core.Model.small_config in
  Alcotest.check_raises "empty" (Invalid_argument "Trainer.train: empty dataset")
    (fun () -> ignore (Core.Trainer.train model []))

let test_trainer_predictions_aligned () =
  let rng = Util.Rng.create 52 in
  let examples =
    List.init 4 (fun i ->
        Core.Trainer.example_of_formula
          ~name:(string_of_int i)
          ~label:(i mod 2 = 0)
          (Gen.Ksat.generate rng ~num_vars:10 ~num_clauses:30 ~k:3))
  in
  let model = Core.Model.create Core.Model.small_config in
  let predicted, actual = Core.Trainer.predictions model examples in
  checki "lengths" (List.length examples) (Array.length predicted);
  Alcotest.(check (array bool)) "actual labels preserved"
    [| true; false; true; false |] actual

let suite =
  [
    Alcotest.test_case "mpnn shapes" `Quick test_mpnn_shapes;
    Alcotest.test_case "mpnn eq6 sign structure" `Quick test_mpnn_eq6_aggregation;
    Alcotest.test_case "mpnn isolated nodes" `Quick test_mpnn_isolated_nodes_finite;
    Alcotest.test_case "attention shapes" `Quick test_attention_shapes;
    Alcotest.test_case "attention eq9 manual" `Quick test_attention_eq9_manual;
    Alcotest.test_case "attention single node" `Quick test_attention_single_node;
    Alcotest.test_case "hgt attention flag" `Quick test_hgt_attention_flag;
    Alcotest.test_case "model predict range" `Quick test_model_predict_range;
    Alcotest.test_case "model deterministic" `Quick test_model_deterministic;
    Alcotest.test_case "model seed changes" `Quick test_model_seed_changes;
    Alcotest.test_case "model param count" `Quick test_model_param_count_config;
    Alcotest.test_case "model save/load" `Quick test_model_save_load;
    Alcotest.test_case "model predict_formula" `Quick test_model_predict_formula_agrees;
    Alcotest.test_case "metrics confusion" `Quick test_metrics_confusion;
    Alcotest.test_case "metrics degenerate" `Quick test_metrics_degenerate;
    Alcotest.test_case "metrics mismatch" `Quick test_metrics_mismatch;
    Alcotest.test_case "metrics report" `Quick test_metrics_report_percentages;
    Alcotest.test_case "labeler consistency" `Quick test_labeler_consistency;
    Alcotest.test_case "labeler deterministic" `Quick test_labeler_deterministic;
    Alcotest.test_case "labeler threshold" `Quick test_labeler_threshold_sensitivity;
    Alcotest.test_case "selector policy/probability" `Quick test_selector_policy_matches_probability;
    Alcotest.test_case "selector solve adaptive" `Quick test_selector_solve_adaptive;
    Alcotest.test_case "selector custom alpha" `Quick test_selector_custom_alpha;
    Alcotest.test_case "selector healthy not degraded" `Quick
      test_selector_healthy_not_degraded;
    Alcotest.test_case "selector degrades on nan" `Quick
      test_selector_degrades_on_nan_weights;
    Alcotest.test_case "selector ignores the clock" `Quick
      test_selector_ignores_clock;
    Alcotest.test_case "selector degrades on injected failure" `Quick
      test_selector_degrades_on_injected_failure;
    Alcotest.test_case "trainer overfits separable" `Slow test_trainer_overfits_separable;
    Alcotest.test_case "trainer empty" `Quick test_trainer_empty;
    Alcotest.test_case "trainer predictions aligned" `Quick test_trainer_predictions_aligned;
  ]

let test_attention_ablation_differs () =
  let with_attn = Core.Model.create Core.Model.small_config in
  let without =
    Core.Model.create { Core.Model.small_config with use_attention = false }
  in
  checkb "ablation changes prediction" true
    (Core.Model.predict with_attn small_graph
    <> Core.Model.predict without small_graph);
  checkb "ablation has fewer parameters" true
    (Core.Model.num_parameters without < Core.Model.num_parameters with_attn)

let test_normalize_readout_flag () =
  let normalised = Core.Model.create Core.Model.small_config in
  let plain =
    Core.Model.create { Core.Model.small_config with normalize_readout = false }
  in
  checkb "flag changes prediction" true
    (Core.Model.predict normalised small_graph <> Core.Model.predict plain small_graph)

let test_hgt_stacking_shapes () =
  let rng = Util.Rng.create 23 in
  let h1 =
    Core.Hgt.create rng ~var_in:1 ~clause_in:1 ~hidden:6 ~mpnn_layers:3
      ~use_attention:true ~name:"s1"
  in
  let h2 =
    Core.Hgt.create rng ~var_in:6 ~clause_in:6 ~hidden:6 ~mpnn_layers:3
      ~use_attention:true ~name:"s2"
  in
  let tape = Ad.tape () in
  let vf = Ad.const tape (Bigraph.initial_var_features small_graph) in
  let cf = Ad.const tape (Bigraph.initial_clause_features small_graph) in
  let vf1, cf1 = Core.Hgt.forward tape h1 small_graph ~var_feats:vf ~clause_feats:cf in
  let vf2, cf2 = Core.Hgt.forward tape h2 small_graph ~var_feats:vf1 ~clause_feats:cf1 in
  checkb "stacked var shape" true (Mat.shape (Ad.value vf2) = (4, 6));
  checkb "stacked clause shape" true (Mat.shape (Ad.value cf2) = (5, 6))

let suite =
  suite
  @ [
      Alcotest.test_case "attention ablation differs" `Quick
        test_attention_ablation_differs;
      Alcotest.test_case "normalize readout flag" `Quick test_normalize_readout_flag;
      Alcotest.test_case "hgt stacking shapes" `Quick test_hgt_stacking_shapes;
    ]

(* --- fast inference engine ---------------------------------------------- *)

let graphs_for_engine_tests n =
  List.init n (fun i ->
      let rng = Util.Rng.create (500 + i) in
      Bigraph.of_formula
        (Gen.Ksat.generate rng ~num_vars:(20 + (3 * i)) ~num_clauses:(80 + (5 * i))
           ~k:3))

(* Reference prediction through the autodiff tape — the training-path
   numerics, kept here as the oracle for the engine behind
   [Model.predict]. *)
let predict_tape model graph =
  let tape = Nn.Ad.tape () in
  let logit = Core.Model.forward_logit model tape graph in
  let z = Tensor.Mat.get (Nn.Ad.value logit) 0 0 in
  1.0 /. (1.0 +. exp (-.z))

(* The engine replaced the training tape as the production [predict]
   path; it must reproduce the tape's output to the last bit, also on a
   formula with variables but no clauses (legal DIMACS: [p cnf 3 0]). *)
let test_engine_matches_tape () =
  let model = Core.Model.create Core.Model.paper_config in
  let clause_free = Bigraph.of_formula (Cnf.Formula.of_dimacs_lists ~num_vars:3 []) in
  List.iter
    (fun g ->
      let fast = Core.Model.predict model g in
      let tape = predict_tape model g in
      checkb "engine = tape (bits)" true
        (Int64.bits_of_float fast = Int64.bits_of_float tape))
    (small_graph :: clause_free :: graphs_for_engine_tests 4)

(* Steady-state inference must be allocation-light: after warmup the
   engine runs out of pooled buffers, so a forward allocates orders of
   magnitude fewer minor words than the tape path (which rebuilds the
   autodiff graph every call). *)
let test_engine_allocation_light () =
  let model = Core.Model.create Core.Model.paper_config in
  let g = small_graph in
  ignore (Core.Model.predict model g);
  ignore (Core.Model.predict model g);
  let words_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let fast = words_of (fun () -> ignore (Core.Model.predict model g)) in
  let tape = words_of (fun () -> ignore (predict_tape model g)) in
  checkb
    (Printf.sprintf "fast %.0f words << tape %.0f words" fast tape)
    true
    (fast < tape /. 20.0)

(* A long-lived selector meets a new graph shape on almost every
   instance. The engine's buffer pool keeps the last shape only, so
   the live heap after 30 distinct shapes stays near one shape's worth
   (a pool that never evicts retains about 23 MB here). *)
let test_engine_pool_bounded () =
  let model = Core.Model.create Core.Model.paper_config in
  let graph i =
    Bigraph.of_formula
      (Gen.Ksat.near_threshold (Util.Rng.create (900 + i))
         ~num_vars:(40 + (7 * i)))
  in
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  ignore (Core.Model.predict model (graph 0));
  let before = live_mb () in
  for i = 0 to 29 do
    ignore (Core.Model.predict model (graph i))
  done;
  let grown = live_mb () -. before in
  ignore (Sys.opaque_identity model);
  checkb (Printf.sprintf "live heap grew %.1f MB over 30 shapes" grown) true
    (grown < 4.0)

(* --- selector decision cache -------------------------------------------- *)

let test_selector_cache_hit_and_stats () =
  Core.Selector.clear_cache ();
  let model = Core.Model.create Core.Model.small_config in
  let before = Core.Selector.cache_stats () in
  let s1 = Core.Selector.select_policy ~use_cache:true model small_formula in
  checkb "first is a miss" true (not s1.Core.Selector.cached);
  let s2 = Core.Selector.select_policy ~use_cache:true model small_formula in
  checkb "second is a hit" true s2.Core.Selector.cached;
  checkf "same probability" s1.Core.Selector.probability
    s2.Core.Selector.probability;
  (* A hit reports the fingerprint+lookup time, not a model forward. *)
  checkb "hit is much cheaper than the miss" true
    (s2.Core.Selector.inference_seconds < 1e-3
    && s2.Core.Selector.inference_seconds <= s1.Core.Selector.inference_seconds);
  let after = Core.Selector.cache_stats () in
  checki "one hit" (before.Core.Selector.hits + 1) after.Core.Selector.hits;
  checki "one miss" (before.Core.Selector.misses + 1) after.Core.Selector.misses;
  (* A shuffled clause set is the same instance: must hit. *)
  let rng = Util.Rng.create 5 in
  let shuffled =
    Verify.Metamorphic.apply rng Verify.Metamorphic.Shuffle_clauses
      small_formula
  in
  let s3 = Core.Selector.select_policy ~use_cache:true model shuffled in
  checkb "shuffled clauses hit" true s3.Core.Selector.cached;
  (* A polarity flip is a different instance: must not hit. *)
  let rec flipped_differs attempts =
    attempts > 0
    &&
    let flipped =
      Verify.Metamorphic.apply rng Verify.Metamorphic.Flip_polarity
        small_formula
    in
    (Cnf.Fingerprint.compute flipped <> Cnf.Fingerprint.compute small_formula)
    || flipped_differs (attempts - 1)
  in
  checkb "some polarity flip changes the key" true (flipped_differs 8);
  (* Off by default: existing fault-injection semantics untouched. *)
  let s4 = Core.Selector.select_policy model small_formula in
  checkb "default path uncached" true (not s4.Core.Selector.cached)

let test_selector_cache_invalidated_by_load () =
  Core.Selector.clear_cache ();
  let model = Core.Model.create Core.Model.small_config in
  let gen0 = Core.Model.generation model in
  ignore (Core.Selector.select_policy ~use_cache:true model small_formula);
  let path = Filename.temp_file "ns-cache-inval" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Core.Model.save ~epochs:0 path model;
      Core.Model.load path model;
      checkb "load bumps generation" true (Core.Model.generation model > gen0);
      let evictions_before = (Core.Selector.cache_stats ()).Core.Selector.evictions in
      let s = Core.Selector.select_policy ~use_cache:true model small_formula in
      checkb "post-load is a miss" true (not s.Core.Selector.cached);
      checkb "stale entries evicted" true
        ((Core.Selector.cache_stats ()).Core.Selector.evictions
        > evictions_before))

let test_selector_cache_capacity_eviction () =
  Core.Selector.clear_cache ();
  let model = Core.Model.create Core.Model.small_config in
  Core.Selector.set_cache_capacity 2;
  Fun.protect
    ~finally:(fun () -> Core.Selector.set_cache_capacity 512)
    (fun () ->
      let formulas =
        List.init 3 (fun i ->
            Generators.ksat ~seed:(700 + i) ~num_vars:10 ~num_clauses:30 ())
      in
      List.iter
        (fun f ->
          ignore (Core.Selector.select_policy ~use_cache:true model f))
        formulas;
      let cs = Core.Selector.cache_stats () in
      checki "size capped" 2 cs.Core.Selector.size;
      checki "capacity reported" 2 cs.Core.Selector.capacity;
      (* LRU: the first formula was evicted, the last two are live. *)
      let s =
        Core.Selector.select_policy ~use_cache:true model (List.nth formulas 0)
      in
      checkb "oldest evicted" true (not s.Core.Selector.cached);
      Alcotest.check_raises "capacity must be positive"
        (Invalid_argument "Selector.set_cache_capacity") (fun () ->
          Core.Selector.set_cache_capacity 0))

(* A failed forward leaves no state behind: it is neither cached nor
   served from the cache, so the same formula misses and degrades
   again. *)
let test_selector_failure_not_cached () =
  Core.Selector.clear_cache ();
  let model = nan_poisoned_model () in
  let before = Core.Selector.cache_stats () in
  for i = 1 to 2 do
    let s = Core.Selector.select_policy ~use_cache:true model small_formula in
    checkb (Printf.sprintf "selection %d is a miss" i) true
      (not s.Core.Selector.cached);
    checkb (Printf.sprintf "selection %d degrades" i) true
      (s.Core.Selector.degraded <> None)
  done;
  let after = Core.Selector.cache_stats () in
  checki "cache size unchanged" before.Core.Selector.size after.Core.Selector.size;
  checki "no hits" before.Core.Selector.hits after.Core.Selector.hits;
  checki "two misses" (before.Core.Selector.misses + 2) after.Core.Selector.misses

let suite =
  suite
  @ [
      Alcotest.test_case "engine matches tape" `Quick test_engine_matches_tape;
      Alcotest.test_case "engine allocation-light" `Quick
        test_engine_allocation_light;
      Alcotest.test_case "engine pool bounded" `Quick test_engine_pool_bounded;
      Alcotest.test_case "selector cache hit/miss/stats" `Quick
        test_selector_cache_hit_and_stats;
      Alcotest.test_case "selector cache invalidated by load" `Quick
        test_selector_cache_invalidated_by_load;
      Alcotest.test_case "selector cache capacity/LRU" `Quick
        test_selector_cache_capacity_eviction;
      Alcotest.test_case "selector failure not cached" `Quick
        test_selector_failure_not_cached;
    ]
