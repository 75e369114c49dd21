(* End-to-end NeuroSelect pipeline on a miniature dataset:
   generate -> dual-policy label -> train -> adaptively solve.

   Everything is scaled down (few instances, few epochs) so the whole
   pipeline runs in ~a minute; `bin/train.ml` is the full-size version.

   Run with: dune exec examples/adaptive_pipeline.exe *)

let () =
  Format.printf "1. generating and labelling a miniature dataset ...@.";
  let progress s = print_endline s in
  let data =
    Experiments.Data.prepare ~seed:7 ~per_year:6 ~budget:600_000 ~progress ()
  in
  Format.printf "   train %d (%d positive), test %d (%d positive)@.@."
    (List.length data.Experiments.Data.train)
    (Experiments.Data.positives data.Experiments.Data.train)
    (List.length data.Experiments.Data.test)
    (Experiments.Data.positives data.Experiments.Data.test);

  Format.printf "2. training a small NeuroSelect model ...@.";
  let model = Core.Model.create { Core.Model.small_config with hidden_dim = 16 } in
  let train_progress ~epoch ~loss =
    if epoch mod 10 = 0 then Format.printf "   epoch %3d  loss %.4f@." epoch loss
  in
  let _history =
    Core.Trainer.train ~epochs:30 ~lr:3e-3 ~progress:train_progress model
      (Experiments.Data.examples data.Experiments.Data.train)
  in
  Format.printf "   train metrics: %a@.@." Core.Metrics.pp_report
    (Core.Trainer.evaluate model (Experiments.Data.examples data.Experiments.Data.train));

  Format.printf "3. adaptive solving on the test year ...@.";
  let solve_one (l : Experiments.Data.labelled) =
    let selection, result, stats =
      Core.Selector.solve_adaptive model l.Experiments.Data.instance.Gen.Dataset.formula
    in
    (* The selection runs at the first reduce: [None] when the solve
       ended before one. *)
    Format.printf "   %-20s -> %-9s policy %-14s (p=%s) props %d@."
      l.Experiments.Data.instance.Gen.Dataset.name
      (match result with
      | Cdcl.Solver.Sat _ -> "SAT"
      | Cdcl.Solver.Unsat -> "UNSAT"
      | Cdcl.Solver.Unknown -> "UNKNOWN")
      (match selection with
      | Some s -> Cdcl.Policy.name s.Core.Selector.policy
      | None -> "none")
      (match selection with
      | Some s -> Printf.sprintf "%.2f" s.Core.Selector.probability
      | None -> "-")
      stats.Cdcl.Solver_stats.propagations
  in
  List.iter solve_one data.Experiments.Data.test
