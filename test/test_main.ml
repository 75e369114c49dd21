(* Test entry point: one alcotest run aggregating every suite. *)

let () =
  Alcotest.run "neuroselect"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("runtime", Test_runtime.suite);
      ("cnf", Test_cnf.suite);
      ("simplify", Test_simplify.suite);
      ("cdcl", Test_cdcl.suite);
      ("tensor", Test_tensor.suite);
      ("nn", Test_nn.suite);
      ("graph", Test_graph.suite);
      ("core", Test_core.suite);
      ("gen", Test_gen.suite);
      ("baselines", Test_baselines.suite);
      ("experiments", Test_experiments.suite);
      ("serve", Test_serve.suite);
      ("verify", Test_verify.suite);
      ("refdiff", Test_refdiff.suite);
      ("inprocess", Test_inprocess.suite);
    ]
