(* Differential tests for the arena-backed solver.

   [Verify.Refsolver] implements the same search with record-based
   clauses; only the memory layout (flat arena, stride-2 watcher pairs,
   packed ranking keys, copying compaction) differs. On every instance
   and configuration the two must therefore agree bit for bit on the
   verdict, every statistics counter, and the learned/deleted trace —
   which pins the arena layer down far harder than verdict-only
   checks. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let stats_fields (s : Cdcl.Solver_stats.t) =
  [
    ("decisions", s.Cdcl.Solver_stats.decisions);
    ("conflicts", s.Cdcl.Solver_stats.conflicts);
    ("propagations", s.Cdcl.Solver_stats.propagations);
    ("restarts", s.Cdcl.Solver_stats.restarts);
    ("reduces", s.Cdcl.Solver_stats.reduces);
    ("learned_total", s.Cdcl.Solver_stats.learned_total);
    ("deleted_total", s.Cdcl.Solver_stats.deleted_total);
    ("minimized_literals", s.Cdcl.Solver_stats.minimized_literals);
    ("max_decision_level", s.Cdcl.Solver_stats.max_decision_level);
  ]

let lits_to_string lits =
  String.concat ","
    (Array.to_list (Array.map (fun l -> string_of_int (Cnf.Lit.to_dimacs l)) lits))

let event_to_string = function
  | Cdcl.Solver.Learned lits -> "L " ^ lits_to_string lits
  | Cdcl.Solver.Deleted lits -> "D " ^ lits_to_string lits

(* Run both solvers on [f] under [config]; compare verdict, stats, and
   trace streams; DRUP-check the arena solver's proof on UNSAT. Returns
   the arena solver for further inspection. *)
let run_diff ~ctx ?(check_proof = true) config f =
  let arena = Cdcl.Solver.create ~config f in
  let arena_events = ref [] in
  let drup = Cdcl.Drup.create () in
  Cdcl.Solver.set_trace arena (fun ev ->
      arena_events := ev :: !arena_events;
      Cdcl.Drup.event drup ev);
  let ref_solver = Verify.Refsolver.create ~config f in
  let ref_events = ref [] in
  Verify.Refsolver.set_trace ref_solver (fun ev -> ref_events := ev :: !ref_events);
  let ra = Cdcl.Solver.solve arena in
  let rr = Verify.Refsolver.solve ref_solver in
  (match (ra, rr) with
  | Cdcl.Solver.Sat ma, Cdcl.Solver.Sat mr ->
    checkb (ctx ^ ": both models satisfy") true
      (Cdcl.Solver.check_model f ma && Cdcl.Solver.check_model f mr);
    checkb (ctx ^ ": identical models") true (ma = mr)
  | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> ()
  | Cdcl.Solver.Unknown, Cdcl.Solver.Unknown -> ()
  | _ -> Alcotest.failf "%s: verdicts diverge" ctx);
  List.iter2
    (fun (name, a) (_, r) -> checki (ctx ^ ": stat " ^ name) r a)
    (stats_fields (Cdcl.Solver.stats arena))
    (stats_fields (Verify.Refsolver.stats ref_solver));
  checki
    (ctx ^ ": learned clause count")
    (Verify.Refsolver.learned_clause_count ref_solver)
    (Cdcl.Solver.learned_clause_count arena);
  checkb
    (ctx ^ ": propagation counts")
    true
    (Cdcl.Solver.propagation_counts arena
    = Verify.Refsolver.propagation_counts ref_solver);
  let norm evs = List.rev_map event_to_string !evs in
  let ea = norm arena_events and er = norm ref_events in
  checki (ctx ^ ": trace length") (List.length er) (List.length ea);
  List.iteri
    (fun i (a, r) ->
      if a <> r then
        Alcotest.failf "%s: trace event %d diverges: arena %s vs ref %s" ctx i a r)
    (List.combine ea er);
  if check_proof && ra = Cdcl.Solver.Unsat then begin
    Cdcl.Drup.conclude_unsat drup;
    checkb (ctx ^ ": DRUP proof valid") true
      (Cdcl.Drup_check.check_solver_proof f drup = Cdcl.Drup_check.Valid)
  end;
  arena

(* An aggressive reduce schedule so small fuzz instances actually
   exercise deletion, compaction, and the packed ranking keys. *)
let diff_config policy =
  {
    Cdcl.Config.default with
    Cdcl.Config.policy;
    reduce_first = 20;
    reduce_inc = 10;
    reduce_fraction = 0.7;
    tier1_glue = 0;
  }

let test_refdiff_corpus () =
  let configs =
    [
      ("default", diff_config Cdcl.Policy.Default);
      ("frequency", diff_config Cdcl.Policy.frequency_default);
      ("activity", diff_config Cdcl.Policy.Activity);
      ("random", diff_config (Cdcl.Policy.Random 3));
      ( "glue/glucose",
        {
          (diff_config Cdcl.Policy.Glue_only) with
          Cdcl.Config.restart_mode =
            Cdcl.Config.Glucose { fast_alpha = 0.2; slow_alpha = 0.01; margin = 1.1 };
        } );
    ]
  in
  for i = 0 to 39 do
    let family, f = Verify.Fuzz.generate_case ~seed:4242 i in
    List.iter
      (fun (cname, config) ->
        let ctx = Printf.sprintf "case %d (%s) %s" i family cname in
        ignore (run_diff ~ctx config f))
      configs
  done

let test_refdiff_budgets_match () =
  (* Unknown verdicts (budget exhaustion) must land on the identical
     conflict, so budgeted stats agree too. *)
  let config =
    Cdcl.Config.with_budget ~max_conflicts:50
      (diff_config Cdcl.Policy.frequency_default)
  in
  let f = Gen.Pigeonhole.unsat 7 in
  ignore (run_diff ~ctx:"budgeted pigeonhole" ~check_proof:false config f)

(* Force at least two arena compactions and check full equivalence plus
   a valid proof in their presence. Deleting 90% of learnts every 20
   conflicts makes garbage cross the 25% GC threshold repeatedly. *)
let test_refdiff_compaction () =
  let config =
    {
      Cdcl.Config.default with
      Cdcl.Config.policy = Cdcl.Policy.frequency_default;
      reduce_first = 20;
      reduce_inc = 0;
      reduce_fraction = 0.9;
      tier1_glue = 0;
    }
  in
  let f = Gen.Pigeonhole.unsat 7 in
  let arena = run_diff ~ctx:"compaction pigeonhole" config f in
  checkb "at least two compactions ran" true (Cdcl.Solver.arena_gc_count arena >= 2);
  checkb "live words positive" true (Cdcl.Solver.arena_live_words arena > 0)

(* The reduce pass must not allocate per candidate: after a warm-up
   pass has sized the scratch arrays, a reduce over hundreds of
   candidates stays within a small constant minor-heap budget. The
   seed implementation allocated a list cell, tuple, info record, and
   boxed key per candidate (thousands of words here). *)
let test_reduce_allocation_free () =
  let config =
    {
      Cdcl.Config.default with
      Cdcl.Config.policy = Cdcl.Policy.frequency_default;
      (* Reduces only via reduce_now. *)
      reduce_first = max_int;
      max_conflicts = Some 1500;
      restart_mode = Cdcl.Config.No_restarts;
    }
  in
  let rng = Util.Rng.create 5 in
  let t =
    Cdcl.Solver.create ~config
      (Gen.Ksat.generate rng ~num_vars:150 ~num_clauses:640 ~k:3)
  in
  (match Cdcl.Solver.solve t with
  | Cdcl.Solver.Unknown -> ()
  | _ -> Alcotest.fail "instance must exhaust its conflict budget");
  Cdcl.Solver.reduce_now t (* warm-up: sizes the ranking scratch *);
  ignore (Cdcl.Solver.solve t) (* accumulate fresh learnts and counts *);
  checkb "enough candidates to be meaningful" true
    (Cdcl.Solver.learned_clause_count t > 300);
  let before = Gc.minor_words () in
  Cdcl.Solver.reduce_now t;
  let allocated = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "reduce allocated %.0f minor words" allocated)
    true (allocated < 256.0)

(* Keysort against the obvious specification. *)
let prop_keysort_matches_spec =
  QCheck.Test.make ~name:"keysort matches List.sort on (key, tie)" ~count:300
    QCheck.(small_list (pair small_int small_int))
    (fun pairs ->
      let n = List.length pairs in
      let keys = Array.of_list (List.map fst pairs) in
      (* Unique ties, as in the solver (clause ids). *)
      let tie = Array.init n (fun i -> i * 3) in
      let refs = Array.of_list (List.map snd pairs) in
      let expected =
        List.sort compare
          (Array.to_list (Array.init n (fun i -> (keys.(i), tie.(i), refs.(i)))))
      in
      Cdcl.Keysort.sort ~keys ~tie ~refs ~len:n;
      let got = Array.to_list (Array.init n (fun i -> (keys.(i), tie.(i), refs.(i)))) in
      got = expected)

let suite =
  [
    Alcotest.test_case "arena vs reference: fuzz corpus" `Quick test_refdiff_corpus;
    Alcotest.test_case "arena vs reference: budgets" `Quick test_refdiff_budgets_match;
    Alcotest.test_case "arena vs reference: compaction" `Quick test_refdiff_compaction;
    Alcotest.test_case "reduce allocation-free" `Quick test_reduce_allocation_free;
    QCheck_alcotest.to_alcotest prop_keysort_matches_spec;
  ]
