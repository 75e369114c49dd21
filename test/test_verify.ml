(* Tests for the verification harness: the DPLL oracle, metamorphic
   transforms, the differential fuzzer (including a demonstration that
   it catches an injected soundness bug), layer-level gradient
   checking, DRUP proof replay, and solver re-entry semantics. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- oracle --- *)

let test_oracle_trivial () =
  (match Verify.Oracle.solve (Cnf.Formula.of_dimacs_lists ~num_vars:2 []) with
  | Some (Verify.Oracle.Sat _) -> ()
  | _ -> Alcotest.fail "empty formula is SAT");
  match
    Verify.Oracle.solve (Cnf.Formula.of_dimacs_lists ~num_vars:1 [ [ 1 ]; [ -1 ] ])
  with
  | Some Verify.Oracle.Unsat -> ()
  | _ -> Alcotest.fail "x and not x is UNSAT"

let test_oracle_pigeonhole () =
  (match Verify.Oracle.solve (Gen.Pigeonhole.unsat 4) with
  | Some Verify.Oracle.Unsat -> ()
  | _ -> Alcotest.fail "PHP(5,4) is UNSAT");
  match Verify.Oracle.solve (Gen.Pigeonhole.generate ~pigeons:4 ~holes:4) with
  | Some (Verify.Oracle.Sat m) ->
    checkb "model valid" true
      (Cdcl.Solver.check_model (Gen.Pigeonhole.generate ~pigeons:4 ~holes:4) m)
  | _ -> Alcotest.fail "PHP(4,4) is SAT"

let test_oracle_budget () =
  (* A one-node budget cannot decide anything nontrivial. *)
  checkb "budget exhaustion returns None" true
    (Verify.Oracle.solve ~max_nodes:1 (Gen.Pigeonhole.unsat 4) = None)

let prop_oracle_matches_brute_force =
  QCheck.Test.make ~name:"oracle matches brute force on random 3-SAT" ~count:80
    (Generators.seed_and_clauses 10 45)
    (fun (seed, m) ->
      let f = Generators.ksat ~seed:(seed + 9000) ~num_vars:10 ~num_clauses:m () in
      let expected = Generators.brute_force_sat f in
      match Verify.Oracle.solve f with
      | Some (Verify.Oracle.Sat model) ->
        expected && Cdcl.Solver.check_model f model
      | Some Verify.Oracle.Unsat -> not expected
      | None -> false)

(* --- metamorphic transforms --- *)

let prop_transforms_preserve_satisfiability =
  QCheck.Test.make ~name:"metamorphic transforms preserve satisfiability"
    ~count:40
    QCheck.(pair small_int (int_range 15 40))
    (fun (seed, m) ->
      let f = Generators.ksat ~seed:(seed + 31337) ~num_vars:9 ~num_clauses:m () in
      let base = Generators.brute_force_sat f in
      let rng = Util.Rng.create (seed + 1) in
      List.for_all
        (fun t ->
          let g = Verify.Metamorphic.apply rng t f in
          match Verify.Oracle.solve g with
          | Some (Verify.Oracle.Sat _) -> base
          | Some Verify.Oracle.Unsat -> not base
          | None -> false)
        Verify.Metamorphic.all)

let test_transform_shapes () =
  let f = Generators.ksat ~seed:5 ~num_vars:8 ~num_clauses:20 () in
  let rng = Util.Rng.create 6 in
  List.iter
    (fun t ->
      let g = Verify.Metamorphic.apply rng t f in
      checki
        (Verify.Metamorphic.name t ^ " keeps the variable count")
        (Cnf.Formula.num_vars f) (Cnf.Formula.num_vars g);
      checkb
        (Verify.Metamorphic.name t ^ " keeps or grows the clause count")
        true
        (Cnf.Formula.num_clauses g >= Cnf.Formula.num_clauses f))
    Verify.Metamorphic.all

(* --- fuzz driver --- *)

let test_fuzz_clean_run () =
  let report = Verify.Fuzz.run ~seed:7 ~cases:30 () in
  checki "all cases ran" 30 report.Verify.Fuzz.cases_run;
  checkb "many checks" true (report.Verify.Fuzz.checks_run > 300);
  (match report.Verify.Fuzz.discrepancies with
  | [] -> ()
  | d :: _ -> Alcotest.failf "unexpected discrepancy: %s" d.Verify.Fuzz.detail)

(* The seed-42 summaries of the three fuzz arms, run with the CLI's
   defaults: the lines `fuzz --seed 42 --cases 200` and `fuzz
   --diff-ref --seed 42 --cases 300` print. Any divergence between
   Cdcl.Solver and Verify.Refsolver fails them, and the search digests
   (CRC-32 of every run's decisions, conflicts, propagations, reduces
   and deleted clauses) move with a change to search made to both
   solvers alike: var_decay 0.94 instead of 0.95 left the counts as
   they were but moved both digests. A change to search on purpose
   updates the lines and says why. *)
let test_fuzz_seed42_summaries_pinned () =
  let line pp report = String.trim (Format.asprintf "%a" pp report) in
  Alcotest.(check string)
    "fuzz" "fuzz: seed 42, 200 cases, 4400 checks, 0 discrepancies"
    (line Verify.Fuzz.pp_report (Verify.Fuzz.run ~seed:42 ~cases:200 ()));
  Alcotest.(check string)
    "ref-diff"
    "ref-diff: seed 42, 300 cases, 66 arena compactions, 1186 inprocessing \
     rewrites, search digest 608f2cf6, 0 failures"
    (line Verify.Fuzz.pp_ref_diff_report
       (Verify.Fuzz.run_ref_diff ~seed:42 ~cases:300 ()));
  Alcotest.(check string)
    "incremental-diff"
    "incremental-diff: seed 42, 300 sequences, 5407 steps, 2082 solves, 7519 \
     checks, search digest 91a060c5, 0 failures"
    (line Verify.Fuzz.pp_incr_report
       (Verify.Fuzz.run_incremental_diff ~seed:42 ~sequences:300 ()))

(* The harness must catch a deliberately injected soundness bug: this
   is the "expected failure" demonstration — a solver that silently
   loses one clause has to produce discrepancies. *)
let test_fuzz_catches_injected_bug () =
  let report =
    Verify.Fuzz.run ~solve:Verify.Fuzz.break_lost_clause ~seed:42 ~cases:40 ()
  in
  checkb "injected bug detected" true (report.Verify.Fuzz.discrepancies <> []);
  List.iter
    (fun (d : Verify.Fuzz.discrepancy) ->
      (* Shrunk reproducers must parse back and still be non-trivial. *)
      let f = Cnf.Dimacs.parse_string d.Verify.Fuzz.dimacs in
      checkb "reproducer has clauses" true (Cnf.Formula.num_clauses f > 0);
      checkb "replay names the case" true
        (String.length d.Verify.Fuzz.replay > 0))
    report.Verify.Fuzz.discrepancies

let test_fuzz_replay_single_case () =
  let full = Verify.Fuzz.run ~seed:11 ~cases:5 () in
  let single = Verify.Fuzz.run ~seed:11 ~cases:5 ~only_case:3 () in
  checki "replay runs one case" 1 single.Verify.Fuzz.cases_run;
  checkb "full run ran five" true (full.Verify.Fuzz.cases_run = 5)

let test_fuzz_case_generation_deterministic () =
  let fam1, f1 = Verify.Fuzz.generate_case ~seed:3 14 in
  let fam2, f2 = Verify.Fuzz.generate_case ~seed:3 14 in
  checkb "same family" true (fam1 = fam2);
  checkb "same formula" true
    (Cnf.Dimacs.to_string f1 = Cnf.Dimacs.to_string f2)

let test_fuzz_shrink_minimises () =
  (* Shrinking "contains the contradictory pair x1, -x1" must strip
     everything else. *)
  let f =
    Cnf.Formula.of_dimacs_lists ~num_vars:4
      [ [ 1; 2 ]; [ 1 ]; [ -1 ]; [ 3; 4 ]; [ -2; 3 ] ]
  in
  let has_contradiction g =
    let has lits = Cnf.Formula.num_clauses g > 0 &&
      Array.exists (fun c -> c = lits)
        (Array.init (Cnf.Formula.num_clauses g) (Cnf.Formula.clause g))
    in
    has [| Cnf.Lit.pos 1 |] && has [| Cnf.Lit.neg 1 |]
  in
  let minimal = Verify.Fuzz.shrink has_contradiction f in
  checki "two clauses survive" 2 (Cnf.Formula.num_clauses minimal)

(* --- gradient checking --- *)

let test_gradcheck_all_layers () =
  let reports = Verify.Gradcheck.run_all () in
  checkb "reports for every layer" true
    (List.for_all
       (fun layer -> List.exists (fun r -> r.Verify.Gradcheck.layer = layer) reports)
       [ "mpnn"; "attention"; "hgt"; "model" ]);
  List.iter
    (fun (r : Verify.Gradcheck.report) ->
      if r.Verify.Gradcheck.max_rel_err >= 1e-4 then
        Alcotest.failf "%s/%s: rel err %g exceeds 1e-4" r.Verify.Gradcheck.layer
          r.Verify.Gradcheck.param r.Verify.Gradcheck.max_rel_err)
    reports;
  checkb "passed helper agrees" true (Verify.Gradcheck.passed ~tol:1e-4 reports)

(* --- DRUP replay (solver-emitted proofs through the checker) --- *)

let proof_of f =
  let solver = Cdcl.Solver.create f in
  let log = Cdcl.Drup.create () in
  Cdcl.Drup.attach log solver;
  (match Cdcl.Solver.solve solver with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "expected UNSAT");
  Cdcl.Drup.conclude_unsat log;
  log

let test_drup_replay_pigeonhole () =
  let f = Gen.Pigeonhole.unsat 5 in
  checkb "PHP proof replays" true
    (Cdcl.Drup_check.check_solver_proof f (proof_of f) = Cdcl.Drup_check.Valid)

let test_drup_replay_parity () =
  let rng = Util.Rng.create 23 in
  let f = Gen.Parity.contradiction rng ~num_vars:8 in
  checkb "parity proof replays" true
    (Cdcl.Drup_check.check_solver_proof f (proof_of f) = Cdcl.Drup_check.Valid)

let test_drup_truncated_proof_invalid () =
  let f = Gen.Pigeonhole.unsat 4 in
  let text = Cdcl.Drup.to_string (proof_of f) in
  (* Drop the second half of the proof, including the final empty
     clause: what remains can never conclude unsatisfiability. *)
  let lines = String.split_on_char '\n' text in
  let keep = List.length lines / 2 in
  let truncated =
    String.concat "\n" (List.filteri (fun i _ -> i < keep) lines) ^ "\n"
  in
  match Cdcl.Drup_check.check f truncated with
  | Cdcl.Drup_check.Invalid { reason; _ } ->
    checkb "incompleteness reported" true
      (reason = "proof does not derive the empty clause")
  | Cdcl.Drup_check.Valid -> Alcotest.fail "truncated proof must be invalid"

let test_drup_corrupted_proof_invalid () =
  let f = Gen.Pigeonhole.unsat 4 in
  let text = Cdcl.Drup.to_string (proof_of f) in
  (* Corrupt the proof by prepending a clause that is not RUP: a bare
     unit for pigeon 1 in hole 1 does not follow from PHP's axioms. *)
  let corrupted = "1 0\n" ^ text in
  match Cdcl.Drup_check.check f corrupted with
  | Cdcl.Drup_check.Invalid { line; _ } -> checki "rejected at line 1" 1 line
  | Cdcl.Drup_check.Valid -> Alcotest.fail "corrupted proof must be invalid"

(* --- solve re-entry after Unknown --- *)

(* Driving a budgeted solver to completion must reach the same verdict
   as a single unbudgeted run. *)
let continue_to_verdict s =
  let rec drive n =
    if n > 2000 then Alcotest.fail "budgeted run never converged"
    else
      match Cdcl.Solver.solve s with
      | Cdcl.Solver.Unknown -> drive (n + 1)
      | verdict -> verdict
  in
  drive 0

let reentry_matches f =
  let unbudgeted = fst (Cdcl.Solver.solve_formula f) in
  let config = Cdcl.Config.with_budget ~max_conflicts:3 Cdcl.Config.default in
  let s = Cdcl.Solver.create ~config f in
  match (continue_to_verdict s, unbudgeted) with
  | Cdcl.Solver.Sat m, Cdcl.Solver.Sat _ -> Cdcl.Solver.check_model f m
  | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> true
  | _ -> false

let test_reentry_unsat_matches_unbudgeted () =
  checkb "PHP verdict stable across re-entry" true
    (reentry_matches (Gen.Pigeonhole.unsat 5))

let test_reentry_sat_matches_unbudgeted () =
  checkb "3-SAT verdict stable across re-entry" true
    (reentry_matches (Generators.ksat ~seed:2024 ~num_vars:15 ~num_clauses:60 ()))

let prop_reentry_matches_unbudgeted =
  QCheck.Test.make ~name:"budgeted continuation reaches the unbudgeted verdict"
    ~count:30
    (Generators.seed_and_clauses 20 45)
    (fun (seed, m) ->
      reentry_matches (Generators.ksat ~seed:(seed + 77_000) ~num_vars:10 ~num_clauses:m ()))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_oracle_matches_brute_force;
      prop_transforms_preserve_satisfiability;
      prop_reentry_matches_unbudgeted;
    ]

(* --- fault-injection scenarios --- *)

let test_faultcheck_all_recover () =
  (* In a temp directory of its own, which the run must leave empty. *)
  let saved = Filename.get_temp_dir_name () in
  let tmp = Filename.temp_dir "nsfaultcheck" "" in
  Filename.set_temp_dir_name tmp;
  let report =
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () -> Verify.Faultcheck.run_all ~seed:42 ())
  in
  let left = Array.to_list (Sys.readdir tmp) in
  (try Sys.rmdir tmp with Sys_error _ -> ());
  Alcotest.(check (list string)) "nothing left in the temp directory" [] left;
  List.iter
    (fun (o : Verify.Faultcheck.outcome) ->
      checkb
        (Printf.sprintf "scenario %s recovers (%s)" o.Verify.Faultcheck.scenario
           o.Verify.Faultcheck.detail)
        true o.Verify.Faultcheck.passed)
    report.Verify.Faultcheck.outcomes;
  checkb "report aggregates" true (Verify.Faultcheck.passed report);
  checkb "nothing left armed" true
    (not (List.exists Runtime.Fault.armed Runtime.Fault.all))

let suite =
  [
    Alcotest.test_case "faultcheck all recover" `Slow test_faultcheck_all_recover;
    Alcotest.test_case "oracle trivial" `Quick test_oracle_trivial;
    Alcotest.test_case "oracle pigeonhole" `Quick test_oracle_pigeonhole;
    Alcotest.test_case "oracle budget" `Quick test_oracle_budget;
    Alcotest.test_case "transform shapes" `Quick test_transform_shapes;
    Alcotest.test_case "fuzz clean run" `Slow test_fuzz_clean_run;
    Alcotest.test_case "fuzz seed-42 summaries pinned" `Quick
      test_fuzz_seed42_summaries_pinned;
    Alcotest.test_case "fuzz catches injected bug" `Quick test_fuzz_catches_injected_bug;
    Alcotest.test_case "fuzz replay single case" `Quick test_fuzz_replay_single_case;
    Alcotest.test_case "fuzz case generation deterministic" `Quick
      test_fuzz_case_generation_deterministic;
    Alcotest.test_case "fuzz shrink minimises" `Quick test_fuzz_shrink_minimises;
    Alcotest.test_case "gradcheck all layers" `Slow test_gradcheck_all_layers;
    Alcotest.test_case "drup replay pigeonhole" `Quick test_drup_replay_pigeonhole;
    Alcotest.test_case "drup replay parity" `Quick test_drup_replay_parity;
    Alcotest.test_case "drup truncated invalid" `Quick test_drup_truncated_proof_invalid;
    Alcotest.test_case "drup corrupted invalid" `Quick test_drup_corrupted_proof_invalid;
    Alcotest.test_case "reentry unsat matches" `Quick test_reentry_unsat_matches_unbudgeted;
    Alcotest.test_case "reentry sat matches" `Quick test_reentry_sat_matches_unbudgeted;
  ]
  @ qcheck_tests
