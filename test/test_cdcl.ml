(* Tests for the CDCL solver: heap, deletion policies, solver
   correctness (cross-checked against brute force), budgets,
   propagation counting, and reduce behaviour. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Var_heap --- *)

let test_heap_initial_order () =
  let h = Cdcl.Var_heap.create ~num_vars:5 in
  checki "size" 5 (Cdcl.Var_heap.size h);
  (* All activities zero: ties broken by smaller index. *)
  checki "first max" 1 (Cdcl.Var_heap.remove_max h);
  checki "second max" 2 (Cdcl.Var_heap.remove_max h)

let test_heap_bump_reorders () =
  let h = Cdcl.Var_heap.create ~num_vars:5 in
  Cdcl.Var_heap.bump h 4 10.0;
  Cdcl.Var_heap.bump h 2 5.0;
  checki "highest activity first" 4 (Cdcl.Var_heap.remove_max h);
  checki "then next" 2 (Cdcl.Var_heap.remove_max h)

let test_heap_reinsert () =
  let h = Cdcl.Var_heap.create ~num_vars:3 in
  let v = Cdcl.Var_heap.remove_max h in
  checkb "removed not mem" false (Cdcl.Var_heap.mem h v);
  Cdcl.Var_heap.insert h v;
  checkb "reinserted mem" true (Cdcl.Var_heap.mem h v);
  Cdcl.Var_heap.insert h v;
  checki "idempotent insert" 3 (Cdcl.Var_heap.size h)

let test_heap_rescale () =
  let h = Cdcl.Var_heap.create ~num_vars:3 in
  Cdcl.Var_heap.bump h 2 100.0;
  Cdcl.Var_heap.rescale h 0.01;
  Alcotest.(check (float 1e-9)) "activity rescaled" 1.0 (Cdcl.Var_heap.activity h 2);
  checki "order preserved" 2 (Cdcl.Var_heap.remove_max h)

let test_heap_drain () =
  let h = Cdcl.Var_heap.create ~num_vars:4 in
  let drained = List.init 4 (fun _ -> Cdcl.Var_heap.remove_max h) in
  checkb "empty" true (Cdcl.Var_heap.is_empty h);
  Alcotest.(check (list int)) "all vars once" [ 1; 2; 3; 4 ] (List.sort compare drained);
  Alcotest.check_raises "empty raises" Not_found (fun () ->
      ignore (Cdcl.Var_heap.remove_max h))

let prop_heap_extracts_max =
  QCheck.Test.make ~name:"heap always extracts current max" ~count:200
    QCheck.(small_list (pair (int_range 1 20) (float_range 0.0 100.0)))
    (fun bumps ->
      let h = Cdcl.Var_heap.create ~num_vars:20 in
      List.iter (fun (v, x) -> Cdcl.Var_heap.bump h v x) bumps;
      let prev = ref infinity in
      let ok = ref true in
      for _ = 1 to 20 do
        let v = Cdcl.Var_heap.remove_max h in
        let a = Cdcl.Var_heap.activity h v in
        if a > !prev +. 1e-9 then ok := false;
        prev := a
      done;
      !ok)

(* --- Policy --- *)

let info ?(id = 0) ?(glue = 5) ?(size = 10) ?(activity = 0.0) ?(frequency = 0) () =
  { Cdcl.Policy.id; glue; size; activity; frequency }

let test_policy_default_prefers_low_glue () =
  let a = info ~glue:2 ~size:50 () and b = info ~glue:10 ~size:3 () in
  checkb "low glue ranks higher" true
    (Cdcl.Policy.compare_clauses Cdcl.Policy.Default a b > 0)

let test_policy_default_size_tiebreak () =
  let a = info ~glue:5 ~size:3 () and b = info ~glue:5 ~size:30 () in
  checkb "smaller size ranks higher" true
    (Cdcl.Policy.compare_clauses Cdcl.Policy.Default a b > 0)

let test_policy_frequency_dominates () =
  (* Fig. 5: frequency is the most significant field. *)
  let p = Cdcl.Policy.frequency_default in
  let a = info ~glue:20 ~size:50 ~frequency:3 () in
  let b = info ~glue:1 ~size:2 ~frequency:0 () in
  checkb "high frequency beats good glue" true (Cdcl.Policy.compare_clauses p a b > 0);
  (* With equal frequency it degrades to the default ordering. *)
  let c = info ~glue:2 ~size:5 ~frequency:1 () in
  let d = info ~glue:9 ~size:5 ~frequency:1 () in
  checkb "equal freq falls back to glue" true (Cdcl.Policy.compare_clauses p c d > 0)

let test_policy_key_monotone_in_fields () =
  let base = info ~glue:5 ~size:10 ~frequency:2 () in
  let p = Cdcl.Policy.frequency_default in
  checkb "more frequency -> higher key" true
    (Cdcl.Policy.key p { base with Cdcl.Policy.frequency = 3 } > Cdcl.Policy.key p base);
  checkb "more glue -> lower key" true
    (Cdcl.Policy.key p { base with Cdcl.Policy.glue = 6 } < Cdcl.Policy.key p base);
  checkb "more size -> lower key" true
    (Cdcl.Policy.key p { base with Cdcl.Policy.size = 11 } < Cdcl.Policy.key p base)

let test_policy_saturation () =
  (* Giant metric values must not overflow into other fields. *)
  let p = Cdcl.Policy.frequency_default in
  let a = info ~glue:10_000_000 ~size:10_000_000 ~frequency:0 () in
  let b = info ~glue:10_000_001 ~size:5 ~frequency:0 () in
  checkb "saturated glues tie, size decides" true
    (Cdcl.Policy.key p a = Cdcl.Policy.key p b
    || Cdcl.Policy.compare_clauses p a b < 0)

let test_policy_clause_frequency_eq2 () =
  let counts = [| 0; 10; 8; 3; 0 |] in
  (* f_max = 10, alpha = 0.8 -> threshold 8 (strict). *)
  let lits vs = Array.map (fun v -> Cnf.Lit.pos v) vs in
  let f =
    Cdcl.Policy.clause_frequency ~alpha:0.8 ~f_max:10 ~counts
      ~lits:(lits [| 1; 2; 3 |])
  in
  checki "only count > 8 qualifies" 1 f;
  (* Polarity is irrelevant: Eq. 2 counts variables. *)
  checki "negated literals score identically" f
    (Cdcl.Policy.clause_frequency ~alpha:0.8 ~f_max:10 ~counts
       ~lits:(Array.map Cnf.Lit.negate (lits [| 1; 2; 3 |])));
  checki "f_max zero -> 0"
    0
    (Cdcl.Policy.clause_frequency ~alpha:0.8 ~f_max:0 ~counts ~lits:(lits [| 1 |]))

let test_policy_packed_key_matches_key () =
  (* packed_key from unboxed scalars must rank exactly like key on the
     boxed record, for every policy, once the activity has gone through
     the arena's quantising encode/decode round-trip. *)
  let policies =
    [ Cdcl.Policy.Default; Cdcl.Policy.frequency_default; Cdcl.Policy.Glue_only;
      Cdcl.Policy.Size_only; Cdcl.Policy.Activity; Cdcl.Policy.Random 13 ]
  in
  let cases =
    [ info ~id:1 ~glue:2 ~size:3 ~activity:0.0 ~frequency:0 ();
      info ~id:7 ~glue:9 ~size:40 ~activity:3.25 ~frequency:5 ();
      info ~id:42 ~glue:1 ~size:2 ~activity:1e12 ~frequency:1 ();
      info ~id:999 ~glue:10_000_000 ~size:10_000_000 ~activity:0.125 ~frequency:10_000_000 () ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun i ->
          let quantised =
            { i with
              Cdcl.Policy.activity =
                Cdcl.Arena.decode_activity (Cdcl.Arena.encode_activity i.Cdcl.Policy.activity)
            }
          in
          checki
            (Printf.sprintf "packed_key = key (%s, id %d)" (Cdcl.Policy.name p)
               i.Cdcl.Policy.id)
            (Cdcl.Policy.key p quantised)
            (Cdcl.Policy.packed_key p ~id:i.Cdcl.Policy.id ~glue:i.Cdcl.Policy.glue
               ~size:i.Cdcl.Policy.size
               ~activity_bits:(Cdcl.Arena.encode_activity i.Cdcl.Policy.activity)
               ~frequency:i.Cdcl.Policy.frequency))
        cases)
    policies

let test_policy_activity_ordering () =
  let a = info ~activity:5.0 () and b = info ~activity:1.0 () in
  checkb "higher activity kept" true
    (Cdcl.Policy.compare_clauses Cdcl.Policy.Activity a b > 0)

let test_policy_random_deterministic () =
  let a = info ~id:1 () and b = info ~id:2 () in
  let r = Cdcl.Policy.Random 7 in
  checki "same comparison twice"
    (Cdcl.Policy.compare_clauses r a b)
    (Cdcl.Policy.compare_clauses r a b)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Cdcl.Policy.of_string (Cdcl.Policy.name p) with
      | Some p' -> checkb "name roundtrip" true (p = p')
      | None -> Alcotest.fail "name must parse")
    [
      Cdcl.Policy.Default;
      Cdcl.Policy.frequency_default;
      Cdcl.Policy.Frequency { alpha = 0.5 };
      Cdcl.Policy.Glue_only;
      Cdcl.Policy.Size_only;
      Cdcl.Policy.Activity;
      Cdcl.Policy.Random 3;
    ];
  checkb "bad string" true (Cdcl.Policy.of_string "bogus" = None)

let test_policy_needs_frequency () =
  checkb "frequency needs it" true
    (Cdcl.Policy.needs_frequency Cdcl.Policy.frequency_default);
  checkb "default does not" false (Cdcl.Policy.needs_frequency Cdcl.Policy.Default)

(* --- Solver correctness --- *)

let brute_force_sat = Generators.brute_force_sat

let solve ?config f = Cdcl.Solver.solve_formula ?config f

let test_solver_trivial () =
  (* Empty formula: SAT. *)
  let empty = Cnf.Formula.of_dimacs_lists ~num_vars:2 [] in
  (match solve empty with
  | Cdcl.Solver.Sat _, _ -> ()
  | _ -> Alcotest.fail "empty formula is SAT");
  (* Contradictory units. *)
  let contra = Cnf.Formula.of_dimacs_lists ~num_vars:1 [ [ 1 ]; [ -1 ] ] in
  match solve contra with
  | Cdcl.Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "x and not x is UNSAT"

let test_solver_unit_propagation_only () =
  let f =
    Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ]
  in
  match solve f with
  | Cdcl.Solver.Sat m, stats ->
    checkb "x1" true m.(1);
    checkb "x2" true m.(2);
    checkb "x3" true m.(3);
    checki "no conflicts needed" 0 stats.Cdcl.Solver_stats.conflicts
  | _ -> Alcotest.fail "chain is SAT"

let test_solver_duplicate_and_tautology () =
  (* Duplicate literals collapse; tautological clauses are dropped. *)
  let f =
    Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 1; 1 ]; [ 2; -2 ]; [ -1; -1 ] ]
  in
  match solve f with
  | Cdcl.Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "x & (taut) & not x is UNSAT"

let test_solver_php_unsat () =
  match solve (Gen.Pigeonhole.unsat 5) with
  | Cdcl.Solver.Unsat, stats ->
    checkb "had conflicts" true (stats.Cdcl.Solver_stats.conflicts > 0)
  | _ -> Alcotest.fail "PHP(6,5) is UNSAT"

let test_solver_php_sat_when_fits () =
  match solve (Gen.Pigeonhole.generate ~pigeons:4 ~holes:4) with
  | Cdcl.Solver.Sat m, _ ->
    checkb "model valid" true
      (Cdcl.Solver.check_model (Gen.Pigeonhole.generate ~pigeons:4 ~holes:4) m)
  | _ -> Alcotest.fail "PHP(4,4) is SAT"

let test_solver_parity_unsat () =
  let rng = Util.Rng.create 1 in
  match solve (Gen.Parity.contradiction rng ~num_vars:10) with
  | Cdcl.Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "parity contradiction is UNSAT"

let test_solver_parity_sat_model_checks () =
  let rng = Util.Rng.create 2 in
  let f = Gen.Parity.chain rng ~num_vars:9 ~target:true in
  match solve f with
  | Cdcl.Solver.Sat m, _ -> checkb "model valid" true (Cdcl.Solver.check_model f m)
  | _ -> Alcotest.fail "single parity chain is SAT"

let test_solver_budget_unknown () =
  let config =
    Cdcl.Config.with_budget ~max_conflicts:5 Cdcl.Config.default
  in
  match solve ~config (Gen.Pigeonhole.unsat 6) with
  | Cdcl.Solver.Unknown, stats ->
    checkb "stopped near budget" true (stats.Cdcl.Solver_stats.conflicts <= 10)
  | _ -> Alcotest.fail "tiny budget must yield Unknown"

let test_solver_resume_after_unknown () =
  let config = Cdcl.Config.with_budget ~max_conflicts:5 Cdcl.Config.default in
  let s = Cdcl.Solver.create ~config (Gen.Pigeonhole.unsat 4) in
  let first = Cdcl.Solver.solve s in
  checkb "first call unknown" true (first = Cdcl.Solver.Unknown);
  (* Each further call gets a fresh window; PHP(5,4) finishes quickly. *)
  let rec drive n =
    if n > 200 then Alcotest.fail "never finished"
    else
      match Cdcl.Solver.solve s with
      | Cdcl.Solver.Unsat -> ()
      | Cdcl.Solver.Unknown -> drive (n + 1)
      | Cdcl.Solver.Sat _ -> Alcotest.fail "PHP(5,4) is UNSAT"
  in
  drive 0

let test_solver_answer_cached () =
  let s = Cdcl.Solver.create (Gen.Pigeonhole.unsat 4) in
  checkb "unsat" true (Cdcl.Solver.solve s = Cdcl.Solver.Unsat);
  checkb "cached" true (Cdcl.Solver.solve s = Cdcl.Solver.Unsat)

let test_solver_value_after_sat () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1 ]; [ -1; -2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "sat");
  checkb "x1 true" true (Cdcl.Solver.value s 1 = Some true);
  checkb "x2 false" true (Cdcl.Solver.value s 2 = Some false)

let test_solver_propagation_counts () =
  let config = Cdcl.Config.with_budget ~max_conflicts:50 Cdcl.Config.default in
  let s = Cdcl.Solver.create ~config (Gen.Pigeonhole.unsat 6) in
  ignore (Cdcl.Solver.solve s);
  let counts = Cdcl.Solver.propagation_counts s in
  checki "array sized by vars" (Cdcl.Solver.num_vars s + 1) (Array.length counts);
  checkb "some propagation happened" true (Array.exists (fun c -> c > 0) counts)

let test_solver_counts_reset_by_reduce () =
  (* After a long run with reduces, counters reflect only the window
     since the last reduce, so their sum is far below total props. *)
  let s = Cdcl.Solver.create (Gen.Pigeonhole.unsat 7) in
  ignore (Cdcl.Solver.solve s);
  let stats = Cdcl.Solver.stats s in
  checkb "reduces happened" true (stats.Cdcl.Solver_stats.reduces > 0);
  let window = Array.fold_left ( + ) 0 (Cdcl.Solver.propagation_counts s) in
  checkb "window smaller than total" true
    (window < stats.Cdcl.Solver_stats.propagations)

let test_solver_reduce_deletes () =
  let s = Cdcl.Solver.create (Gen.Pigeonhole.unsat 7) in
  ignore (Cdcl.Solver.solve s);
  let stats = Cdcl.Solver.stats s in
  checkb "learned" true (stats.Cdcl.Solver_stats.learned_total > 0);
  checkb "deleted" true (stats.Cdcl.Solver_stats.deleted_total > 0);
  checkb "live learned below total" true
    (Cdcl.Solver.learned_clause_count s
    <= stats.Cdcl.Solver_stats.learned_total - stats.Cdcl.Solver_stats.deleted_total)

let all_policies =
  [
    Cdcl.Policy.Default;
    Cdcl.Policy.frequency_default;
    Cdcl.Policy.Glue_only;
    Cdcl.Policy.Size_only;
    Cdcl.Policy.Activity;
    Cdcl.Policy.Random 1;
  ]

let test_solver_policies_agree_on_answer () =
  (* Deletion policy changes performance, never the verdict. *)
  let sat_f = Generators.ksat ~seed:77 ~num_vars:15 ~num_clauses:50 () in
  let unsat_f = Gen.Pigeonhole.unsat 5 in
  let expected_sat = brute_force_sat sat_f in
  List.iter
    (fun policy ->
      let config = Cdcl.Config.with_policy policy Cdcl.Config.default in
      (match solve ~config sat_f with
      | Cdcl.Solver.Sat m, _ ->
        checkb "sat expected" true expected_sat;
        checkb "model valid" true (Cdcl.Solver.check_model sat_f m)
      | Cdcl.Solver.Unsat, _ -> checkb "unsat expected" false expected_sat
      | Cdcl.Solver.Unknown, _ -> Alcotest.fail "no budget set");
      match solve ~config unsat_f with
      | Cdcl.Solver.Unsat, _ -> ()
      | _ -> Alcotest.fail "PHP must be UNSAT under every policy")
    all_policies

let test_solver_restart_modes_agree () =
  let f = Gen.Pigeonhole.unsat 5 in
  List.iter
    (fun mode ->
      let config = { Cdcl.Config.default with Cdcl.Config.restart_mode = mode } in
      match solve ~config f with
      | Cdcl.Solver.Unsat, _ -> ()
      | _ -> Alcotest.fail "UNSAT under every restart mode")
    [
      Cdcl.Config.No_restarts;
      Cdcl.Config.Luby 50;
      Cdcl.Config.Glucose { fast_alpha = 0.03; slow_alpha = 1e-4; margin = 1.25 };
    ]

let test_solver_minimize_shrinks () =
  let _, stats = solve (Gen.Pigeonhole.unsat 6) in
  checkb "minimisation removes literals" true
    (stats.Cdcl.Solver_stats.minimized_literals > 0)

let test_solver_luby_restarts_counted () =
  let _, stats = solve (Gen.Pigeonhole.unsat 7) in
  checkb "restarts happened" true (stats.Cdcl.Solver_stats.restarts > 0)

(* --- DRUP proofs --- *)

let solve_with_proof f =
  let solver = Cdcl.Solver.create f in
  let log = Cdcl.Drup.create () in
  Cdcl.Drup.attach log solver;
  let result = Cdcl.Solver.solve solver in
  (result, log)

let test_drup_proof_valid_php () =
  let f = Gen.Pigeonhole.unsat 4 in
  let result, log = solve_with_proof f in
  checkb "unsat" true (result = Cdcl.Solver.Unsat);
  checkb "proof nonempty" true (Cdcl.Drup.num_lines log > 0);
  Cdcl.Drup.conclude_unsat log;
  checkb "proof checks" true (Cdcl.Drup_check.check_solver_proof f log = Cdcl.Drup_check.Valid)

let test_drup_proof_valid_parity () =
  let rng = Util.Rng.create 17 in
  let f = Gen.Parity.contradiction rng ~num_vars:6 in
  let result, log = solve_with_proof f in
  checkb "unsat" true (result = Cdcl.Solver.Unsat);
  Cdcl.Drup.conclude_unsat log;
  checkb "proof checks" true (Cdcl.Drup_check.check_solver_proof f log = Cdcl.Drup_check.Valid)

let test_drup_rejects_bogus_proof () =
  (* A clause that is not RUP w.r.t. the formula must be rejected. *)
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  (match Cdcl.Drup_check.check f "3 0\n0\n" with
  | Cdcl.Drup_check.Invalid { line = 1; _ } -> ()
  | Cdcl.Drup_check.Invalid _ | Cdcl.Drup_check.Valid ->
    Alcotest.fail "non-RUP clause must be rejected at line 1");
  (* A proof that never derives the empty clause is incomplete. *)
  match Cdcl.Drup_check.check (Gen.Pigeonhole.unsat 3) "" with
  | Cdcl.Drup_check.Invalid { reason; _ } ->
    checkb "incomplete reason" true
      (reason = "proof does not derive the empty clause")
  | Cdcl.Drup_check.Valid -> Alcotest.fail "empty proof cannot be valid"

let test_drup_deletions_recorded () =
  (* PHP(7,6) triggers reduces, so the proof must contain deletions
     and still check. *)
  let f = Gen.Pigeonhole.unsat 5 in
  let result, log = solve_with_proof f in
  checkb "unsat" true (result = Cdcl.Solver.Unsat);
  let text = Cdcl.Drup.to_string log in
  checkb "has deletion lines" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l > 1 && l.[0] = 'd'))

let test_drup_trace_format () =
  let log = Cdcl.Drup.create () in
  Cdcl.Drup.event log (Cdcl.Solver.Learned [| Cnf.Lit.pos 1; Cnf.Lit.neg 2 |]);
  Cdcl.Drup.event log (Cdcl.Solver.Deleted [| Cnf.Lit.neg 3 |]);
  Alcotest.(check string) "format" "1 -2 0\nd -3 0\n" (Cdcl.Drup.to_string log)

(* Cross-check against brute force on random instances, every policy. *)
let prop_solver_matches_brute_force =
  QCheck.Test.make ~name:"solver matches brute force on random 3-SAT" ~count:60
    (Generators.seed_and_clauses 10 45)
    (fun (seed, m) ->
      let f = Generators.ksat ~seed ~num_vars:10 ~num_clauses:m () in
      let expected = brute_force_sat f in
      match solve f with
      | Cdcl.Solver.Sat model, _ -> expected && Cdcl.Solver.check_model f model
      | Cdcl.Solver.Unsat, _ -> not expected
      | Cdcl.Solver.Unknown, _ -> false)

let prop_solver_frequency_matches_brute_force =
  QCheck.Test.make ~name:"frequency policy matches brute force" ~count:40
    (Generators.seed_and_clauses 10 45)
    (fun (seed, m) ->
      let f = Generators.ksat ~seed:(seed + 1000) ~num_vars:10 ~num_clauses:m () in
      let expected = brute_force_sat f in
      let config =
        Cdcl.Config.with_policy Cdcl.Policy.frequency_default Cdcl.Config.default
      in
      match solve ~config f with
      | Cdcl.Solver.Sat model, _ -> expected && Cdcl.Solver.check_model f model
      | Cdcl.Solver.Unsat, _ -> not expected
      | Cdcl.Solver.Unknown, _ -> false)

let prop_solver_mixed_clause_lengths =
  QCheck.Test.make ~name:"solver handles mixed clause lengths" ~count:40
    QCheck.small_int
    (fun seed ->
      let f = Generators.mixed_lengths ~seed ~num_vars:8 ~num_clauses:25 () in
      let expected = brute_force_sat f in
      match solve f with
      | Cdcl.Solver.Sat model, _ -> expected && Cdcl.Solver.check_model f model
      | Cdcl.Solver.Unsat, _ -> not expected
      | Cdcl.Solver.Unknown, _ -> false)

(* A policy fixed by the first-reduce hook searches exactly as one
   configured up front. Of the 12 pinned instances, 8 reach a reduce
   under the 800k-propagation budget and 4 end before one; the hook
   must run once on each of the first and never on the second. *)
let test_policy_hook_same_search () =
  let instances = Gen.Dataset.generate_year ~seed:7 ~per_year:12 2022 in
  let budget =
    Cdcl.Config.with_budget ~max_propagations:800_000 Cdcl.Config.default
  in
  let reduced = ref 0 in
  List.iter
    (fun (i : Gen.Dataset.instance) ->
      List.iter
        (fun policy ->
          let what =
            Printf.sprintf "%s under %s" i.Gen.Dataset.name
              (Cdcl.Policy.name policy)
          in
          let upfront_result, upfront =
            Cdcl.Solver.solve_formula
              ~config:(Cdcl.Config.with_policy policy budget)
              i.Gen.Dataset.formula
          in
          (* The configured policy is the other one: only the hook's
             answer may act. *)
          let other =
            if policy = Cdcl.Policy.Default then Cdcl.Policy.frequency_default
            else Cdcl.Policy.Default
          in
          let s =
            Cdcl.Solver.create
              ~config:(Cdcl.Config.with_policy other budget)
              i.Gen.Dataset.formula
          in
          let calls = ref 0 in
          Cdcl.Solver.on_first_reduce s (fun () ->
              incr calls;
              policy);
          let deferred_result = Cdcl.Solver.solve s in
          let deferred = Cdcl.Solver_stats.copy (Cdcl.Solver.stats s) in
          checkb (what ^ ": same verdict") true (deferred_result = upfront_result);
          checkb (what ^ ": same stats") true (deferred = upfront);
          checki
            (what ^ ": hook runs once exactly when the solve reduces")
            (if upfront.Cdcl.Solver_stats.reduces > 0 then 1 else 0)
            !calls;
          if policy = Cdcl.Policy.Default && !calls > 0 then incr reduced)
        [ Cdcl.Policy.Default; Cdcl.Policy.frequency_default ])
    instances;
  checki "instances that reduce" 8 !reduced;
  checki "instances" 12 (List.length instances)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_extracts_max;
      prop_solver_matches_brute_force;
      prop_solver_frequency_matches_brute_force;
      prop_solver_mixed_clause_lengths;
    ]

let suite =
  [
    Alcotest.test_case "heap initial order" `Quick test_heap_initial_order;
    Alcotest.test_case "heap bump reorders" `Quick test_heap_bump_reorders;
    Alcotest.test_case "heap reinsert" `Quick test_heap_reinsert;
    Alcotest.test_case "heap rescale" `Quick test_heap_rescale;
    Alcotest.test_case "heap drain" `Quick test_heap_drain;
    Alcotest.test_case "policy default glue" `Quick test_policy_default_prefers_low_glue;
    Alcotest.test_case "policy size tiebreak" `Quick test_policy_default_size_tiebreak;
    Alcotest.test_case "policy frequency dominates" `Quick test_policy_frequency_dominates;
    Alcotest.test_case "policy key monotone" `Quick test_policy_key_monotone_in_fields;
    Alcotest.test_case "policy saturation" `Quick test_policy_saturation;
    Alcotest.test_case "policy eq2 frequency" `Quick test_policy_clause_frequency_eq2;
    Alcotest.test_case "policy packed key matches key" `Quick test_policy_packed_key_matches_key;
    Alcotest.test_case "policy activity" `Quick test_policy_activity_ordering;
    Alcotest.test_case "policy random deterministic" `Quick test_policy_random_deterministic;
    Alcotest.test_case "policy names roundtrip" `Quick test_policy_names_roundtrip;
    Alcotest.test_case "policy needs_frequency" `Quick test_policy_needs_frequency;
    Alcotest.test_case "policy hook same search" `Quick test_policy_hook_same_search;
    Alcotest.test_case "solver trivial" `Quick test_solver_trivial;
    Alcotest.test_case "solver unit propagation" `Quick test_solver_unit_propagation_only;
    Alcotest.test_case "solver dup/tautology" `Quick test_solver_duplicate_and_tautology;
    Alcotest.test_case "solver php unsat" `Quick test_solver_php_unsat;
    Alcotest.test_case "solver php sat" `Quick test_solver_php_sat_when_fits;
    Alcotest.test_case "solver parity unsat" `Quick test_solver_parity_unsat;
    Alcotest.test_case "solver parity sat" `Quick test_solver_parity_sat_model_checks;
    Alcotest.test_case "solver budget unknown" `Quick test_solver_budget_unknown;
    Alcotest.test_case "solver resume" `Quick test_solver_resume_after_unknown;
    Alcotest.test_case "solver answer cached" `Quick test_solver_answer_cached;
    Alcotest.test_case "solver value accessor" `Quick test_solver_value_after_sat;
    Alcotest.test_case "solver propagation counts" `Quick test_solver_propagation_counts;
    Alcotest.test_case "solver counts reset by reduce" `Quick test_solver_counts_reset_by_reduce;
    Alcotest.test_case "solver reduce deletes" `Quick test_solver_reduce_deletes;
    Alcotest.test_case "solver policies agree" `Slow test_solver_policies_agree_on_answer;
    Alcotest.test_case "solver restart modes agree" `Quick test_solver_restart_modes_agree;
    Alcotest.test_case "solver minimize shrinks" `Quick test_solver_minimize_shrinks;
    Alcotest.test_case "solver restarts counted" `Quick test_solver_luby_restarts_counted;
    Alcotest.test_case "drup proof valid php" `Quick test_drup_proof_valid_php;
    Alcotest.test_case "drup proof valid parity" `Quick test_drup_proof_valid_parity;
    Alcotest.test_case "drup rejects bogus proof" `Quick test_drup_rejects_bogus_proof;
    Alcotest.test_case "drup deletions recorded" `Quick test_drup_deletions_recorded;
    Alcotest.test_case "drup trace format" `Quick test_drup_trace_format;
  ]
  @ qcheck_tests

(* --- assumptions and unsat cores --- *)

let test_assumptions_sat () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let s = Cdcl.Solver.create f in
  match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.pos 1 ] with
  | Cdcl.Solver.Sat m ->
    checkb "assumption respected" true m.(1);
    checkb "implied literal" true m.(3);
    checkb "model valid" true (Cdcl.Solver.check_model f m)
  | _ -> Alcotest.fail "satisfiable under assumption"

let test_assumptions_unsat_with_core () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  let assumptions = [ Cnf.Lit.neg 1; Cnf.Lit.neg 2; Cnf.Lit.pos 3 ] in
  (match Cdcl.Solver.solve_with_assumptions s assumptions with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "must be unsat under assumptions");
  match Cdcl.Solver.unsat_core s with
  | Some core ->
    checkb "core is subset of assumptions" true
      (List.for_all (fun l -> List.exists (Cnf.Lit.equal l) assumptions) core);
    checkb "core mentions the clause vars" true
      (List.exists (fun l -> Cnf.Lit.var l = 1 || Cnf.Lit.var l = 2) core);
    (* The irrelevant assumption x3 must not be in the core. *)
    checkb "irrelevant assumption excluded" false
      (List.exists (fun l -> Cnf.Lit.var l = 3) core)
  | None -> Alcotest.fail "core must be available"

let test_assumptions_reusable () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.neg 1; Cnf.Lit.neg 2 ] with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "unsat first");
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.neg 1 ] with
  | Cdcl.Solver.Sat m ->
    checkb "x2 forced" true m.(2);
    checkb "model valid" true (Cdcl.Solver.check_model f m)
  | _ -> Alcotest.fail "sat second");
  match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "plain solve still works"

let test_assumptions_formula_unsat_empty_core () =
  let s = Cdcl.Solver.create (Gen.Pigeonhole.unsat 3) in
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.pos 1 ] with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "PHP unsat regardless");
  match Cdcl.Solver.unsat_core s with
  | Some [] -> ()
  | Some _ ->
    (* A non-empty core is also acceptable if derived before the
       level-0 conflict; it must then still be assumptions only. *)
    ()
  | None -> Alcotest.fail "core must be set"

let test_assumptions_conflicting_pair () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.pos 1; Cnf.Lit.neg 1 ] with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "contradictory assumptions are unsat");
  match Cdcl.Solver.unsat_core s with
  | Some core -> checkb "both sides in core" true (List.length core >= 2)
  | None -> Alcotest.fail "core must be set"

(* Assumptions agree with adding unit clauses. *)
let prop_assumptions_equal_units =
  QCheck.Test.make ~name:"assumptions behave like unit clauses" ~count:60
    (Generators.seed_and_clauses 15 40)
    (fun (seed, m) ->
      let f, rng =
        Generators.ksat_with_rng ~seed:(seed + 4242) ~num_vars:10 ~num_clauses:m ()
      in
      let k = Util.Rng.int_in rng 1 3 in
      let vars = Util.Rng.sample_distinct rng k 10 in
      let assumptions =
        Array.to_list
          (Array.map (fun v -> Cnf.Lit.make (v + 1) (Util.Rng.bool rng)) vars)
      in
      let s = Cdcl.Solver.create f in
      let with_assumptions = Cdcl.Solver.solve_with_assumptions s assumptions in
      let b = Cnf.Formula.Builder.create () in
      Cnf.Formula.Builder.ensure_vars b 10;
      Cnf.Formula.iter_clauses
        (fun c -> Cnf.Formula.Builder.add_clause b (Array.to_list c))
        f;
      List.iter (fun l -> Cnf.Formula.Builder.add_clause b [ l ]) assumptions;
      let augmented = Cnf.Formula.Builder.build b in
      let direct = fst (Cdcl.Solver.solve_formula augmented) in
      match (with_assumptions, direct) with
      | Cdcl.Solver.Sat m, Cdcl.Solver.Sat _ -> Cdcl.Solver.check_model augmented m
      | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> true
      | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "assumptions sat" `Quick test_assumptions_sat;
      Alcotest.test_case "assumptions unsat core" `Quick test_assumptions_unsat_with_core;
      Alcotest.test_case "assumptions reusable" `Quick test_assumptions_reusable;
      Alcotest.test_case "assumptions formula-unsat core" `Quick
        test_assumptions_formula_unsat_empty_core;
      Alcotest.test_case "assumptions conflicting pair" `Quick
        test_assumptions_conflicting_pair;
      QCheck_alcotest.to_alcotest prop_assumptions_equal_units;
    ]

let test_assumptions_unknown_then_plain_solve () =
  (* An interrupted assumption run must not leak its decisions into a
     later plain solve. *)
  let f = Gen.Pigeonhole.generate ~pigeons:5 ~holes:5 in
  let config = Cdcl.Config.with_budget ~max_conflicts:1 Cdcl.Config.default in
  let s = Cdcl.Solver.create ~config f in
  ignore (Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.pos 1; Cnf.Lit.pos 2 ]);
  let rec drive n =
    if n > 500 then Alcotest.fail "did not converge"
    else
      match Cdcl.Solver.solve s with
      | Cdcl.Solver.Sat m -> checkb "model valid" true (Cdcl.Solver.check_model f m)
      | Cdcl.Solver.Unsat -> Alcotest.fail "PHP(5,5) is SAT"
      | Cdcl.Solver.Unknown -> drive (n + 1)
  in
  drive 0

let suite =
  suite
  @ [
      Alcotest.test_case "assumptions unknown then plain" `Quick
        test_assumptions_unknown_then_plain_solve;
    ]

(* Propagation-trigger semantics: the counter increments for the
   variable whose assignment is consumed to derive each implication. *)
let test_propagation_trigger_semantics () =
  let f =
    Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ]
  in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "chain is SAT");
  let counts = Cdcl.Solver.propagation_counts s in
  checki "x1 triggered one implication" 1 counts.(1);
  checki "x2 triggered one implication" 1 counts.(2);
  checki "x3 triggered none" 0 counts.(3)

let test_stats_pp_smoke () =
  let _, stats = solve (Gen.Pigeonhole.unsat 4) in
  let text = Format.asprintf "%a" Cdcl.Solver_stats.pp stats in
  checkb "stats render" true (String.length text > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "propagation trigger semantics" `Quick
        test_propagation_trigger_semantics;
      Alcotest.test_case "stats pp smoke" `Quick test_stats_pp_smoke;
    ]

(* --- incremental API (IPASIR-style) --- *)

let test_incremental_add_clause_flips_verdict () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "sat before the new clauses");
  checkb "state sat" true (Cdcl.Solver.state s = `Sat);
  Cdcl.Solver.add_clause s [ Cnf.Lit.neg 1 ];
  checkb "mutation returns to ready" true (Cdcl.Solver.state s = `Ready);
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat m ->
    checkb "x1 false" false m.(1);
    checkb "x2 forced" true m.(2)
  | _ -> Alcotest.fail "still sat");
  Cdcl.Solver.add_clause s [ Cnf.Lit.neg 2 ];
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "units force a conflict");
  checkb "state unsat" true (Cdcl.Solver.state s = `Unsat)

let test_incremental_new_var_growth () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "sat initially");
  (* A burst of fresh variables exercises the geometric array growth. *)
  for i = 1 to 20 do
    checki "new_var returns the next index" (2 + i) (Cdcl.Solver.new_var s)
  done;
  checki "num_vars grew" 22 (Cdcl.Solver.num_vars s);
  (* Chain the fresh variables so they all propagate. *)
  Cdcl.Solver.add_clause s [ Cnf.Lit.pos 3 ];
  for v = 3 to 21 do
    Cdcl.Solver.add_clause s [ Cnf.Lit.neg v; Cnf.Lit.pos (v + 1) ]
  done;
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat m ->
    checki "model covers the new range" 23 (Array.length m);
    for v = 3 to 22 do
      checkb "chained variable true" true m.(v)
    done;
    checkb "model valid for the original clauses" true
      (Cdcl.Solver.check_model f m)
  | _ -> Alcotest.fail "chain is satisfiable");
  Cdcl.Solver.add_clause s [ Cnf.Lit.neg 22 ];
  match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "chain plus refutation is unsat"

(* A session add introduces variables one new_var at a time, inside
   the serve loop. A burst of them must stay amortised O(1), not copy
   every per-variable array per call. *)
let test_incremental_new_var_burst () =
  let s =
    Cdcl.Solver.create (Cnf.Formula.of_dimacs_lists ~num_vars:3 [ [ 1; 2; 3 ] ])
  in
  let before = Gc.allocated_bytes () in
  for _ = 1 to 20_000 do
    ignore (Cdcl.Solver.new_var s)
  done;
  let mb = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  checkb
    (Printf.sprintf "20000 new_var calls allocated %.1f MB (< 64)" mb)
    true (mb < 64.0);
  Cdcl.Solver.add_clause s [ Cnf.Lit.neg 1; Cnf.Lit.pos 20_003 ];
  match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat m -> checkb "model valid" true ((not m.(1)) || m.(20_003))
  | _ -> Alcotest.fail "burst solver must answer sat"

let test_incremental_unsat_sticky () =
  let s = Cdcl.Solver.create (Cnf.Formula.create ~num_vars:2 [||]) in
  Cdcl.Solver.add_clause s [ Cnf.Lit.pos 1 ];
  Cdcl.Solver.add_clause s [ Cnf.Lit.neg 1 ];
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "contradictory units");
  (* No later growth or clause can undo unsatisfiability. *)
  ignore (Cdcl.Solver.new_var s);
  Cdcl.Solver.add_clause s [ Cnf.Lit.pos 3 ];
  checkb "still unsat" true (Cdcl.Solver.state s = `Unsat);
  match Cdcl.Solver.solve s with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "unsat is sticky"

let test_incremental_out_of_range_raises () =
  let s = Cdcl.Solver.create (Cnf.Formula.create ~num_vars:2 [||]) in
  match Cdcl.Solver.add_clause s [ Cnf.Lit.pos 5 ] with
  | () -> Alcotest.fail "variable 5 was never introduced"
  | exception Runtime.Error.Runtime_error (Runtime.Error.Invalid_state _) -> ()

let test_incremental_tautology_keeps_answer () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "sat");
  Cdcl.Solver.add_clause s [ Cnf.Lit.pos 1; Cnf.Lit.neg 1 ];
  (* A tautology is a no-op: the cached answer survives. *)
  checkb "tautology keeps the cached answer" true (Cdcl.Solver.state s = `Sat)

(* Regression: a plain [solve] after an assumption UNSAT must not leak
   the stale failed-assumption core (or the assumptions themselves). *)
let test_plain_solve_clears_stale_core () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ] ] in
  let s = Cdcl.Solver.create f in
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.neg 1; Cnf.Lit.neg 2 ] with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "unsat under assumptions");
  checkb "core available after assumption unsat" true
    (Cdcl.Solver.unsat_core s <> None);
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat m -> checkb "model valid" true (Cdcl.Solver.check_model f m)
  | _ -> Alcotest.fail "formula itself is sat");
  checkb "plain solve cleared the stale core" true
    (Cdcl.Solver.unsat_core s = None);
  (* Also when the answer is served from cache. *)
  (match Cdcl.Solver.solve_with_assumptions s [ Cnf.Lit.neg 1; Cnf.Lit.neg 2 ] with
  | Cdcl.Solver.Unsat -> ()
  | _ -> Alcotest.fail "unsat under assumptions again");
  (match Cdcl.Solver.solve s with
  | Cdcl.Solver.Sat _ -> ()
  | _ -> Alcotest.fail "cached sat answer");
  checkb "cached path also clears the core" true
    (Cdcl.Solver.unsat_core s = None)

(* Incrementally replayed clauses reach the same verdict as loading
   the whole formula up front, across interleaved solves. *)
let prop_incremental_equals_monolithic =
  QCheck.Test.make ~name:"incremental add_clause equals monolithic" ~count:60
    (Generators.seed_and_clauses 10 40)
    (fun (seed, m) ->
      let f = Generators.mixed_lengths ~seed:(seed + 977) ~num_vars:8 ~num_clauses:m () in
      let first, rest = Generators.split_clauses ~seed f in
      let b = Cnf.Formula.Builder.create () in
      Cnf.Formula.Builder.ensure_vars b 8;
      List.iter (fun c -> Cnf.Formula.Builder.add_clause b (Array.to_list c)) first;
      let s = Cdcl.Solver.create (Cnf.Formula.Builder.build b) in
      ignore (Cdcl.Solver.solve s);
      (* Replay the remainder between solves, solving along the way. *)
      List.iteri
        (fun i c ->
          Cdcl.Solver.add_clause s (Array.to_list c);
          if i mod 3 = 0 then ignore (Cdcl.Solver.solve s))
        rest;
      let expected = Generators.brute_force_sat f in
      match Cdcl.Solver.solve s with
      | Cdcl.Solver.Sat model -> expected && Cdcl.Solver.check_model f model
      | Cdcl.Solver.Unsat -> not expected
      | Cdcl.Solver.Unknown -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "incremental add_clause" `Quick
        test_incremental_add_clause_flips_verdict;
      Alcotest.test_case "incremental new_var growth" `Quick
        test_incremental_new_var_growth;
      Alcotest.test_case "incremental new_var burst" `Quick
        test_incremental_new_var_burst;
      Alcotest.test_case "incremental unsat sticky" `Quick
        test_incremental_unsat_sticky;
      Alcotest.test_case "incremental out-of-range raises" `Quick
        test_incremental_out_of_range_raises;
      Alcotest.test_case "incremental tautology cached" `Quick
        test_incremental_tautology_keeps_answer;
      Alcotest.test_case "plain solve clears stale core" `Quick
        test_plain_solve_clears_stale_core;
      QCheck_alcotest.to_alcotest prop_incremental_equals_monolithic;
    ]
