(* Differential + metamorphic fuzzing of Cdcl.Solver against the DPLL
   oracle, with shrinking to minimal DIMACS reproducers. *)

type solve_fn =
  Cdcl.Config.t -> Cnf.Formula.t -> Cdcl.Solver.result * Cdcl.Drup.t option

let default_solve config f =
  let solver = Cdcl.Solver.create ~config f in
  let log = Cdcl.Drup.create () in
  Cdcl.Drup.attach log solver;
  (Cdcl.Solver.solve solver, Some log)

(* Unsound on purpose: losing a clause is what a broken watch-list
   update looks like from the outside. *)
let break_lost_clause config f =
  let m = Cnf.Formula.num_clauses f in
  if m = 0 then default_solve config f
  else begin
    let kept = Array.init (m - 1) (Cnf.Formula.clause f) in
    default_solve config (Cnf.Formula.create ~num_vars:(Cnf.Formula.num_vars f) kept)
  end

let all_policies =
  [
    Cdcl.Policy.Default;
    Cdcl.Policy.frequency_default;
    Cdcl.Policy.Glue_only;
    Cdcl.Policy.Size_only;
    Cdcl.Policy.Activity;
    Cdcl.Policy.Random 1;
  ]

type discrepancy = {
  case_index : int;
  family : string;
  detail : string;
  dimacs : string;
  replay : string;
}

type report = {
  seed : int;
  cases_run : int;
  checks_run : int;
  discrepancies : discrepancy list;
}

(* --- case generation --- *)

let case_rng ~seed i = Util.Rng.create ((seed * 1_000_003) + i)

let generate_case ~seed i =
  let rng = case_rng ~seed i in
  match i mod 5 with
  | 0 ->
    let n = Util.Rng.int_in rng 5 12 in
    let m = int_of_float (float_of_int n *. Util.Rng.uniform rng 2.0 5.5) in
    ("ksat", Gen.Ksat.generate rng ~num_vars:n ~num_clauses:(max 1 m) ~k:(min 3 n))
  | 1 ->
    let pigeons = Util.Rng.int_in rng 3 5 in
    let holes = if Util.Rng.bool rng then pigeons - 1 else pigeons in
    ("pigeonhole", Gen.Pigeonhole.generate ~pigeons ~holes)
  | 2 ->
    let vertices = Util.Rng.int_in rng 4 7 in
    let colors = Util.Rng.int_in rng 2 3 in
    let edge_prob = Util.Rng.uniform rng 0.25 0.6 in
    ("coloring", Gen.Coloring.generate rng ~vertices ~edge_prob ~colors)
  | 3 ->
    let n = Util.Rng.int_in rng 3 8 in
    if Util.Rng.bool rng then
      ("parity", Gen.Parity.chain rng ~num_vars:n ~target:(Util.Rng.bool rng))
    else ("parity", Gen.Parity.contradiction rng ~num_vars:n)
  | _ ->
    let width = Util.Rng.int_in rng 1 2 in
    let faulty = Util.Rng.bool rng in
    ("circuit", Gen.Circuits.adder_miter ~faulty width)

(* --- per-formula checking --- *)

type opts = {
  solve : solve_fn;
  policies : Cdcl.Policy.t list;
  metamorphic : bool;
  check_proofs : bool;
  oracle_budget : int;
}

let verdict_name = function
  | Cdcl.Solver.Sat _ -> "SAT"
  | Cdcl.Solver.Unsat -> "UNSAT"
  | Cdcl.Solver.Unknown -> "UNKNOWN"

let same_verdict a b =
  match (a, b) with
  | Cdcl.Solver.Sat _, Cdcl.Solver.Sat _ -> true
  | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> true
  | Cdcl.Solver.Unknown, Cdcl.Solver.Unknown -> true
  | _ -> false

(* Runs every check on one formula. Returns the number of assertions
   evaluated and the first failure, if any. [meta_seed] fixes the
   randomness of the metamorphic transforms. *)
let check_formula opts ~meta_seed f =
  let checks = ref 0 in
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  (* [msg] is a thunk so passing assertions never build the string. *)
  let assert_ cond msg =
    incr checks;
    if not cond then fail (msg ())
  in
  let oracle = Oracle.solve ~max_nodes:opts.oracle_budget f in
  let baseline = ref None in
  List.iter
    (fun policy ->
      if !failure = None then begin
        let config = Cdcl.Config.with_policy policy Cdcl.Config.default in
        let result, log = opts.solve config f in
        let pname = Cdcl.Policy.name policy in
        (match result with
        | Cdcl.Solver.Unknown ->
          incr checks;
          fail
            (Printf.sprintf "policy %s: Unknown verdict with no budget configured"
               pname)
        | Cdcl.Solver.Sat model ->
          assert_
            (Cdcl.Solver.check_model f model)
            (fun () ->
              Printf.sprintf "policy %s: SAT model does not satisfy the formula"
                pname)
        | Cdcl.Solver.Unsat ->
          if opts.check_proofs then begin
            incr checks;
            match log with
            | None ->
              fail (Printf.sprintf "policy %s: UNSAT without a proof log" pname)
            | Some log -> (
              Cdcl.Drup.conclude_unsat log;
              match Cdcl.Drup_check.check_solver_proof f log with
              | Cdcl.Drup_check.Valid -> ()
              | Cdcl.Drup_check.Invalid { line; reason } ->
                fail
                  (Printf.sprintf "policy %s: DRUP proof invalid at line %d: %s"
                     pname line reason))
          end);
        (match oracle with
        | None -> ()
        | Some o ->
          let agrees =
            match (o, result) with
            | Oracle.Sat _, Cdcl.Solver.Sat _ -> true
            | Oracle.Unsat, Cdcl.Solver.Unsat -> true
            | _ -> false
          in
          assert_ agrees (fun () ->
              Printf.sprintf "policy %s: verdict %s but oracle says %s" pname
                (verdict_name result) (Oracle.verdict_name o)));
        match !baseline with
        | None -> baseline := Some (pname, result)
        | Some (bname, bresult) ->
          assert_
            (same_verdict bresult result)
            (fun () ->
              Printf.sprintf "policy %s: verdict %s disagrees with policy %s: %s"
                pname (verdict_name result) bname (verdict_name bresult))
      end)
    opts.policies;
  (match (!failure, !baseline) with
  | None, Some (_, base_result) when opts.metamorphic ->
    let rng = Util.Rng.create meta_seed in
    List.iter
      (fun transform ->
        if !failure = None then begin
          let g = Metamorphic.apply rng transform f in
          let result, _ = opts.solve Cdcl.Config.default g in
          assert_
            (same_verdict base_result result)
            (fun () ->
              Printf.sprintf "metamorphic %s: verdict %s but original was %s"
                (Metamorphic.name transform) (verdict_name result)
                (verdict_name base_result))
        end)
      Metamorphic.all
  | _ -> ());
  (!checks, !failure)

(* --- shrinking --- *)

let clauses_of f = Array.init (Cnf.Formula.num_clauses f) (Cnf.Formula.clause f)

let shrink still_fails f =
  let num_vars = Cnf.Formula.num_vars f in
  let budget = ref 1000 in
  let fails clauses =
    if !budget <= 0 then false
    else begin
      decr budget;
      match still_fails (Cnf.Formula.create ~num_vars clauses) with
      | ok -> ok
      | exception _ -> false
    end
  in
  let current = ref (clauses_of f) in
  let remove_range arr start len =
    let n = Array.length arr in
    Array.append (Array.sub arr 0 start) (Array.sub arr (start + len) (n - start - len))
  in
  (* Clause removal: chunks of halving size, then singletons. *)
  let chunk = ref (max 1 (Array.length !current / 2)) in
  while !chunk >= 1 do
    let i = ref 0 in
    while !i + !chunk <= Array.length !current do
      let candidate = remove_range !current !i !chunk in
      if fails candidate then current := candidate else i := !i + !chunk
    done;
    chunk := if !chunk = 1 then 0 else !chunk / 2
  done;
  (* Literal removal within the surviving clauses (never emptying one). *)
  let ci = ref 0 in
  while !ci < Array.length !current do
    let li = ref 0 in
    while !li < Array.length !current.(!ci) && Array.length !current.(!ci) > 1 do
      let candidate = Array.copy !current in
      candidate.(!ci) <- remove_range !current.(!ci) !li 1;
      if fails candidate then current := candidate else incr li
    done;
    incr ci
  done;
  Cnf.Formula.create ~num_vars !current

(* --- the driver --- *)

let replay_command ~seed ~case_index =
  Printf.sprintf "dune exec bin/fuzz.exe -- --seed %d --case %d" seed case_index

let run ?(solve = default_solve) ?(policies = all_policies) ?(metamorphic = true)
    ?(check_proofs = true) ?(oracle_budget = 500_000) ?only_case
    ?(on_case = fun _ _ -> ()) ~seed ~cases () =
  let opts = { solve; policies; metamorphic; check_proofs; oracle_budget } in
  let total_checks = ref 0 in
  let discrepancies = ref [] in
  let cases_run = ref 0 in
  let indices =
    match only_case with
    | Some i -> [ i ]
    | None -> List.init (max 0 cases) (fun i -> i)
  in
  List.iter
    (fun i ->
      let family, f = generate_case ~seed i in
      on_case i family;
      incr cases_run;
      let meta_seed = (seed * 7_368_787) + i in
      let checks, failure = check_formula opts ~meta_seed f in
      total_checks := !total_checks + checks;
      match failure with
      | None -> ()
      | Some detail ->
        let still_fails g = snd (check_formula opts ~meta_seed g) <> None in
        let minimal = shrink still_fails f in
        discrepancies :=
          {
            case_index = i;
            family;
            detail;
            dimacs = Cnf.Dimacs.to_string minimal;
            replay = replay_command ~seed ~case_index:i;
          }
          :: !discrepancies)
    indices;
  {
    seed;
    cases_run = !cases_run;
    checks_run = !total_checks;
    discrepancies = List.rev !discrepancies;
  }

let pp_report ppf r =
  Format.fprintf ppf "fuzz: seed %d, %d cases, %d checks, %d discrepancies@."
    r.seed r.cases_run r.checks_run
    (List.length r.discrepancies);
  List.iter
    (fun d ->
      Format.fprintf ppf
        "@.FAIL case %d (%s): %s@.replay: %s@.shrunk reproducer:@.%s@."
        d.case_index d.family d.detail d.replay d.dimacs)
    r.discrepancies

(* --- arena vs. reference differential mode --------------------------- *)

type ref_diff_failure = {
  rdf_case : int;
  rdf_family : string;
  rdf_detail : string;
  rdf_dimacs : string;  (* shrunk reproducer, every failure kind *)
  rdf_replay : string;
}

type ref_diff_report = {
  rd_seed : int;
  rd_cases : int;
  rd_compactions : int;  (* arena GCs across all runs *)
  rd_rewrites : int;  (* inprocessing rewrites across all runs *)
  rd_digest : int;  (* CRC-32 of every run's search statistics *)
  rd_failures : ref_diff_failure list;
}

(* Aggressive schedule: frequent reduces, deep deletion, no protected
   tier — maximises deleted-clause garbage so the arena compacts often
   even on fuzz-sized instances. Policy rotates with the case index. *)
let ref_diff_config i =
  let policy = List.nth all_policies (i mod List.length all_policies) in
  {
    Cdcl.Config.default with
    Cdcl.Config.policy;
    reduce_first = 20;
    reduce_inc = 5;
    reduce_fraction = 0.8;
    tier1_glue = 0;
  }

(* The inprocessing arm: a pass after every restart, restarts every
   few conflicts, eager promotion — so vivification, subsumption, tier
   movement, and mid-pass compaction all trigger on fuzz-sized
   instances. Only the verdict, model validity, and DRUP proof are
   compared against the reference: inprocessing legitimately changes
   the search trajectory, so bit-for-bit stats equality is gated to
   the inprocessing-off arm. *)
let inprocess_diff_config i =
  {
    (ref_diff_config i) with
    Cdcl.Config.restart_mode = Cdcl.Config.Luby 8;
    inprocess = true;
    inprocess_interval = 1;
    tier2_glue = 4;
    promote_uses = 1;
    vivify_budget = 10_000;
    subsume_budget = 50_000;
  }

let stats_equal (a : Cdcl.Solver_stats.t) (b : Cdcl.Solver_stats.t) =
  a.Cdcl.Solver_stats.decisions = b.Cdcl.Solver_stats.decisions
  && a.Cdcl.Solver_stats.conflicts = b.Cdcl.Solver_stats.conflicts
  && a.Cdcl.Solver_stats.propagations = b.Cdcl.Solver_stats.propagations
  && a.Cdcl.Solver_stats.restarts = b.Cdcl.Solver_stats.restarts
  && a.Cdcl.Solver_stats.reduces = b.Cdcl.Solver_stats.reduces
  && a.Cdcl.Solver_stats.learned_total = b.Cdcl.Solver_stats.learned_total
  && a.Cdcl.Solver_stats.deleted_total = b.Cdcl.Solver_stats.deleted_total
  && a.Cdcl.Solver_stats.minimized_literals = b.Cdcl.Solver_stats.minimized_literals
  && a.Cdcl.Solver_stats.max_decision_level = b.Cdcl.Solver_stats.max_decision_level

(* The search statistics a summary digest covers: a search change made
   to Cdcl.Solver and Refsolver alike moves them even when every check
   passes. *)
let search_key (s : Cdcl.Solver_stats.t) =
  Printf.sprintf "%d %d %d %d %d;" s.Cdcl.Solver_stats.decisions
    s.Cdcl.Solver_stats.conflicts s.Cdcl.Solver_stats.propagations
    s.Cdcl.Solver_stats.reduces s.Cdcl.Solver_stats.deleted_total

(* One case, both arms. Returns (first failure, compactions,
   inprocessing rewrites, search keys of the arms that ran).
   Deterministic in (config, ipconfig, f), so the shrinker can re-run
   it on candidate sub-formulas. *)
let run_one_ref_diff config ipconfig f =
  let failure = ref None in
  let fail d = if !failure = None then failure := Some d in
  let compactions = ref 0 in
  let rewrites = ref 0 in
  let keys = ref "" in
  (* Arm 1: inprocessing off — bit-for-bit against the reference. *)
  let arena = Cdcl.Solver.create ~config f in
  let arena_events = ref [] in
  let drup = Cdcl.Drup.create () in
  Cdcl.Solver.set_trace arena (fun ev ->
      arena_events := ev :: !arena_events;
      Cdcl.Drup.event drup ev);
  let rs = Refsolver.create ~config f in
  let ref_events = ref [] in
  Refsolver.set_trace rs (fun ev -> ref_events := ev :: !ref_events);
  let ra = Cdcl.Solver.solve arena in
  let rr = Refsolver.solve rs in
  compactions := !compactions + Cdcl.Solver.arena_gc_count arena;
  (match (ra, rr) with
  | Cdcl.Solver.Sat ma, Cdcl.Solver.Sat mr ->
    if not (Cdcl.Solver.check_model f ma) then fail "arena model invalid";
    if ma <> mr then fail "models differ"
  | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat ->
    Cdcl.Drup.conclude_unsat drup;
    (match Cdcl.Drup_check.check_solver_proof f drup with
    | Cdcl.Drup_check.Valid -> ()
    | Cdcl.Drup_check.Invalid { line; reason } ->
      fail (Printf.sprintf "arena DRUP proof invalid at line %d: %s" line reason))
  | Cdcl.Solver.Unknown, Cdcl.Solver.Unknown -> ()
  | _ -> fail "verdicts diverge");
  if not (stats_equal (Cdcl.Solver.stats arena) (Refsolver.stats rs)) then
    fail "statistics diverge";
  keys := search_key (Cdcl.Solver.stats arena);
  if List.rev !arena_events <> List.rev !ref_events then fail "traces diverge";
  (* Arm 2: inprocessing on — verdict, model validity, DRUP proof. *)
  if !failure = None then begin
    let ip = Cdcl.Solver.create ~config:ipconfig f in
    let ip_drup = Cdcl.Drup.create () in
    Cdcl.Drup.attach ip_drup ip;
    let ri = Cdcl.Solver.solve ip in
    compactions := !compactions + Cdcl.Solver.arena_gc_count ip;
    let st = Cdcl.Solver.stats ip in
    keys := !keys ^ search_key st;
    rewrites :=
      !rewrites + st.Cdcl.Solver_stats.vivified
      + st.Cdcl.Solver_stats.vivify_deleted + st.Cdcl.Solver_stats.subsumed
      + st.Cdcl.Solver_stats.strengthened;
    match (ri, rr) with
    | Cdcl.Solver.Sat mi, Cdcl.Solver.Sat _ ->
      if not (Cdcl.Solver.check_model f mi) then
        fail "inprocessing model invalid"
    | Cdcl.Solver.Unsat, Cdcl.Solver.Unsat -> (
      Cdcl.Drup.conclude_unsat ip_drup;
      match Cdcl.Drup_check.check_solver_proof f ip_drup with
      | Cdcl.Drup_check.Valid -> ()
      | Cdcl.Drup_check.Invalid { line; reason } ->
        fail
          (Printf.sprintf "inprocessing DRUP proof invalid at line %d: %s" line
             reason))
    | _ ->
      fail
        (Printf.sprintf "inprocessing verdict %s but reference says %s"
           (verdict_name ri) (verdict_name rr))
  end;
  (!failure, !compactions, !rewrites, !keys)

let run_ref_diff ?(on_case = fun _ _ -> ()) ~seed ~cases () =
  let failures = ref [] in
  let compactions = ref 0 in
  let rewrites = ref 0 in
  let digest = ref 0 in
  for i = 0 to cases - 1 do
    let family, f = generate_case ~seed i in
    on_case i family;
    let config = ref_diff_config i in
    let ipconfig = inprocess_diff_config i in
    let failure, gcs, rws, keys = run_one_ref_diff config ipconfig f in
    compactions := !compactions + gcs;
    rewrites := !rewrites + rws;
    digest := Runtime.Crc32.update !digest keys;
    match failure with
    | None -> ()
    | Some detail ->
      (* Shrink on every failure kind — statistics and trace
         divergences included, not just verdict mismatches. *)
      let still_fails g =
        let failure, _, _, _ = run_one_ref_diff config ipconfig g in
        failure <> None
      in
      let minimal = shrink still_fails f in
      failures :=
        {
          rdf_case = i;
          rdf_family = family;
          rdf_detail = detail;
          rdf_dimacs = Cnf.Dimacs.to_string minimal;
          rdf_replay = replay_command ~seed ~case_index:i ^ " --diff-ref";
        }
        :: !failures
  done;
  {
    rd_seed = seed;
    rd_cases = cases;
    rd_compactions = !compactions;
    rd_rewrites = !rewrites;
    rd_digest = !digest;
    rd_failures = List.rev !failures;
  }

(* --- incremental API differential mode -------------------------------- *)

type incr_failure = {
  if_case : int;
  if_step : int;
  if_detail : string;
  if_replay : string;
}

type incr_report = {
  ir_seed : int;
  ir_sequences : int;
  ir_steps : int; (* total API calls issued *)
  ir_solves : int; (* solve / solve_with_assumptions steps checked *)
  ir_checks : int;
  ir_digest : int; (* CRC-32 of each sequence's final search statistics *)
  ir_failures : incr_failure list;
}

(* One randomized call sequence against a fresh-solver-per-step oracle.

   The incremental solver receives interleaved add_clause / new_var /
   solve / solve_with_assumptions calls; at every solve step a brand-new
   solver is built from the accumulated formula and must produce the
   same verdict constructor. Models can legitimately differ (the
   incremental solver carries learned clauses and saved phases across
   steps), so SAT answers are checked for validity against the
   accumulated formula instead of equality. Plain solves additionally
   cross-check the Refsolver reference implementation. *)
let run_one_incremental ~seed i ~steps_done ~solves_done ~checks_done =
  let rng = Util.Rng.create ((seed * 2_000_033) + i + 1) in
  let config =
    Cdcl.Config.with_policy
      (List.nth all_policies (i mod List.length all_policies))
      Cdcl.Config.default
  in
  let num_vars = ref (Util.Rng.int_in rng 4 8) in
  let clauses = ref [] in
  (* accumulated, reversed *)
  let inc = Cdcl.Solver.create ~config (Cnf.Formula.create ~num_vars:!num_vars [||]) in
  let failure = ref None in
  let fail step msg = if !failure = None then failure := Some (step, msg) in
  let check step cond msg =
    incr checks_done;
    if not cond then fail step (msg ())
  in
  let accumulated () =
    Cnf.Formula.create ~num_vars:!num_vars (Array.of_list (List.rev !clauses))
  in
  let random_clause () =
    let len = Util.Rng.int_in rng 1 (min 4 !num_vars) in
    let vars = Util.Rng.sample_distinct rng len !num_vars in
    Array.map (fun v -> Cnf.Lit.make (v + 1) (Util.Rng.bool rng)) vars
  in
  let random_assumptions () =
    let k = Util.Rng.int_in rng 0 (min 3 !num_vars) in
    Array.to_list
      (Array.map
         (fun v -> Cnf.Lit.make (v + 1) (Util.Rng.bool rng))
         (Util.Rng.sample_distinct rng k !num_vars))
  in
  let model_ok f m = Cdcl.Solver.check_model f m in
  let assumptions_hold m assumptions =
    List.for_all
      (fun l ->
        let v = Cnf.Lit.var l in
        v < Array.length m && m.(v) = Cnf.Lit.is_pos l)
      assumptions
  in
  let check_solve step assumptions =
    incr solves_done;
    let f = accumulated () in
    let fresh = Cdcl.Solver.create ~config f in
    match assumptions with
    | None ->
      let ri = Cdcl.Solver.solve inc in
      let ro = Cdcl.Solver.solve fresh in
      check step (same_verdict ri ro) (fun () ->
          Printf.sprintf "plain solve: incremental %s vs fresh %s"
            (verdict_name ri) (verdict_name ro));
      (* Cross-check the record-based reference implementation too. *)
      let rs = Refsolver.create ~config f in
      let rr = Refsolver.solve rs in
      check step (same_verdict ri rr) (fun () ->
          Printf.sprintf "plain solve: incremental %s vs refsolver %s"
            (verdict_name ri) (verdict_name rr));
      check step
        (Cdcl.Solver.unsat_core inc = None)
        (fun () -> "plain solve left a stale unsat core");
      (match ri with
      | Cdcl.Solver.Sat m ->
        check step (model_ok f m) (fun () ->
            "plain solve: incremental SAT model invalid")
      | _ -> ());
      check step
        (match (Cdcl.Solver.state inc, ri) with
        | `Sat, Cdcl.Solver.Sat _ | `Unsat, Cdcl.Solver.Unsat
        | `Unknown, Cdcl.Solver.Unknown ->
          true
        | _ -> false)
        (fun () -> "state does not mirror the verdict")
    | Some assumptions ->
      let ri = Cdcl.Solver.solve_with_assumptions inc assumptions in
      let ro = Cdcl.Solver.solve_with_assumptions fresh assumptions in
      check step (same_verdict ri ro) (fun () ->
          Printf.sprintf "assumption solve: incremental %s vs fresh %s"
            (verdict_name ri) (verdict_name ro));
      (match ri with
      | Cdcl.Solver.Sat m ->
        check step
          (model_ok f m && assumptions_hold m assumptions)
          (fun () -> "assumption solve: SAT model invalid or violates assumptions")
      | Cdcl.Solver.Unsat -> (
        match Cdcl.Solver.unsat_core inc with
        | None -> fail step "assumption UNSAT without a core"
        | Some core ->
          check step
            (List.for_all
               (fun l -> List.exists (Cnf.Lit.equal l) assumptions)
               core)
            (fun () -> "unsat core is not a subset of the assumptions");
          (* The core alone must still be unsatisfiable with the formula. *)
          let again = Cdcl.Solver.create ~config f in
          check step
            (Cdcl.Solver.solve_with_assumptions again core = Cdcl.Solver.Unsat)
            (fun () -> "unsat core does not reproduce UNSAT"))
      | Cdcl.Solver.Unknown -> ())
  in
  let steps = Util.Rng.int_in rng 10 24 in
  let step = ref 0 in
  while !step < steps && !failure = None do
    incr steps_done;
    let r = Util.Rng.int rng 100 in
    (if r < 50 then begin
       let c = random_clause () in
       clauses := c :: !clauses;
       Cdcl.Solver.add_clause inc (Array.to_list c)
     end
     else if r < 65 then begin
       let v = Cdcl.Solver.new_var inc in
       incr num_vars;
       check !step (v = !num_vars) (fun () ->
           Printf.sprintf "new_var returned %d, expected %d" v !num_vars)
     end
     else if r < 90 then check_solve !step (Some (random_assumptions ()))
     else check_solve !step None);
    incr step
  done;
  (* Every sequence ends with a checked plain solve. *)
  if !failure = None then begin
    incr steps_done;
    check_solve !step None
  end;
  (!failure, search_key (Cdcl.Solver.stats inc))

let run_incremental_diff ?(on_case = fun _ -> ()) ~seed ~sequences () =
  let steps_done = ref 0 in
  let solves_done = ref 0 in
  let checks_done = ref 0 in
  let failures = ref [] in
  let digest = ref 0 in
  for i = 0 to sequences - 1 do
    on_case i;
    let failure, key =
      run_one_incremental ~seed i ~steps_done ~solves_done ~checks_done
    in
    digest := Runtime.Crc32.update !digest key;
    match failure with
    | None -> ()
    | Some (step, detail) ->
      failures :=
        {
          if_case = i;
          if_step = step;
          if_detail = detail;
          if_replay = replay_command ~seed ~case_index:i ^ " --diff-ref";
        }
        :: !failures
  done;
  {
    ir_seed = seed;
    ir_sequences = sequences;
    ir_steps = !steps_done;
    ir_solves = !solves_done;
    ir_checks = !checks_done;
    ir_digest = !digest;
    ir_failures = List.rev !failures;
  }

let pp_incr_report ppf r =
  Format.fprintf ppf
    "incremental-diff: seed %d, %d sequences, %d steps, %d solves, %d checks, \
     search digest %s, %d failures@."
    r.ir_seed r.ir_sequences r.ir_steps r.ir_solves r.ir_checks
    (Runtime.Crc32.to_hex r.ir_digest)
    (List.length r.ir_failures);
  List.iter
    (fun d ->
      Format.fprintf ppf "@.FAIL sequence %d step %d: %s@.replay: %s@."
        d.if_case d.if_step d.if_detail d.if_replay)
    r.ir_failures

let pp_ref_diff_report ppf r =
  Format.fprintf ppf
    "ref-diff: seed %d, %d cases, %d arena compactions, %d inprocessing \
     rewrites, search digest %s, %d failures@."
    r.rd_seed r.rd_cases r.rd_compactions r.rd_rewrites
    (Runtime.Crc32.to_hex r.rd_digest)
    (List.length r.rd_failures);
  List.iter
    (fun d ->
      Format.fprintf ppf
        "@.FAIL case %d (%s): %s@.replay: %s@.shrunk reproducer:@.%s@."
        d.rdf_case d.rdf_family d.rdf_detail d.rdf_replay d.rdf_dimacs)
    r.rd_failures
