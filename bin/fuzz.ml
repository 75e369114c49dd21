(* ns-fuzz: differential + metamorphic fuzzing CLI for the camlsat CDCL
   solver. Cross-checks every clause-deletion policy against a DPLL
   oracle, validates SAT models and DRUP proofs, and asserts verdict
   stability under satisfiability-preserving transforms. Failures are
   shrunk to minimal DIMACS and reported with a replay command.

   Exit codes: 0 = clean, 1 = discrepancies found. *)

let run seed cases case gradcheck faults diff_ref check_checkpoint
    no_metamorphic no_proofs buggy verbose =
  (match check_checkpoint with
  | None -> ()
  | Some path ->
    let model = Core.Model.create Core.Model.paper_config in
    (match Core.Model.load_result path model with
    | Ok (Nn.Checkpoint.Primary, epochs) ->
      Printf.printf "checkpoint %s: OK (primary, %d epochs)\n" path epochs;
      exit 0
    | Ok (Nn.Checkpoint.Backup, epochs) ->
      Printf.printf "checkpoint %s: primary corrupt, backup %s OK (%d epochs)\n"
        path (Nn.Checkpoint.backup_path path) epochs;
      exit 0
    | Error e ->
      Printf.printf "checkpoint %s: FAIL (%s)\n" path (Runtime.Error.to_string e);
      exit 1));
  if faults then begin
    let report = Verify.Faultcheck.run_all ~seed () in
    Format.printf "%a@." Verify.Faultcheck.pp_report report;
    exit (if Verify.Faultcheck.passed report then 0 else 1)
  end;
  if diff_ref then begin
    let on_case i family =
      if verbose then Printf.printf "c case %d: %s\n%!" i family
    in
    let report = Verify.Fuzz.run_ref_diff ~on_case ~seed ~cases () in
    Format.printf "%a" Verify.Fuzz.pp_ref_diff_report report;
    (* Third arm: randomized incremental call sequences against a
       fresh-solver-per-step oracle (at least 300, more when --cases
       asks for it). *)
    let sequences = max cases 300 in
    let on_case i =
      if verbose then Printf.printf "c incremental sequence %d\n%!" i
    in
    let ireport = Verify.Fuzz.run_incremental_diff ~on_case ~seed ~sequences () in
    Format.printf "%a" Verify.Fuzz.pp_incr_report ireport;
    exit
      (if
         report.Verify.Fuzz.rd_failures = []
         && ireport.Verify.Fuzz.ir_failures = []
       then 0
       else 1)
  end;
  if gradcheck then begin
    let reports = Verify.Gradcheck.run_all ~seed () in
    List.iter
      (fun r -> Format.printf "%a@." Verify.Gradcheck.pp_report r)
      reports;
    let ok = Verify.Gradcheck.passed ~tol:1e-4 reports in
    Format.printf "gradcheck: max rel err %.3e — %s@."
      (Verify.Gradcheck.max_error reports)
      (if ok then "OK" else "FAIL");
    exit (if ok then 0 else 1)
  end;
  let solve =
    if buggy then begin
      print_endline "c running with the deliberately broken solver (--buggy)";
      Verify.Fuzz.break_lost_clause
    end
    else Verify.Fuzz.default_solve
  in
  let on_case i family =
    if verbose then Printf.printf "c case %d: %s\n%!" i family
  in
  let report =
    Verify.Fuzz.run ~solve ~metamorphic:(not no_metamorphic)
      ~check_proofs:(not no_proofs) ?only_case:case ~on_case ~seed ~cases ()
  in
  Format.printf "%a" Verify.Fuzz.pp_report report;
  exit (if report.Verify.Fuzz.discrepancies = [] then 0 else 1)

open Cmdliner

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Fuzzing seed.")

let cases =
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"K" ~doc:"Number of cases to run.")

let case =
  Arg.(value & opt (some int) None & info [ "case" ] ~docv:"K"
         ~doc:"Replay a single case index (as printed by a failure report).")

let gradcheck =
  Arg.(value & flag & info [ "gradcheck" ]
         ~doc:"Run the finite-difference gradient check instead of fuzzing.")

let faults =
  Arg.(value & flag & info [ "faults" ]
         ~doc:"Run the seeded fault-injection suite instead of fuzzing: torn \
               and bit-flipped checkpoint writes, poisoned gradients, failing \
               inference, crashing instances, journal-based campaign resume, \
               SIGKILLed/OOM/hung supervised workers, an aborted \
               inprocessing pass, parallel-vs-sequential journal \
               equivalence, and torn or crashed WAL appends and snapshots \
               — each must recover via its documented path.")

let diff_ref =
  Arg.(value & flag & info [ "diff-ref" ]
         ~doc:"Differential mode: run the arena-backed solver against the \
               record-based reference solver on every case under a \
               compaction-heavy reduce schedule and require bit-for-bit \
               identical verdicts, statistics, and clause traces (UNSAT \
               proofs DRUP-checked), then re-solve with inprocessing \
               (vivification, subsumption, tiered reduce) enabled and \
               require verdict agreement plus a valid DRUP proof. Every \
               failure kind — statistics and trace divergence included — \
               is shrunk to a minimal DIMACS reproducer. Also runs \
               randomized incremental call sequences (add_clause, new_var, \
               solve, solve_with_assumptions) against a \
               fresh-solver-per-step oracle — at least 300 sequences.")

let check_checkpoint =
  Arg.(value & opt (some string) None & info [ "check-checkpoint" ] ~docv:"FILE"
         ~doc:"Validate FILE as a NeuroSelect checkpoint (header, CRC, \
               shapes), falling back to FILE.bak, and print the epoch \
               count of the copy loaded; exit 0 iff loadable.")

let no_metamorphic =
  Arg.(value & flag & info [ "no-metamorphic" ] ~doc:"Skip metamorphic transforms.")

let no_proofs =
  Arg.(value & flag & info [ "no-proofs" ] ~doc:"Skip DRUP proof checking.")

let buggy =
  Arg.(value & flag & info [ "buggy" ]
         ~doc:"Fuzz a deliberately unsound solver (drops one clause) to \
               demonstrate that the harness detects soundness bugs.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ])

let cmd =
  let doc = "differential fuzzing of the camlsat CDCL solver" in
  Cmd.v
    (Cmd.info "ns-fuzz" ~doc)
    Term.(
      const run $ seed $ cases $ case $ gradcheck $ faults $ diff_ref
      $ check_checkpoint $ no_metamorphic $ no_proofs $ buggy $ verbose)

let () = exit (Cmd.eval cmd)
