(* ns-solve: DIMACS CLI front-end for the camlsat CDCL solver with
   selectable clause-deletion policy, including model-guided adaptive
   selection. Exit codes follow the SAT-competition convention:
   10 = SAT, 20 = UNSAT, 0 = unknown.

   With --isolate (or --mem-limit-mb) the solve runs in a supervised
   worker process: an address-space cap and heartbeat watchdog contain
   runaway instances. Several FILEs solve as a pool with --jobs N;
   the summary line per file replaces the exit-code convention (0 =
   every file produced a verdict). *)

let solve_one file policy_str adaptive checkpoint proof simplify inprocess
    max_conflicts max_propagations verbose : int =
  let original = Cnf.Dimacs.parse_file file in
  if verbose then
    Printf.printf "c parsed %s: %d vars, %d clauses\n" file
      (Cnf.Formula.num_vars original)
      (Cnf.Formula.num_clauses original);
  let simplified =
    if not simplify then Some (original, None)
    else begin
      match Cnf.Simplify.simplify original with
      | Cnf.Simplify.Proved_unsat ->
        print_endline "c preprocessing proved unsatisfiability";
        print_endline "s UNSATISFIABLE";
        None
      | Cnf.Simplify.Simplified r ->
        if verbose then
          Printf.printf "c simplify: %d clauses left (%d units, %d pure, %d subsumed)\n"
            (Cnf.Formula.num_clauses r.Cnf.Simplify.formula)
            r.Cnf.Simplify.stats.Cnf.Simplify.forced_units
            r.Cnf.Simplify.stats.Cnf.Simplify.pure_literals
            r.Cnf.Simplify.stats.Cnf.Simplify.subsumed_clauses;
        Some (r.Cnf.Simplify.formula, Some r)
    end
  in
  match simplified with
  | None -> 20
  | Some (formula, preprocessing) ->
    let base =
      Cdcl.Config.with_budget ?max_conflicts ?max_propagations Cdcl.Config.default
    in
    let base =
      match inprocess with
      | None -> base
      | Some interval -> Cdcl.Config.with_inprocess ~interval true base
    in
    let config =
      if adaptive then base
      else
        match Cdcl.Policy.of_string policy_str with
        | Some p -> Cdcl.Config.with_policy p base
        | None -> assert false (* validated before any solve starts *)
    in
    let result, stats =
      if adaptive then begin
        let model = Core.Model.create Core.Model.paper_config in
        (match checkpoint with
        | Some path -> Core.Model.load path model
        | None ->
          prerr_endline "c warning: adaptive mode without --checkpoint uses untrained weights");
        let selection, result, stats = Core.Selector.solve_adaptive ~config model formula in
        (match selection with
        | Some s ->
          Printf.printf "c adaptive selection: %s (p=%.3f, inference %.3fs)\n"
            (Cdcl.Policy.name s.Core.Selector.policy)
            s.Core.Selector.probability s.Core.Selector.inference_seconds
        | None ->
          print_endline "c adaptive selection: none (solved before the first reduce)");
        (result, stats)
      end
      else begin
        let solver = Cdcl.Solver.create ~config formula in
        let log =
          match proof with
          | None -> None
          | Some _ ->
            let log = Cdcl.Drup.create () in
            Cdcl.Drup.attach log solver;
            Some log
        in
        let result = Cdcl.Solver.solve solver in
        (match (log, result) with
        | Some log, Cdcl.Solver.Unsat ->
          let path = Option.get proof in
          Cdcl.Drup.conclude_unsat log;
          Cdcl.Drup.write_file path log;
          Printf.printf "c DRUP proof (%d lines) written to %s\n"
            (Cdcl.Drup.num_lines log) path
        | Some _, (Cdcl.Solver.Sat _ | Cdcl.Solver.Unknown) ->
          prerr_endline "c no proof emitted (instance not proved UNSAT)"
        | None, _ -> ());
        (result, Cdcl.Solver_stats.copy (Cdcl.Solver.stats solver))
      end
    in
    if verbose then Format.printf "c stats:@.%a@." Cdcl.Solver_stats.pp stats;
    (match result with
    | Cdcl.Solver.Sat model ->
      let model =
        match preprocessing with
        | None -> model
        | Some r -> Cnf.Simplify.extend_model r model
      in
      assert (Cdcl.Solver.check_model original model);
      print_endline "s SATISFIABLE";
      let buf = Buffer.create 256 in
      Buffer.add_string buf "v";
      for v = 1 to Cnf.Formula.num_vars original do
        Buffer.add_string buf (Printf.sprintf " %d" (if model.(v) then v else -v))
      done;
      Buffer.add_string buf " 0";
      print_endline (Buffer.contents buf);
      10
    | Cdcl.Solver.Unsat ->
      print_endline "s UNSATISFIABLE";
      20
    | Cdcl.Solver.Unknown ->
      print_endline "s UNKNOWN";
      0)

let run files policy_str adaptive checkpoint proof simplify inprocess
    max_conflicts max_propagations jobs mem_limit_mb isolate metrics verbose =
  Obs.Trace.install_from_env ();
  (* The solve paths below leave through [exit]; at_exit keeps the
     metrics dump on every one of them. *)
  (match metrics with
  | Some path -> at_exit (fun () -> Obs.Report.write path)
  | None -> ());
  if (not adaptive) && Cdcl.Policy.of_string policy_str = None then begin
    prerr_endline ("unknown policy: " ^ policy_str);
    exit 2
  end;
  if proof <> None && List.length files > 1 then begin
    prerr_endline "--proof is only meaningful with a single FILE";
    exit 2
  end;
  let solve file () =
    solve_one file policy_str adaptive checkpoint proof simplify inprocess
      max_conflicts max_propagations verbose
  in
  let limits = { Runtime.Supervisor.default_limits with mem_limit_mb } in
  let supervised = isolate || mem_limit_mb <> None || jobs > 1 in
  match files with
  | [ file ] when not supervised -> exit (solve file ())
  | [ file ] -> (
    (* One supervised worker: its natural exit code is the verdict. *)
    match
      Runtime.Supervisor.run ~label:file limits (fun () ->
          Ok (string_of_int (solve file ())))
    with
    | Runtime.Supervisor.Completed (Ok code) ->
      exit (int_of_string code)
    | v ->
      Printf.eprintf "c %s: %s\n%!" file (Runtime.Supervisor.verdict_to_string v);
      exit 1)
  | files ->
    Runtime.Shutdown.install ();
    let failed = ref 0 in
    let on_complete (c : Runtime.Pool.completion) =
      match c.Runtime.Pool.outcome with
      | Runtime.Pool.Done code ->
        Printf.printf "c %s: exit %s\n%!" c.Runtime.Pool.id code
      | Runtime.Pool.Failed msg ->
        incr failed;
        Printf.printf "c %s: FAILED (%s)\n%!" c.Runtime.Pool.id msg
      | Runtime.Pool.Shed ->
        incr failed;
        Printf.printf "c %s: SHED\n%!" c.Runtime.Pool.id
    in
    let batch =
      Runtime.Pool.run_list ~jobs ~limits ~on_complete
        (List.map
           (fun f -> (f, fun () -> Ok (string_of_int (solve f ()))))
           files)
    in
    List.iter
      (fun f -> Printf.printf "c %s: not run (interrupted)\n" f)
      batch.Runtime.Pool.not_run;
    if Runtime.Shutdown.requested () then exit (Runtime.Shutdown.exit_code ());
    exit (if !failed > 0 then 1 else 0)

open Cmdliner

let files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.cnf"
         ~doc:"DIMACS inputs; several files solve as a supervised pool.")

let policy =
  Arg.(value & opt string "default" & info [ "policy"; "p" ] ~docv:"POLICY"
         ~doc:"Deletion policy: default, frequency[:alpha], glue, size, activity, random[:seed].")

let adaptive =
  Arg.(value & flag & info [ "adaptive" ] ~doc:"Select the policy with the NeuroSelect model.")

let checkpoint =
  Arg.(value & opt (some file) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Model checkpoint for --adaptive.")

let proof =
  Arg.(value & opt (some string) None & info [ "proof" ] ~docv:"FILE"
         ~doc:"Write a DRUP unsatisfiability proof to FILE (non-adaptive runs).")

let simplify_flag =
  Arg.(value & flag & info [ "simplify" ]
         ~doc:"Preprocess (unit propagation, pure literals, subsumption) before solving.")

let inprocess =
  Arg.(value & opt ~vopt:(Some 4) (some int) None & info [ "inprocess" ]
         ~docv:"INTERVAL"
         ~doc:"Enable arena inprocessing (tiered clause DB, clause \
               vivification, backward subsumption) with a pass every \
               INTERVAL restarts (default 4). Proofs emitted with --proof \
               remain DRUP-checkable.")

let max_conflicts =
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N")

let max_propagations =
  Arg.(value & opt (some int) None & info [ "max-propagations" ] ~docv:"N")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Solve N files in parallel, each in a supervised worker process.")

let mem_limit_mb =
  Arg.(value & opt (some int) None & info [ "mem-limit-mb" ] ~docv:"MB"
         ~doc:"Address-space cap for each solver worker (implies --isolate).")

let isolate =
  Arg.(value & flag & info [ "isolate" ]
         ~doc:"Fork the solve into a supervised worker process (resource \
               limits, heartbeat watchdog) instead of running in-process.")

let metrics =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Dump an ns.metrics/1 JSON snapshot of all solver/selector \
               counters to FILE on exit.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ])

let cmd =
  let doc = "solve a DIMACS CNF with the camlsat CDCL solver" in
  Cmd.v
    (Cmd.info "ns-solve" ~doc)
    Term.(
      const run $ files $ policy $ adaptive $ checkpoint $ proof $ simplify_flag
      $ inprocess $ max_conflicts $ max_propagations $ jobs $ mem_limit_mb
      $ isolate $ metrics $ verbose)

let () = exit (Cmd.eval cmd)
