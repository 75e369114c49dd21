(* ns-evaluate: load a trained checkpoint and reproduce the paper's
   evaluation on a freshly generated test year — classification metrics
   plus the Kissat vs NeuroSelect-Kissat runtime comparison.

   With --journal FILE each measured instance is persisted as one JSONL
   line; re-running the same command after an interruption skips the
   instances already measured. Per-instance crashes are isolated and
   retried once instead of aborting the campaign. *)

let run checkpoint seed per_year budget journal deadline jobs mem_limit_mb
    isolate metrics =
  Obs.Trace.install_from_env ();
  (match metrics with
  | Some path -> at_exit (fun () -> Obs.Report.write path)
  | None -> ());
  (* SIGINT/SIGTERM request a graceful drain: in-flight instances
     finish and are journaled (every append is fsynced), then we exit
     non-zero below. *)
  Runtime.Shutdown.install ();
  let model = Core.Model.create Core.Model.paper_config in
  (match checkpoint with
  | Some path -> (
    match Core.Model.load_result path model with
    | Ok (Nn.Checkpoint.Primary, _) -> ()
    | Ok (Nn.Checkpoint.Backup, _) ->
      Printf.eprintf "warning: %s corrupt, using %s\n%!" path
        (Nn.Checkpoint.backup_path path)
    | Error e ->
      Printf.eprintf
        "warning: cannot load %s (%s); evaluating untrained weights\n%!" path
        (Runtime.Error.to_string e))
  | None -> prerr_endline "warning: evaluating untrained weights");
  let progress s = print_endline s in
  let data = Experiments.Data.prepare ~seed ~per_year ~budget ~progress () in
  let test = data.Experiments.Data.test in
  let report = Core.Trainer.evaluate model (Experiments.Data.examples test) in
  Format.printf "classification on test year: %a@." Core.Metrics.pp_report report;
  let instances =
    List.map (fun l -> l.Experiments.Data.instance) test
  in
  let result =
    Experiments.Adaptive_eval.run ~progress ?journal
      ?deadline_seconds:deadline ~jobs ~isolate ?mem_limit_mb model
      data.Experiments.Data.simtime instances
  in
  Format.printf "%a@.@.%a@.@.%a@." Experiments.Adaptive_eval.print_table3 result
    Experiments.Adaptive_eval.print_fig7a result Experiments.Adaptive_eval.print_fig7b
    result;
  if Runtime.Shutdown.requested () then begin
    Printf.eprintf
      "interrupted: journal flushed, %d instance(s) not run; exiting\n%!"
      (List.length result.Experiments.Adaptive_eval.not_run);
    exit (Runtime.Shutdown.exit_code ())
  end;
  if result.Experiments.Adaptive_eval.failures <> [] then exit 2

open Cmdliner

let checkpoint =
  Arg.(value & opt (some file) None & info [ "checkpoint"; "c" ] ~docv:"FILE")

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED")
let per_year = Arg.(value & opt int 16 & info [ "per-year" ] ~docv:"N")
let budget = Arg.(value & opt int 800_000 & info [ "budget" ] ~docv:"PROPS")

let journal =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Persist each measured instance to FILE (JSONL) and resume an \
           interrupted campaign by skipping instances already present.")

let deadline =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per solver call, alongside the propagation \
           budget; expired solves count as unsolved.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Measure N instances in parallel, each in a supervised worker \
           process (implies isolation). Crashed or hung workers are \
           retried with backoff; SIGTERM drains in-flight work and exits \
           cleanly.")

let mem_limit_mb =
  Arg.(
    value & opt (some int) None
    & info [ "mem-limit-mb" ] ~docv:"MB"
        ~doc:
          "Address-space cap per worker process; an instance that blows \
           past it fails alone instead of taking the campaign down \
           (implies isolation).")

let isolate =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Run every instance in a forked worker process even with a \
           single job, so one runaway instance cannot crash the \
           campaign.")

let metrics =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump an ns.metrics/1 JSON snapshot (solver, selector, pool and \
           supervisor counters) to FILE on exit. Note: with --jobs/--isolate \
           the per-instance solver counters accrue in the worker processes, \
           so the parent snapshot only reflects in-process work.")

let cmd =
  let doc = "evaluate a trained NeuroSelect model against Kissat-default" in
  Cmd.v
    (Cmd.info "ns-evaluate" ~doc)
    Term.(
      const run $ checkpoint $ seed $ per_year $ budget $ journal $ deadline
      $ jobs $ mem_limit_mb $ isolate $ metrics)

let () = exit (Cmd.eval cmd)
