(* ns-train: generate the synthetic dataset, label it by dual-policy
   solving, train the NeuroSelect model, and write a checkpoint.

   Fault-tolerant: every epoch ends with an atomic checkpoint write that
   records how many epochs are complete, so a killed run restarts from
   there with --resume (the dataset and shuffles are deterministic in
   the seed, so the resumed run retraces the interrupted one). *)

let run seed per_year budget epochs lr out resume checkpoint_every metrics
    quiet =
  Obs.Trace.install_from_env ();
  (match metrics with
  | Some path -> at_exit (fun () -> Obs.Report.write path)
  | None -> ());
  (* SIGINT/SIGTERM are polled at each epoch boundary: the current
     weights are flushed so --resume picks up exactly where the signal
     landed, then we exit non-zero. *)
  Runtime.Shutdown.install ();
  let log fmt =
    Printf.ksprintf (fun s -> if not quiet then print_endline s) fmt
  in
  let model = Core.Model.create Core.Model.paper_config in
  (* Resume at the epoch count of whichever copy loads: the primary, or
     the .bak last-good copy when the primary is corrupt. *)
  let start_epoch =
    if not resume then 0
    else
      match Core.Model.load_result out model with
      | Ok (Nn.Checkpoint.Primary, completed) ->
        log "resuming from %s at epoch %d" out completed;
        completed
      | Ok (Nn.Checkpoint.Backup, completed) ->
        log "primary checkpoint corrupt; resuming from %s at epoch %d"
          (Nn.Checkpoint.backup_path out)
          completed;
        completed
      | Error e ->
        log "cannot resume (%s); starting from epoch 0"
          (Runtime.Error.to_string e);
        0
  in
  if start_epoch >= epochs then begin
    log "training already complete (%d epochs recorded in %s)" start_epoch out;
    exit 0
  end;
  log "generating + labelling dataset (seed %d, %d per year) ..." seed per_year;
  let progress s = if not quiet then print_endline s in
  let data = Experiments.Data.prepare ~seed ~per_year ~budget ~progress () in
  log "train %d (%d positive), test %d (%d positive)"
    (List.length data.Experiments.Data.train)
    (Experiments.Data.positives data.Experiments.Data.train)
    (List.length data.Experiments.Data.test)
    (Experiments.Data.positives data.Experiments.Data.test);
  log "model parameters: %d" (Core.Model.num_parameters model);
  let train_progress ~epoch ~loss =
    if (not quiet) && epoch mod 5 = 0 then
      Printf.printf "epoch %3d  mean BCE %.4f\n%!" epoch loss
  in
  (* The last epoch is always on the schedule, so the loop's final
     save holds the trained weights. *)
  let on_epoch ~epoch ~loss:_ =
    let save () = Core.Model.save ~epochs:(epoch + 1) out model in
    if Runtime.Shutdown.requested () then begin
      (* Always flush on shutdown, even off the checkpoint schedule. *)
      save ();
      log "interrupted at epoch %d: checkpoint flushed to %s" epoch out;
      exit (Runtime.Shutdown.exit_code ())
    end;
    if (epoch + 1) mod checkpoint_every = 0 || epoch = epochs - 1 then save ()
  in
  let history =
    Core.Trainer.train ~epochs ~lr ~start_epoch ~on_epoch ~progress:train_progress
      model
      (Experiments.Data.examples data.Experiments.Data.train)
  in
  if history.Core.Trainer.skipped_steps > 0 then
    log "divergence guard: skipped %d step(s), %d learning-rate backoff(s)"
      history.Core.Trainer.skipped_steps history.Core.Trainer.lr_backoffs;
  let report split name =
    let r = Core.Trainer.evaluate model (Experiments.Data.examples split) in
    log "%s: %s" name (Format.asprintf "%a" Core.Metrics.pp_report r)
  in
  report data.Experiments.Data.train "train";
  report data.Experiments.Data.test "test ";
  log "checkpoint written to %s" out

open Cmdliner

let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED")
let per_year = Arg.(value & opt int 16 & info [ "per-year" ] ~docv:"N")
let budget = Arg.(value & opt int 800_000 & info [ "budget" ] ~docv:"PROPS")
let epochs = Arg.(value & opt int 60 & info [ "epochs" ] ~docv:"N")
let lr = Arg.(value & opt float 3e-3 & info [ "lr" ] ~docv:"LR")

let out =
  Arg.(value & opt string "neuroselect.ckpt" & info [ "out"; "o" ] ~docv:"FILE")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Restart from the completed epoch count stored in FILE, loading \
           FILE (or its .bak last-good copy when FILE is corrupt).")

let checkpoint_every =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Write the checkpoint every N epochs.")

let metrics =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump an ns.metrics/1 JSON snapshot (per-layer forward times, \
           backward/step times, gradient-clip events, labelling-solver \
           counters) to FILE on exit.")

let quiet = Arg.(value & flag & info [ "quiet"; "q" ])

let cmd =
  let doc = "train the NeuroSelect clause-deletion policy classifier" in
  Cmd.v
    (Cmd.info "ns-train" ~doc)
    Term.(
      const run $ seed $ per_year $ budget $ epochs $ lr $ out $ resume
      $ checkpoint_every $ metrics $ quiet)

let () = exit (Cmd.eval cmd)
