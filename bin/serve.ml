(* ns-serve: long-lived incremental solve service. This binary parses
   flags, loads the --adaptive checkpoint and sets up the socket and
   pidfile; the wire protocol, the worker pool, the session store and
   the event loop live in Nserve.Server (see lib/serve/server.mli). *)

module Server = Nserve.Server
module Store = Nserve.Session_store

let load_selector checkpoint =
  let model = Core.Model.create Core.Model.paper_config in
  (match checkpoint with
  | Some path -> (
    match Core.Model.load_result path model with
    | Ok (Nn.Checkpoint.Primary, _) -> ()
    | Ok (Nn.Checkpoint.Backup, _) ->
      Printf.eprintf "ns-serve: %s corrupt, using %s\n%!" path
        (Nn.Checkpoint.backup_path path)
    | Error e ->
      Printf.eprintf
        "ns-serve: cannot load %s (%s); serving untrained weights\n%!" path
        (Runtime.Error.to_string e))
  | None -> ());
  model

let run socket stdio jobs max_queue max_retries deadline mem_mb journal pidfile
    wal snapshot_every max_sessions session_ttl adaptive checkpoint verbose =
  Runtime.Shutdown.install ();
  let store =
    { Store.wal_dir = wal; snapshot_every; max_sessions; session_ttl }
  in
  let selector = if adaptive then Some (load_selector checkpoint) else None in
  let config =
    {
      Server.jobs;
      max_queue;
      max_retries;
      deadline;
      mem_mb;
      journal;
      selector;
      store;
      verbose;
    }
  in
  match Server.create config with
  | Error e ->
    Printf.eprintf "ns-serve: wal recovery failed: %s\n%!"
      (Runtime.Error.to_string e);
    1
  | Ok srv when stdio ->
    Server.serve srv [ (Unix.stdin, Unix.stdout) ];
    0
  | Ok srv -> (
    let socket_path =
      match socket with
      | Some s -> s
      | None -> Filename.concat (Filename.get_temp_dir_name ()) "ns-serve.sock"
    in
    let pidfile =
      match pidfile with Some p -> p | None -> socket_path ^ ".pid"
    in
    match Runtime.Pidlock.acquire pidfile with
    | Error e ->
      Printf.eprintf "ns-serve: %s\n%!" (Runtime.Error.to_string e);
      1
    | Ok () ->
      if Runtime.Pidlock.sweep_socket socket_path then
        Server.log srv "swept stale socket %s" socket_path;
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lfd (Unix.ADDR_UNIX socket_path);
      Unix.listen lfd 64;
      Unix.set_nonblock lfd;
      Server.log srv "listening on %s (pidfile %s, %d jobs, queue %d)"
        socket_path pidfile jobs max_queue;
      (* The loop closes the listener when it starts draining. *)
      Fun.protect
        ~finally:(fun () ->
          ignore (Runtime.Pidlock.sweep_socket socket_path);
          Runtime.Pidlock.release pidfile)
        (fun () -> Server.serve srv ~listener:lfd []);
      0)

open Cmdliner

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (default \\$TMPDIR/ns-serve.sock).")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve a single client over stdin/stdout instead of a socket.")

let jobs =
  Arg.(
    value & opt int 2
    & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Concurrent solver workers.")

let max_queue =
  Arg.(
    value & opt int 8
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission-control bound: waiting solve requests beyond this are \
           shed with a status of \"shed\" instead of queued.")

let max_retries =
  Arg.(
    value & opt int 2
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Extra attempts for crashed/hung/timed-out workers.")

let deadline =
  Arg.(
    value & opt float 10.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request wall deadline; the solver returns \"unknown\" \
           at the budget, the supervisor kills runaways at 1.5x + 1s. \
           Requests may override with a deadline_s field.")

let mem_mb =
  Arg.(
    value
    & opt (some int) (Some 1024)
    & info [ "mem-mb" ] ~docv:"MB"
        ~doc:"Per-worker RLIMIT_AS cap; requests may override with mem_mb.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Append one JSONL record per finished request (fsynced).")

let pidfile =
  Arg.(
    value
    & opt (some string) None
    & info [ "pidfile" ] ~docv:"FILE"
        ~doc:
          "Single-instance pidfile (default SOCKET.pid). Stale files from \
           dead servers are swept on startup; a live owner refuses startup.")

let wal =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Write-ahead-log directory for durable sessions: every mutating \
           session op is logged and fsynced before it is acked, and startup \
           replays the log so acked ops survive a crash. Omit for volatile \
           in-memory sessions.")

let snapshot_every =
  Arg.(
    value & opt int 256
    & info [ "wal-snapshot-every" ] ~docv:"N"
        ~doc:
          "Write a snapshot (and compact old segments) every N WAL appends. \
           0 disables snapshots; replay then reads the full log.")

let max_sessions =
  Arg.(
    value & opt int 1024
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Cap on live incremental sessions; further \"new\" actions are \
           refused. 0 means unbounded.")

let session_ttl =
  Arg.(
    value & opt float 0.0
    & info [ "session-ttl" ] ~docv:"SECONDS"
        ~doc:
          "Evict sessions idle longer than this (sweep runs about once a \
           second; evictions are WAL-logged). 0 disables eviction.")

let adaptive =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Select the clause-deletion policy per solve request with the \
           NeuroSelect model. The solve worker selects at the solver's \
           first reduce, through the fingerprint-keyed decision cache it \
           inherited (repeated instances skip inference). Solve responses \
           gain a cache field: \"hit\" or \"miss\" when a selection ran, \
           with the chosen policy, selection_ms and, when the model \
           decided, probability; \"none\" when the solve ended before its \
           first reduce. Metrics responses report cache counters.")

let checkpoint =
  Arg.(
    value
    & opt (some file) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Trained model checkpoint for --adaptive (untrained weights \
           otherwise). Loading a checkpoint invalidates any cached \
           decisions.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ])

let cmd =
  let doc = "long-lived incremental SAT solve service" in
  Cmd.v
    (Cmd.info "ns-serve" ~doc)
    Term.(
      const run $ socket $ stdio $ jobs $ max_queue $ max_retries $ deadline
      $ mem_mb $ journal $ pidfile $ wal $ snapshot_every $ max_sessions
      $ session_ttl $ adaptive $ checkpoint $ verbose)

let () = exit (Cmd.eval' cmd)
