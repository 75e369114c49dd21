(* Durable session table: WAL-before-execute, replay-on-open.

   Op ordering inside [apply] is the whole durability story:

     1. dedup-cache lookup  (client retry -> cached reply, no re-execute)
     2. cheap validation    (unknown sid, table cap -> no WAL traffic)
     3. WAL append + fsync  (fails -> error reply, state untouched)
     4. execute on the in-memory solver
     5. cache the reply under the idempotency key and the request
     6. maybe snapshot      (failure tolerated: segments carry durability)

   Logging the *operation* (not its result) before executing keeps
   crash-recovery trivial: replay just re-executes the ops in LSN order
   on the deterministic solver, which also regenerates the dedup
   cache's replies. A crash between append and ack re-executes the op
   on recovery while the client never saw an ack — its retry hits the
   rebuilt dedup cache and is answered exactly once. *)

module Journal = Runtime.Journal
module Wal = Runtime.Wal
module Error = Runtime.Error

(* --- wire helpers (shared with Server) ---------------------------------- *)

(* Clause / assumption strings may arrive with embedded newlines or
   tabs (legal through the wire protocol's JSON escapes); normalising
   them to single spaces gives every consumer — the solver parser, WAL
   records, snapshot fields — one canonical form. *)
let normalize_ws s =
  String.map (function ' ' | '\t' | '\n' | '\r' -> ' ' | c -> c) s

let tokens s =
  String.split_on_char ' ' (normalize_ws s) |> List.filter (fun tok -> tok <> "")

let lits_of_string s =
  String.split_on_char ' ' (String.trim (normalize_ws s))
  |> List.filter_map (fun tok ->
         match int_of_string_opt (String.trim tok) with
         | None | Some 0 -> None
         | Some d -> Some (Cnf.Lit.of_dimacs d))

let model_to_string m =
  let b = Buffer.create 64 in
  for v = 1 to Array.length m - 1 do
    if v > 1 then Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int (if m.(v) then v else -v))
  done;
  Buffer.contents b

let verdict_name = function
  | Cdcl.Solver.Sat _ -> "sat"
  | Cdcl.Solver.Unsat -> "unsat"
  | Cdcl.Solver.Unknown -> "unknown"

(* --- types -------------------------------------------------------------- *)

type op =
  | New of int
  | New_var
  | Add of string
  | Solve of string
  | Close
  | Evict

type config = {
  wal_dir : string option;
  snapshot_every : int;
  max_sessions : int;
  session_ttl : float;
}

let default_config =
  { wal_dir = None; snapshot_every = 256; max_sessions = 1024; session_ttl = 0.0 }

(* Idempotency keys retained in the dedup cache (FIFO). *)
let dedup_cap = 4096

type recovery_stats = {
  sessions : int;
  replayed : int;
  from_snapshot : bool;
  truncated_bytes : int;
  corrupt_snapshots : int;
  restore_errors : int;
}

type session = {
  solver : Cdcl.Solver.t;
  mutable clauses : string list; (* newest first *)
  mutable clause_count : int;
  mutable last_used : float;
}

type t = {
  cfg : config;
  sessions : (string, session) Hashtbl.t;
  dedup : (string, Journal.record) Hashtbl.t;
  dedup_order : string Queue.t;
  wal : Wal.t option;
  mutable replaying : bool;
  mutable appends_since_snapshot : int;
  mutable snapshot_failures : int;
  mutable evictions : int;
}

type outcome = {
  reply : (Journal.record, string) result;
  replayed : bool;
}

(* --- op <-> WAL record -------------------------------------------------- *)

let op_to_record ?key ~sid op =
  let base =
    match op with
    | New vars -> [ ("sop", Journal.String "new"); ("vars", Journal.Int vars) ]
    | New_var -> [ ("sop", Journal.String "new_var") ]
    | Add clause ->
      [ ("sop", Journal.String "add"); ("clause", Journal.String clause) ]
    | Solve assumptions ->
      [
        ("sop", Journal.String "solve");
        ("assumptions", Journal.String assumptions);
      ]
    | Close -> [ ("sop", Journal.String "close") ]
    | Evict -> [ ("sop", Journal.String "evict") ]
  in
  base
  @ [ ("sid", Journal.String sid) ]
  @ match key with Some k -> [ ("key", Journal.String k) ] | None -> []

let op_of_record fields =
  match Journal.find_string fields "sop" with
  | Some "new" ->
    Some (New (Option.value (Journal.find_int fields "vars") ~default:0))
  | Some "new_var" -> Some New_var
  | Some "add" ->
    Some (Add (Option.value (Journal.find_string fields "clause") ~default:""))
  | Some "solve" ->
    Some
      (Solve
         (Option.value (Journal.find_string fields "assumptions") ~default:""))
  | Some "close" -> Some Close
  | Some "evict" -> Some Evict
  | _ -> None

(* --- dedup cache -------------------------------------------------------- *)

(* A reply is cached under the client's key plus a CRC-32 of the
   request it answered: the sid (length-prefixed), the op and its
   whitespace-separated tokens. A retry that differs only in spacing
   still replays; the same key on another session, op or clause runs
   as a new op. WAL records keep the bare key, and replay rebuilds
   these composite keys from the logged ops. *)
let dedup_key key ~sid op =
  let name, args =
    match op with
    | New vars -> ("new", [ string_of_int vars ])
    | New_var -> ("new_var", [])
    | Add clause -> ("add", tokens clause)
    | Solve assumptions -> ("solve", tokens assumptions)
    | Close -> ("close", [])
    | Evict -> ("evict", [])
  in
  let request =
    String.concat " " (string_of_int (String.length sid) :: sid :: name :: args)
  in
  key ^ "#" ^ Runtime.Crc32.to_hex (Runtime.Crc32.string request)

let cache_reply t key record =
  if not (Hashtbl.mem t.dedup key) then begin
    Hashtbl.replace t.dedup key record;
    Queue.push key t.dedup_order;
    while Queue.length t.dedup_order > dedup_cap do
      let old = Queue.pop t.dedup_order in
      Hashtbl.remove t.dedup old
    done
  end

(* --- execution ---------------------------------------------------------- *)

let fresh_session vars =
  {
    solver = Cdcl.Solver.create (Cnf.Formula.create ~num_vars:vars [||]);
    clauses = [];
    clause_count = 0;
    last_used = Unix.gettimeofday ();
  }

(* Auto-introduce the variables the clause mentions, then add it.
   Shared by live Adds and snapshot restore so both accept exactly the
   same inputs — restore must never be stricter than the path that
   acked the clause. *)
let add_clause_to_session s clause =
  let lits = lits_of_string clause in
  List.iter
    (fun l ->
      while Cnf.Lit.var l > Cdcl.Solver.num_vars s.solver do
        ignore (Cdcl.Solver.new_var s.solver)
      done)
    lits;
  Cdcl.Solver.add_clause s.solver lits;
  s.clauses <- clause :: s.clauses;
  s.clause_count <- s.clause_count + 1

let execute t ~sid op : (Journal.record, string) result =
  let with_session f =
    match Hashtbl.find_opt t.sessions sid with
    | None -> Error (Printf.sprintf "session: unknown sid %s" sid)
    | Some s ->
      s.last_used <- Unix.gettimeofday ();
      f s
  in
  let protected f =
    match Error.protect ~context:"session-store" f with
    | Ok r -> Ok r
    | Error e -> Error (Error.to_string e)
  in
  match op with
  | New vars ->
    Hashtbl.replace t.sessions sid (fresh_session (max 0 vars));
    Ok [ ("sid", Journal.String sid) ]
  | Close | Evict ->
    Hashtbl.remove t.sessions sid;
    Ok []
  | New_var ->
    with_session (fun s ->
        protected (fun () ->
            [ ("var", Journal.Int (Cdcl.Solver.new_var s.solver)) ]))
  | Add clause ->
    with_session (fun s ->
        protected (fun () ->
            add_clause_to_session s clause;
            [ ("vars", Journal.Int (Cdcl.Solver.num_vars s.solver)) ]))
  | Solve assumptions ->
    with_session (fun s ->
        (* Unlike Add, assumptions never introduce variables: an
           out-of-range literal is a client error, answered cleanly
           instead of leaking a solver exception. *)
        let lits = lits_of_string assumptions in
        match
          List.find_opt
            (fun l -> Cnf.Lit.var l > Cdcl.Solver.num_vars s.solver)
            lits
        with
        | Some l ->
          Error
            (Printf.sprintf "solve: assumption %d names an unknown variable"
               (Cnf.Lit.to_dimacs l))
        | None ->
        protected (fun () ->
            let result =
              if lits = [] then Cdcl.Solver.solve s.solver
              else Cdcl.Solver.solve_with_assumptions s.solver lits
            in
            let core =
              match Cdcl.Solver.unsat_core s.solver with
              | None -> Journal.Null
              | Some core ->
                Journal.String
                  (String.concat " "
                     (List.map
                        (fun l -> string_of_int (Cnf.Lit.to_dimacs l))
                        core))
            in
            [
              ("verdict", Journal.String (verdict_name result));
              ( "model",
                match result with
                | Cdcl.Solver.Sat m -> Journal.String (model_to_string m)
                | _ -> Journal.Null );
              ("core", core);
            ]))

(* --- snapshots ---------------------------------------------------------- *)

(* The snapshot payload, one line per piece: a line per session, then a
   line per dedup entry, oldest first, joined by newlines. The lines go
   to [emit] one at a time, so the payload (about half a megabyte at
   e2e's steady state) is never built whole. *)
let emit_snapshot t emit =
  let first = ref true in
  let line record =
    if not !first then emit "\n";
    first := false;
    emit (Journal.encode record)
  in
  Hashtbl.iter
    (fun sid s ->
      (* One Journal field per clause ("c0".."cN-1" plus the count):
         joining the clause strings with a separator would be ambiguous
         for any clause that itself contains the separator, and a
         restore that mis-splits silently diverges from the acked
         state. *)
      let clauses = List.rev s.clauses in
      line
        ([
           ("k", Journal.String "sess");
           ("sid", Journal.String sid);
           ("vars", Journal.Int (Cdcl.Solver.num_vars s.solver));
           ("n", Journal.Int (List.length clauses));
         ]
        @ List.mapi
            (fun i c -> (Printf.sprintf "c%d" i, Journal.String c))
            clauses))
    t.sessions;
  Queue.iter
    (fun key ->
      match Hashtbl.find_opt t.dedup key with
      | None -> ()
      | Some record ->
        line
          [
            ("k", Journal.String "dedup");
            ("key", Journal.String key);
            ("resp", Journal.String (Journal.encode record));
          ])
    t.dedup_order

let snapshot_now t =
  match t.wal with
  | None -> Ok ()
  | Some wal -> (
    match Wal.snapshot wal (emit_snapshot t) with
    | Ok () ->
      t.appends_since_snapshot <- 0;
      Ok ()
    | Error e -> Error e)

let maybe_snapshot t =
  if
    t.cfg.snapshot_every > 0
    && t.appends_since_snapshot >= t.cfg.snapshot_every
  then
    match snapshot_now t with
    | Ok () -> ()
    | Error _ ->
      (* The op that triggered us is already durable in the segments;
         a failed snapshot only defers compaction. *)
      t.snapshot_failures <- t.snapshot_failures + 1;
      t.appends_since_snapshot <- 0

(* Rebuild sessions and the dedup cache from a snapshot payload.
   Returns the number of entries that could not be restored: a CRC
   guards the payload, but a malformed entry must degrade to one lost
   session — never an exception out of [create] that would crash-loop
   the server on every restart. *)
let restore_from_snapshot t payload =
  let failures = ref 0 in
  String.split_on_char '\n' payload
  |> List.iter (fun line ->
         (* Clause strings are JSON-escaped fields, so raw newlines
            only ever separate records. *)
         match Journal.parse_line line with
         | None -> if String.trim line <> "" then incr failures
         | Some fields -> (
           match Journal.find_string fields "k" with
           | Some "sess" -> (
             let sid =
               Option.value (Journal.find_string fields "sid") ~default:"?"
             in
             let vars =
               Option.value (Journal.find_int fields "vars") ~default:0
             in
             let n = Option.value (Journal.find_int fields "n") ~default:0 in
             match
               Error.protect ~context:"session-restore" (fun () ->
                   let s = fresh_session vars in
                   for i = 0 to n - 1 do
                     match
                       Journal.find_string fields (Printf.sprintf "c%d" i)
                     with
                     | Some clause -> add_clause_to_session s clause
                     | None -> ()
                   done;
                   s)
             with
             | Ok s -> Hashtbl.replace t.sessions sid s
             | Error _ ->
               incr failures;
               Hashtbl.remove t.sessions sid)
           | Some "dedup" -> (
             match
               ( Journal.find_string fields "key",
                 Journal.find_string fields "resp" )
             with
             | Some key, Some resp -> (
               match Journal.parse_line resp with
               | Some record -> cache_reply t key record
               | None -> incr failures)
             | _ -> incr failures)
           | _ -> incr failures));
  !failures

(* --- apply -------------------------------------------------------------- *)

let log_op t ?key ~sid op =
  match t.wal with
  | None -> Ok ()
  | Some _ when t.replaying -> Ok ()
  | Some wal -> (
    match Wal.append wal (Journal.encode (op_to_record ?key ~sid op)) with
    | Ok _ ->
      t.appends_since_snapshot <- t.appends_since_snapshot + 1;
      Ok ()
    | Error e -> Error e)

let apply t ?key ~sid op =
  (* Canonicalise embedded whitespace before anything is logged or
     cached, so WAL records, snapshots, and the live solver all see
     the same clause text (replay re-normalises identically). *)
  let op =
    match op with
    | Add clause -> Add (normalize_ws clause)
    | Solve assumptions -> Solve (normalize_ws assumptions)
    | (New _ | New_var | Close | Evict) as op -> op
  in
  let cache_key = Option.map (fun k -> dedup_key k ~sid op) key in
  match cache_key with
  | Some k when Hashtbl.mem t.dedup k ->
    { reply = Ok (Hashtbl.find t.dedup k); replayed = true }
  | _ -> (
    (* Cheap validation before any WAL traffic. *)
    let table_full =
      match op with
      | New _ ->
        t.cfg.max_sessions > 0
        && (not (Hashtbl.mem t.sessions sid))
        && Hashtbl.length t.sessions >= t.cfg.max_sessions
      | _ -> false
    in
    if table_full then
      {
        reply =
          Error
            (Printf.sprintf "session: table full (%d sessions, cap %d)"
               (Hashtbl.length t.sessions) t.cfg.max_sessions);
        replayed = false;
      }
    else
      match op with
      | (Close | Evict) when not (Hashtbl.mem t.sessions sid) ->
        (* Tolerant close: nothing to tear down, nothing to log. *)
        { reply = Ok []; replayed = false }
      | (New_var | Add _ | Solve _) when not (Hashtbl.mem t.sessions sid) ->
        {
          reply = Error (Printf.sprintf "session: unknown sid %s" sid);
          replayed = false;
        }
      | _ -> (
        match log_op t ?key ~sid op with
        | Error e ->
          (* Not durable -> not acked -> state untouched. The client's
             retry (same key) starts the sequence over. *)
          { reply = Error ("wal: " ^ Error.to_string e); replayed = false }
        | Ok () ->
          let reply = execute t ~sid op in
          (match (cache_key, reply) with
          | Some k, Ok record -> cache_reply t k record
          | _ -> ());
          if not t.replaying then maybe_snapshot t;
          { reply; replayed = false }))

(* --- construction / recovery ------------------------------------------- *)

let replay_records t records =
  t.replaying <- true;
  let n = ref 0 in
  List.iter
    (fun (_lsn, payload) ->
      match Journal.parse_line payload with
      | None -> ()
      | Some fields -> (
        match op_of_record fields with
        | None -> ()
        | Some op ->
          incr n;
          let sid =
            Option.value (Journal.find_string fields "sid") ~default:"s0"
          in
          let key = Journal.find_string fields "key" in
          ignore (apply t ?key ~sid op)))
    records;
  t.replaying <- false;
  !n

let create cfg =
  let make wal =
    {
      cfg;
      sessions = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      dedup_order = Queue.create ();
      wal;
      replaying = false;
      appends_since_snapshot = 0;
      snapshot_failures = 0;
      evictions = 0;
    }
  in
  match cfg.wal_dir with
  | None ->
    Ok
      ( make None,
        {
          sessions = 0;
          replayed = 0;
          from_snapshot = false;
          truncated_bytes = 0;
          corrupt_snapshots = 0;
          restore_errors = 0;
        } )
  | Some dir -> (
    match Wal.open_dir dir with
    | Error e -> Error e
    | Ok (wal, recovery) ->
      let t = make (Some wal) in
      let restore_errors =
        match recovery.Wal.snapshot with
        | Some (_, payload) -> restore_from_snapshot t payload
        | None -> 0
      in
      let replayed = replay_records t recovery.Wal.records in
      Ok
        ( t,
          {
            sessions = Hashtbl.length t.sessions;
            replayed;
            from_snapshot = recovery.Wal.snapshot <> None;
            truncated_bytes = recovery.Wal.truncated_bytes;
            corrupt_snapshots = recovery.Wal.corrupt_snapshots;
            restore_errors;
          } ))

(* --- queries + maintenance ---------------------------------------------- *)

let info t sid =
  match Hashtbl.find_opt t.sessions sid with
  | None -> None
  | Some s -> Some (Cdcl.Solver.num_vars s.solver, s.clause_count)

let session_count t = Hashtbl.length t.sessions

let evict_idle t =
  if t.cfg.session_ttl <= 0.0 then 0
  else begin
    let now = Unix.gettimeofday () in
    let idle =
      Hashtbl.fold
        (fun sid s acc ->
          if now -. s.last_used > t.cfg.session_ttl then sid :: acc else acc)
        t.sessions []
    in
    List.iter (fun sid -> ignore (apply t ~sid Evict)) idle;
    t.evictions <- t.evictions + List.length idle;
    List.length idle
  end

let evictions t = t.evictions
let snapshot_failures t = t.snapshot_failures

let close t = match t.wal with None -> () | Some wal -> Wal.close wal
