(** Crash-durable incremental solve sessions.

    The in-memory session table of ns-serve, made durable with a
    write-ahead log ({!Runtime.Wal}): every mutating operation is
    appended and fsynced to the WAL {e before} it is
    executed, so an acknowledged operation survives any crash. On
    {!create} the store rebuilds itself from the newest snapshot plus
    segment replay — replayed operations re-execute on the
    deterministic solver, so a recovered session answers exactly like
    one that was never interrupted.

    One caveat scopes that equivalence: snapshots persist each
    session's clauses but not solver-internal search state (saved
    phases, activities, learned clauses). Replay from the log's
    genesis reproduces replies bit-for-bit; replay {e on top of a
    snapshot} regenerates post-snapshot replies on a
    fresh-with-clauses solver, so a keyed retry of such an op is
    answered with the same {e verdict} but possibly a different
    (equally valid) SAT model or unsat core. Replies cached before
    the snapshot are carried through it verbatim.

    Client retries are made exactly-once by an idempotency-key dedup
    cache: a request whose [key] was already executed for the same
    request (same sid, op and whitespace-separated tokens) returns the
    cached reply without touching the solver; the same key on any other
    request runs it as a new op. The cache is rebuilt during replay
    (replayed executions regenerate their replies) and carried through
    snapshots, so a retry straddling a crash still deduplicates.

    Sessions are bounded two ways: [max_sessions] caps the table
    (further [New] ops are refused), and [session_ttl] lets
    {!evict_idle} reclaim sessions idle longer than the TTL. Evictions
    are WAL-logged so a recovered server does not resurrect them. *)

type op =
  | New of int  (** Create (or replace) a session with N initial vars. *)
  | New_var  (** Introduce one fresh variable. *)
  | Add of string  (** Add a clause, DIMACS-style literals ("1 -2 0"). *)
  | Solve of string  (** Solve under assumption literals ("" = none). *)
  | Close  (** Client-requested teardown. *)
  | Evict  (** Internal TTL/cap eviction (still WAL-logged). *)

type config = {
  wal_dir : string option;  (** [None] = volatile sessions. *)
  snapshot_every : int;  (** WAL appends between snapshots; 0 = never. *)
  max_sessions : int;  (** 0 = unbounded. *)
  session_ttl : float;  (** Idle seconds before {!evict_idle} reclaims; 0 = never. *)
}

val default_config : config
(** Volatile, snapshot every 256 appends, 1024 sessions, TTL off. A
    WAL-backed store fsyncs every record, rotates 4 MiB segments and
    retains the 4096 newest idempotency keys. *)

type recovery_stats = {
  sessions : int;  (** Live sessions after recovery. *)
  replayed : int;  (** WAL records re-executed beyond the snapshot. *)
  from_snapshot : bool;
  truncated_bytes : int;  (** Torn-tail bytes discarded on open. *)
  corrupt_snapshots : int;
  restore_errors : int;
      (** Snapshot entries that failed to restore (each degrades to
          one lost session rather than a failed [create]). *)
}

type t

val create : config -> (t * recovery_stats, Runtime.Error.t) result
(** Open the store, running WAL recovery when [wal_dir] is set. *)

type outcome = {
  reply : (Runtime.Journal.record, string) result;
      (** Response fields to merge into the wire reply, or a
          client-facing error message. *)
  replayed : bool;  (** Served from the idempotency dedup cache. *)
}

val apply : t -> ?key:string -> sid:string -> op -> outcome
(** Execute one operation. Ordering guarantees the durability
    contract: dedup-cache lookup, cheap validation (unknown sid,
    session-table cap), WAL append + fsync, then execution. A WAL
    failure returns an error {e before} any state changes, so the
    client can retry with the same [key]. *)

val info : t -> string -> (int * int) option
(** [(num_vars, clauses added)] for a live session: what e2e and the
    tests compare against their shadow of the acked ops. Read-only,
    never logged. *)

val session_count : t -> int

val evict_idle : t -> int
(** Evict (and WAL-log) sessions idle longer than [session_ttl];
    returns how many. No-op when the TTL is 0. *)

val evictions : t -> int
(** Total TTL evictions since [create]. *)

val snapshot_failures : t -> int
(** Snapshot attempts that failed (the op that triggered them still
    succeeded — segments alone carry full durability). *)

val snapshot_now : t -> (unit, Runtime.Error.t) result
(** Force a snapshot + compaction immediately. *)

val close : t -> unit
(** Sync and close the WAL. The in-memory table remains usable but no
    longer durable; meant for process shutdown. *)

(** {1 Wire-format helpers} (shared with {!Server}) *)

val tokens : string -> string list
(** Whitespace-separated tokens; spaces, tabs, newlines and carriage
    returns all separate. *)

val lits_of_string : string -> Cnf.Lit.t list
(** Whitespace-separated DIMACS literals (newlines and tabs count as
    separators); zeros and junk tokens dropped. This tolerance keeps
    WAL replay total; {!Server} rejects malformed session input before
    it reaches {!apply}. *)

val model_to_string : bool array -> string
val verdict_name : Cdcl.Solver.result -> string
