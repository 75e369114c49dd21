(** Deterministic, seeded fault injection.

    Recovery code that is never executed is recovery code that does not
    work. Each fragile site in the runtime asks [fires point] at the
    moment it could fail; when the process-wide injector is armed for
    that point the site misbehaves in a controlled way (tears a write,
    poisons a gradient, raises from inference, crashes an instance).
    Disarmed — the default — every query is false and costs one branch.

    Firing is deterministic in the arming seed, so every fault scenario
    replays exactly. *)

type point =
  | Torn_checkpoint_write
      (** Checkpoint.save writes a truncated file directly to the
          destination, simulating power loss without atomic rename. *)
  | Checkpoint_bit_flip
      (** Checkpoint.save flips one payload byte after checksumming. *)
  | Poisoned_gradient
      (** Train.fit receives a NaN gradient after backward. *)
  | Inference_failure
      (** Selector's model call raises. *)
  | Instance_crash
      (** Runner's protected solve raises before solving. *)
  | Worker_crash
      (** Supervisor's forked worker SIGKILLs itself mid-solve. The
          decision is taken in the parent before the fork so the
          deterministic stream and limit counters live in one
          process. *)
  | Worker_hang
      (** Supervisor's forked worker stops heartbeating and sleeps —
          the watchdog must detect and reap it. Decided pre-fork like
          {!Worker_crash}. *)
  | Reap_delay
      (** Supervisor's [service] sleeps 0.2 s between draining a
          worker's result pipe and reaping it, so a worker that
          finishes in that window exits before the reap. The reap
          must still collect its result. *)
  | Inprocess_abort
      (** The solver's inprocessing pass raises mid-vivification,
          simulating a crash during in-place clause surgery. The
          partially emitted DRUP prefix must stay checkable and a fresh
          solve must recover. *)
  | Wal_torn_append
      (** Wal.append writes only a prefix of the framed record and then
          raises, simulating a crash (or full disk) mid-write. Recovery
          must truncate the torn tail and keep the exact durable
          prefix; the handle is poisoned against further appends. *)
  | Wal_crash_before_fsync
      (** Wal.append writes the complete record but raises before the
          fsync, simulating a crash in the window where the record may
          or may not survive. The caller must not ack the op; a client
          retry with the same idempotency key must be exactly-once
          whether or not the record made it to disk. *)
  | Wal_snapshot_crash
      (** Wal.snapshot writes a torn snapshot file straight to its
          destination (no atomic rename) and raises, simulating a crash
          mid-compaction. Recovery must reject the corrupt snapshot and
          fall back to an older one plus segment replay. *)

val all : point list
val name : point -> string
val of_name : string -> point option

val arm : seed:int -> ?rate:float -> ?limit:int -> point list -> unit
(** Arm the injector for the given points. [rate] (default 1.0) is the
    per-query firing probability; [limit] (default unlimited) caps the
    number of fires per point. Re-arming replaces the previous state. *)

val disarm : unit -> unit
(** Return to the fault-free default. *)

val armed : point -> bool
(** Whether the injector is armed for this point (regardless of rate
    or remaining budget). *)

val fires : point -> bool
(** Ask whether the fault fires now; advances the point's deterministic
    stream and consumes one unit of its limit when it does. *)

val fired_count : point -> int
(** How many times the point has fired since arming. *)
