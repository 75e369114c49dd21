(** Seeded fault-injection scenarios for the fault-tolerance layer.

    Each scenario arms {!Runtime.Fault} (or corrupts state by hand),
    drives the real recovery path, and asserts the documented outcome:
    a torn or bit-flipped checkpoint falls back to the [.bak] copy, a
    poisoned gradient is skipped with a learning-rate backoff, a
    failing inference degrades to the default policy, a crashing
    instance is retried, and a killed campaign resumes from its JSONL
    journal. The WAL scenarios cover the durable-session contract: a
    torn append truncates back to the exact durable prefix, a crash
    before fsync keeps keyed retries exactly-once, a crash
    mid-snapshot falls back to segment replay, and a recovered store
    answers a random op sequence identically to an uninterrupted
    oracle. Everything is deterministic in [seed], so a failure
    replays exactly. *)

type outcome = {
  scenario : string;
  passed : bool;
  detail : string;  (** What was observed (or what went wrong). *)
}

type report = {
  seed : int;
  outcomes : outcome list;
}

val run_all : ?dir:string -> seed:int -> unit -> report
(** Run every scenario. [dir] holds the scratch files and stays; by
    default a fresh directory in the temp directory holds them and is
    removed before returning. Always disarms fault injection before
    returning. *)

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
