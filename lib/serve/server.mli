(** The ns-serve request handler and its event loop.

    Speaks a length-prefixed JSON protocol ({!Runtime.Frame}: decimal
    byte count, newline, one JSON object read and written through
    {!Runtime.Journal}, that is {!Obs.Json}). One-shot solves are multiplexed onto a {!Runtime.Pool} of
    supervised worker processes with per-request wall deadlines and
    RLIMIT_AS caps; a bounded queue sheds excess load with 429-style
    responses instead of building backlog, and crashed workers are
    retried with backoff. Incremental sessions run in-process through
    {!Session_store}.

    Requests (one JSON object per frame):
    {v
      {"op":"ping","id":..}
      {"op":"metrics","id":..}            server-level snapshot
      {"op":"solve","id":..,"dimacs":..,
       "deadline_s":..,"mem_mb":..}       pool-backed one-shot solve
      {"op":"session","id":..,
       "action":"new|add|new_var|solve|close|info",
       "sid":..,"vars":..,"clause":"1 -2 0","assumptions":"1 -2",
       "key":"client idempotency key"}
    v}

    A payload that is not one JSON object (bad syntax, a lone surrogate
    escape, nesting deeper than 512 levels, another top-level value)
    gets the error "malformed JSON frame" with an empty "id". Unknown
    fields are ignored, whatever their kind, and a known field of the
    wrong kind gets that field's error.

    An "add" needs a "clause" of decimal integers that ends in a single
    0 ("0" is the empty clause); "assumptions" are nonzero decimal
    integers. Other session input gets an error reply that names the
    bad token, if there is one, and nothing is logged or applied.
    Sessions are capped at {!max_session_vars} variables: a "vars", a
    clause literal or an assumption literal beyond it, and a "new_var"
    on a session already at it, get an error reply that names the
    field, before any WAL append or allocation.

    An absent "vars", "deadline_s" or "mem_mb" keeps its default (0
    variables, the server's [deadline] and [mem_mb]). A present "vars"
    must be an integer >= 0, "deadline_s" a finite number > 0 and
    "mem_mb" an integer > 0; any other value gets an error reply that
    names the field, before any WAL append, policy selection or fork.

    Responses echo "id" and carry "status" ("ok" | "error" | "shed" |
    "rejected") and "degraded", which is true exactly on the replies to
    a solve whose policy selection fell back to the default (the model
    failed on that request) and false on every other response. Solves
    add the verdict, model, solver statistics, attempt count and
    latency. With a [selector], the worker selects the policy at the
    solver's first reduce, and the reply adds "cache": "hit" or "miss"
    when a selection ran, with the chosen "policy", its "selection_ms"
    (fingerprint, lookup and any forward, timed in the worker) and,
    when the model decided, "probability"; "none" when the solve ended
    before its first reduce, with none of those three and "degraded"
    false. A session request whose "key" already executed returns the
    cached reply with "replayed":true. *)

type config = {
  jobs : int;  (** Concurrent solver workers. *)
  max_queue : int;  (** Waiting solves beyond this are shed. *)
  max_retries : int;  (** Extra attempts for crashed/hung/timed-out workers. *)
  deadline : float;  (** Default per-request wall deadline (s). *)
  mem_mb : int option;  (** Default per-worker RLIMIT_AS cap. *)
  journal : string option;  (** One JSONL record per finished request. *)
  selector : Core.Model.t option;
      (** Select each solve's deletion policy in its worker, at the
          solver's first reduce ({!Core.Selector.solve_adaptive}),
          through the decision cache the worker inherited at fork. The
          server never parses a request or runs a forward itself; it
          counts each worker's lookup and stores its decision in its
          own cache ({!Core.Selector.adopt}), which the next fork
          inherits. *)
  store : Session_store.config;
  verbose : bool;  (** Log to stderr. *)
}

val max_session_vars : int
(** 2{^16} = 65536: the most variables a session may declare or a
    session literal may name. A session's solver runs in the server
    process at about 310 bytes per declared variable, so the cap holds
    one session near 21.6 MB (2{^20} would be 323 MB). WAL replay does
    not apply it, so a log written before the cap still recovers. *)

type t

val create : config -> (t, Runtime.Error.t) result
(** Open the session store (WAL recovery is journaled as a "recovered"
    event) and the worker pool. *)

val log : t -> ('a, unit, string, unit) format4 -> 'a
(** A [c [serve]] line on stderr when [verbose]. *)

val handle : t -> reply:(Runtime.Journal.record -> unit) -> string -> unit
(** Answer one frame payload. [reply] is called exactly once per
    frame: at once, except for an accepted pool solve, which is
    answered from a later {!pump} or from {!drain}. *)

val pump : t -> unit
(** One non-blocking step: pool scheduling (answering solves whose
    worker has its verdict, reaping exited workers) and the idle-session
    sweep, which runs at most once a second. *)

val drain : t -> unit
(** Graceful stop: answer in-flight solves as they finish, answer
    queued ones [rejected] after a {!Runtime.Shutdown} request (without
    one the queue runs to completion), close the store and journal a
    "drained" event. Every later request is [rejected]. *)

val serve : t -> ?listener:Unix.file_descr -> (Unix.file_descr * Unix.file_descr) list -> unit
(** The select loop. It wakes on a client frame, a new connection or a
    worker's pipe, so a solve is answered as soon as its worker's
    result pipe reaches EOF; a 50 ms timeout paces the watchdog,
    deadlines, retry backoff and the idle sweep. The loop never blocks
    on [waitpid]; exited workers are reaped with [WNOHANG], and the
    {!drain} it ends with reaps the rest before it returns. Each client
    is an [(input, output)] pair: the given ones (the stdio pair) plus
    one socket per connection accepted on [listener]. Accepted sockets stay
    blocking with a fixed send timeout, so a reply goes out whole or
    its client is dropped; SIGPIPE is ignored, so a peer that stops
    reading costs only its own connection. EOF (or a malformed length
    prefix) on a client's input stops reading it; the replies it is
    owed still go out before it is closed. On a {!Runtime.Shutdown}
    request the loop closes [listener] and rejects what still arrives;
    on that, or once no listener and no reading client remain, it
    {!drain}s, closes every client and returns. *)
