(** OS-level worker isolation for solver runs.

    [spawn] forks the given thunk into a worker process. The worker
    reports its result over a pipe (string payload, [Ok]/[Error]
    tagged); a second pipe carries heartbeats written from a SIGALRM
    interval timer, so even a worker deep in a compute loop keeps
    signalling liveness. The parent enforces:

    - an address-space cap installed via [setrlimit] in the child
      before user code runs, so a memory blow-up becomes the child's
      [Out_of_memory], not the campaign's;
    - a wall-clock deadline;
    - a heartbeat watchdog — silence longer than
      [hang_factor × heartbeat_interval] marks the worker hung.

    Deadline and watchdog violations escalate SIGTERM → (after
    [grace_seconds]) SIGKILL, and the worker is always reaped; a hung
    worker is never waited on forever. A worker that writes its result
    has its verdict at the result pipe's EOF, before its exit.

    Supervision reads the real clock directly, so it keeps working
    when {!Clock} runs a fake source for deterministic measurements.

    Fault injection: {!Fault.Worker_crash} and {!Fault.Worker_hang}
    are consulted in the parent at [spawn] (keeping the deterministic
    stream in one process) and executed by the child, driving the real
    kill and watchdog paths. {!Fault.Reap_delay} widens the window
    between draining a worker's result and reaping it, which the reap
    closes by draining the result pipe once more. *)

type limits = {
  mem_limit_mb : int option;  (** Worker address-space cap. *)
  deadline_seconds : float option;  (** Wall-clock budget per worker. *)
  heartbeat_interval : float;  (** Child heartbeat period (s). *)
  hang_factor : float;
      (** Silence beyond [hang_factor × heartbeat_interval] is a hang. *)
  grace_seconds : float;  (** SIGTERM → SIGKILL escalation delay. *)
}

val default_limits : limits
(** No memory cap, no deadline, 0.25 s heartbeats, hang factor 2,
    0.5 s grace. *)

type verdict =
  | Completed of (string, string) result
      (** The worker ran the thunk; [Error] carries an application
          error or the text of an exception (e.g. [Out_of_memory]
          under the RSS cap). *)
  | Exited of int  (** Died with an exit status and no result. *)
  | Signaled of int  (** Killed by a signal it did not expect. *)
  | Hung of float  (** Watchdog reaped it after this much silence. *)
  | Timed_out of float  (** Deadline reaped it after this long. *)

val verdict_to_string : verdict -> string

val retryable : verdict -> bool
(** Crashes, hangs and timeouts are worth retrying; completed results
    (even errors) are deterministic application outcomes and are not. *)

type t
(** A live (or reaped) worker. *)

val spawn : ?label:string -> limits -> (unit -> (string, string) result) -> t
val pid : t -> int
val label : t -> string

val wait_fds : t -> Unix.file_descr list
(** Descriptors a caller may [select] on while multiplexing workers:
    the result and heartbeat pipes, each until it reaches EOF, and none
    once the verdict is known. One turns readable when the worker
    heartbeats, writes its result or exits; call {!service} then. An
    empty list before the verdict means the worker has closed both
    pipes and only its exit status is awaited: select with a timeout. *)

val service : t -> verdict option
(** Non-blocking supervision step: drain pipes, run watchdog and
    deadline checks, escalate kills, reap with [WNOHANG]. [Some v] once
    the verdict is known (idempotent afterwards). A result payload
    decides it when its pipe reaches EOF, without waiting for the
    worker to exit: that worker is reaped later by {!reap} or
    {!await}. A watchdog or deadline kill, and a worker that closed
    its pipes without a payload (a crash), are decided at the reap. *)

val reap : t -> bool
(** Non-blocking: [waitpid] with [WNOHANG] on a worker whose verdict is
    known, [true] once it has been reaped. [false] while the verdict is
    unknown ({!service} reaps those). *)

val abort : t -> unit
(** Begin SIGTERM → SIGKILL shutdown of a running worker. *)

val await : t -> verdict
(** Block (with timely watchdog ticks) until the worker finishes and
    has been reaped. *)

val run : ?label:string -> limits -> (unit -> (string, string) result) -> verdict
(** [spawn] + [await]. *)
