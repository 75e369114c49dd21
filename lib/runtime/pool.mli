(** Supervised worker pool for parallel campaigns.

    Tasks run in {!Supervisor} worker processes, at most [jobs] in
    flight. Retryable verdicts (crash, hang, deadline) are re-queued
    with {!Backoff} delays up to [max_retries] extra attempts;
    completed results — including application errors — are final. The
    waiting queue is bounded: a [submit] beyond [max_queue] is shed
    (refused and recorded) instead of growing the backlog.

    Graceful drain: when [should_stop] turns true (by default, a
    {!Shutdown} signal), no further worker is launched; in-flight
    workers finish under their own limits, their results are delivered
    to [on_complete] as usual, and tasks that never ran are returned
    as [not_run]. *)

type outcome =
  | Done of string  (** Worker payload. *)
  | Failed of string  (** Application error, or gave up after retries. *)
  | Shed  (** Refused at submit: queue full. *)

type completion = {
  id : string;
  attempts : int;  (** Worker launches consumed (0 when shed). *)
  outcome : outcome;
}

type t

val create :
  ?jobs:int ->
  ?max_queue:int ->
  ?max_retries:int ->
  ?backoff:Backoff.t ->
  ?limits:Supervisor.limits ->
  ?should_stop:(unit -> bool) ->
  ?on_complete:(completion -> unit) ->
  unit ->
  t
(** Defaults: 2 jobs, queue bound [64 × jobs], 2 retries, seed-1
    backoff, {!Supervisor.default_limits}, stop on {!Shutdown}. *)

val submit :
  t ->
  ?limits:Supervisor.limits ->
  id:string ->
  (unit -> (string, string) result) ->
  [ `Accepted | `Shed ]
(** [?limits] overrides the pool-wide resource envelope for this task
    only (per-request deadlines and memory caps); retries keep the
    override. *)

val pump : t -> unit
(** One non-blocking scheduling step: reap, retry, launch. A worker's
    completion is delivered as soon as {!Supervisor.service} has its
    verdict; a worker answered from its result pipe is reaped by a
    later [pump] with [WNOHANG]. *)

val wait_fds : t -> Unix.file_descr list
(** The running workers' {!Supervisor.wait_fds}: a caller's [select]
    that includes them wakes when a worker heartbeats, answers or
    exits, and should {!pump} then. Workers awaiting only their exit
    status contribute none, so keep a timeout on the select. *)

val drain : t -> string list
(** Block until in-flight workers finish (no new launches beyond what
    the queue admits before a stop) and every worker has been reaped;
    returns the ids that never ran. Completions reach only
    [on_complete]: the pool keeps none. *)

val in_flight : t -> int
val queued : t -> int
val shed_count : t -> int

type batch = {
  completions : completion list;  (** In completion order. *)
  not_run : string list;  (** Drained before launch (graceful stop). *)
}

val run_list :
  ?jobs:int ->
  ?max_retries:int ->
  ?backoff:Backoff.t ->
  ?limits:Supervisor.limits ->
  ?should_stop:(unit -> bool) ->
  ?on_complete:(completion -> unit) ->
  (string * (unit -> (string, string) result)) list ->
  batch
(** Run a whole task list to completion (or graceful stop). The queue
    bound is sized to the list, so nothing is shed. *)
