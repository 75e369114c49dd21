(** Table 3 and Figure 7: Kissat vs NeuroSelect-Kissat.

    Every test instance is solved under the default policy ("Kissat")
    and under the model-selected policy ("NeuroSelect-Kissat", whose
    reported time includes the measured model-inference wall clock, as
    in the paper).

    The campaign is fault-tolerant: per-instance failures are isolated
    (with one retry) and recorded instead of aborting the sweep, a
    degraded model selection falls back to the default policy, and —
    when a [journal] path is given — each completed entry is persisted
    as one JSONL line so an interrupted campaign resumes by skipping
    instances already measured. *)

type entry = {
  name : string;
  family : string;
  kissat_seconds : float;
  kissat_solved : bool;
  adaptive_seconds : float;  (** Simulated solve time + inference time. *)
  adaptive_solved : bool;
  inference_seconds : float;
  chose_frequency : bool;
  probability : float;
  degraded : string option;
      (** Why the selector fell back to the default policy, if it did. *)
}

type failure = {
  instance : string;
  error : string;
}

type summary = {
  solved : int;
  median_seconds : float;
  average_seconds : float;
}

type t = {
  entries : entry list;
  kissat : summary;
  adaptive : summary;
  median_improvement_pct : float;
      (** (kissat median - adaptive median) / kissat median * 100. The
          paper's median falls 11.6% (307.02 -> 271.34 s); its 5.8% is
          the average's fall (713.28 -> 671.73 s). *)
  failures : failure list;
      (** Instances that crashed even after retry; excluded from the
          summaries. *)
  resumed : int;  (** Entries restored from the journal, not re-run. *)
  not_run : string list;
      (** Instances never started because the campaign was stopped
          (SIGINT/SIGTERM graceful drain). *)
}

val run :
  ?progress:(string -> unit) ->
  ?journal:string ->
  ?deadline_seconds:float ->
  ?jobs:int ->
  ?isolate:bool ->
  ?mem_limit_mb:int ->
  Core.Model.t ->
  Simtime.t ->
  Gen.Dataset.instance list ->
  t
(** [journal] enables JSONL partial-result persistence and resume.
    [deadline_seconds] adds a per-solve wall-clock budget alongside
    the propagation budget. The selector runs at
    {!Cdcl.Policy.default_alpha}, and a crashing instance is retried
    once ({!Runner.solve_protected}).

    Supervised execution: when [jobs] > 1, [isolate] is set, or
    [mem_limit_mb] is given, every instance is measured in a forked
    {!Runtime.Supervisor} worker — [jobs] in flight at once, each
    under the optional address-space cap, with no wall deadline of
    its own, heartbeat-watchdogged, with crashed/hung workers
    retried (backoff) before being recorded as failures. The campaign
    drains gracefully on SIGINT/SIGTERM: in-flight instances finish
    and are journaled, the rest are reported in [not_run]. Worker
    payloads are the exact journal lines, so a parallel campaign's
    journal is byte-equivalent to the sequential one modulo completion
    order. *)

val record_of_entry : entry -> Runtime.Journal.record
val entry_of_record : Runtime.Journal.record -> entry option

val print_table3 : Format.formatter -> t -> unit
val print_fig7a : Format.formatter -> t -> unit
(** Scatter rows: Kissat vs NeuroSelect-Kissat runtimes. *)

val print_fig7b : Format.formatter -> t -> unit
(** Box-whisker summaries of inference times and runtime improvements. *)
