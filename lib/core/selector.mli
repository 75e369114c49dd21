(** Adaptive policy selection — NeuroSelect-Kissat (Sec. 5.4).

    [select_policy] is the paper's step: one model inference on the
    CPU before solving picks the deletion policy, and the measured
    inference wall-clock (monotonized [gettimeofday], matching the
    paper's wall-clock accounting — not CPU time) is part of the
    adaptive solver's reported runtime. [solve_adaptive] defers that
    same selection to the solver's first reduce, the first point where
    the policy can act, so a solve that never reduces runs no
    inference.

    Inference is fallible in production: the checkpoint may be
    corrupt, the forward pass may overflow. [select_policy] never lets
    that abort a sweep — it degrades to the default deletion policy
    and records why in [degraded].

    A failure degrades only its own selection: it is not cached and
    leaves no other state behind, so a decision depends only on the
    model, the formula and [alpha], never on the clock or on earlier
    failures. The decision cache only replays the probability of an
    earlier selection of the same instance. *)

type degradation =
  | Model_failure of string
      (** The model raised (bad checkpoint, forward-pass failure). *)
  | Non_finite_probability of float
      (** The model returned NaN/Inf. *)

val pp_degradation : Format.formatter -> degradation -> unit
val degradation_to_string : degradation -> string

type selection = {
  policy : Cdcl.Policy.t;
  probability : float;
      (** Model output; > 0.5 selects frequency. NaN when degraded. *)
  inference_seconds : float;
      (** Wall-clock of the whole selection: the fingerprint and cache
          lookup when the cache is consulted, and the forward on a miss,
          failed attempts included. *)
  degraded : degradation option;
      (** [Some _] when the model was unusable and the default policy
          was substituted. *)
  cached : bool;
      (** Served from the fingerprint-keyed decision cache; no
          inference ran. *)
  fingerprint : string option;
      (** The formula's {!Cnf.Fingerprint.compute_hex} when the cache
          was consulted. *)
}

val select_policy :
  ?alpha:float ->
  ?use_cache:bool ->
  Model.t ->
  Cnf.Formula.t ->
  selection
(** Never raises on model failure; see [degraded].

    [use_cache] (default [false]) consults the process-wide LRU
    decision cache keyed by {!Cnf.Fingerprint.compute_hex}: a hit
    replays the stored probability without touching the model. Only
    usable probabilities are stored: a degraded selection is never
    cached. The cache is stamped with the model's
    ({!Model.uid}, {!Model.generation}) pair, so loading a checkpoint
    into the model invalidates every cached decision. *)

(** {2 Decision cache} *)

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val cache_stats : unit -> cache_stats
(** Counters are process-lifetime totals (mirrored in
    [Obs.Metrics] as [selector.cache_*]); [size] is current. *)

val set_cache_capacity : int -> unit
(** Shrinking evicts from the LRU tail. @raise Invalid_argument if
    non-positive. *)

val clear_cache : unit -> unit
(** Drop all entries (counted as evictions). *)

val adopt : Model.t -> fingerprint:string -> cached:bool -> float option -> unit
(** Account in this process's decision cache for a cached selection
    made elsewhere, by a forked worker reading the copy it inherited:
    count the hit ([cached]) or the miss, and store the probability,
    when the selection produced a usable one, under [fingerprint] as
    the most recently used entry. *)

val solve_adaptive :
  ?config:Cdcl.Config.t ->
  ?alpha:float ->
  ?use_cache:bool ->
  Model.t ->
  Cnf.Formula.t ->
  selection option * Cdcl.Solver.result * Cdcl.Solver_stats.t
(** Solve under [config]'s budgets and other settings, selecting the
    deletion policy at the solver's first reduce
    ({!Cdcl.Solver.on_first_reduce}) with [select_policy]: the cache
    lookup ([use_cache]), the forward on a miss and the fallback to the
    default policy all happen there. The search is the one
    [select_policy] followed by a solve under the chosen policy would
    run; [config]'s own policy is never used. The selection is [None]
    when the solve ended before its first reduce, so that no inference
    (and no fingerprint) ran. *)
