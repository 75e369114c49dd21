(** Adaptive policy selection — NeuroSelect-Kissat (Sec. 5.4).

    One model inference on the CPU before solving picks the deletion
    policy; the measured inference wall-clock (monotonized
    [gettimeofday], matching the paper's wall-clock accounting — not
    CPU time) is part of the adaptive solver's reported runtime.

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
  inference_seconds : float;  (** Wall-clock, includes failed attempts. *)
  degraded : degradation option;
      (** [Some _] when the model was unusable and the default policy
          was substituted. *)
  cached : bool;
      (** Served from the fingerprint-keyed decision cache; no
          inference ran. *)
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

val solve_adaptive :
  ?config:Cdcl.Config.t ->
  ?alpha:float ->
  ?use_cache:bool ->
  Model.t ->
  Cnf.Formula.t ->
  selection * Cdcl.Solver.result * Cdcl.Solver_stats.t
(** Select, then solve under the chosen policy (overriding the policy
    in [config] but keeping its budgets and other settings). *)
