(** Adaptive policy selection — NeuroSelect-Kissat (Sec. 5.4).

    One model inference on the CPU before solving picks the deletion
    policy; the measured inference wall-clock (monotonized
    [gettimeofday], matching the paper's wall-clock accounting — not
    CPU time) is part of the adaptive solver's reported runtime.

    Inference is fallible in production: the checkpoint may be
    corrupt, the forward pass may overflow. [select_policy] never lets
    that abort a sweep — it degrades to the default deletion policy
    and records why in [degraded].

    A fleet-wide circuit breaker guards the model path: repeated
    failures (or pathologically slow inferences, see
    {!breaker_config}) trip it open, after which every selection
    short-circuits to the default policy without touching the model —
    failing fast instead of once per call. After the cooldown the
    breaker admits half-open trial inferences; enough successes
    restore the model path for the whole fleet. *)

type degradation =
  | Model_failure of string
      (** The model raised (bad checkpoint, forward-pass failure). *)
  | Non_finite_probability of float
      (** The model returned NaN/Inf. *)
  | Breaker_open
      (** The circuit breaker is open; the model was not consulted. *)

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
          inference ran and the breaker was not consulted. *)
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
    replays the stored probability without touching the model or the
    breaker. The cache is stamped with the model's
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

(** {2 Circuit breaker} *)

type breaker_config = {
  breaker : Runtime.Breaker.config;
  slow_call_seconds : float option;
      (** Inferences slower than this count as breaker failures even
          when they return a usable probability; [None] disables the
          slow-call criterion. *)
}

val default_breaker_config : breaker_config
(** {!Runtime.Breaker.default_config} plus a 5 s slow-call bound. *)

val configure_breaker : breaker_config -> unit
(** Replace the configuration and reset the breaker. *)

val breaker_state : unit -> Runtime.Breaker.state
val breaker_trip_count : unit -> int

val reset_breaker : unit -> unit
(** Close the breaker and clear its counters (tests, operator reset). *)

val solve_adaptive :
  ?config:Cdcl.Config.t ->
  ?alpha:float ->
  ?use_cache:bool ->
  Model.t ->
  Cnf.Formula.t ->
  selection * Cdcl.Solver.result * Cdcl.Solver_stats.t
(** Select, then solve under the chosen policy (overriding the policy
    in [config] but keeping its budgets and other settings). *)
