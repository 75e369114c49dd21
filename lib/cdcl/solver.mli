(** The CDCL SAT solver ("camlsat").

    A conflict-driven clause-learning solver in the Kissat/MiniSat
    lineage: two-watched-literal propagation, first-UIP learning with
    recursive minimisation, EVSIDS branching, phase saving, Luby or
    LBD-EMA restarts, and a tiered learned-clause database whose reduce
    step ranks clauses with a pluggable {!Policy.t} — the integration
    point for the paper's propagation-frequency deletion metric.

    The clause database is a flat integer arena ({!Arena}): clauses are
    crefs into one growable buffer, watcher lists are unboxed
    [(tag, cref)] int pairs carrying a blocking literal (binary clauses
    inline the other literal in the tag and never touch clause memory
    during BCP), and deletion reclaims storage with a copying
    compaction instead of tombstone flags. See DESIGN.md "Arena clause
    database".

    Per-variable propagation-trigger counters are maintained since the
    last reduce (Section 3 of the paper) and drive the frequency policy;
    they are also exposed for Figure 3's distribution plot. *)

type t

type result =
  | Sat of bool array
      (** Model indexed by variable (index 0 unused). Guaranteed to
          satisfy the input formula. *)
  | Unsat
  | Unknown  (** A conflict or propagation budget was exhausted. *)

val create : ?config:Config.t -> Cnf.Formula.t -> t
(** Loads the formula (deduplicating literals, dropping tautologies,
    propagating units at level 0). *)

(** {1 Incremental API (IPASIR-style)}

    The solver is a state machine:

    {v
      Ready --solve--> Solving --> Sat | Unsat | Unknown --> Ready
    v}

    [create] leaves the solver [`Ready] (or [`Unsat] when the input is
    trivially unsatisfiable). A completed solve parks it in a verdict
    state; any mutation ({!add_clause}, {!new_var}) or another solve
    call moves it back through [`Ready]. Calls that are illegal while
    [`Solving] (i.e. re-entrant calls from a trace callback or signal
    handler) raise {!Runtime.Error.Runtime_error} with [Invalid_state]. [Unsat]
    is sticky: no sequence of [add_clause]/[new_var] calls can undo it. *)

type state = [ `Ready | `Solving | `Sat | `Unsat | `Unknown ]

val state : t -> state
(** Current position in the state machine. The verdict states mirror
    the cached {!result} that an immediate {!solve} would return. *)

val new_var : t -> int
(** Introduce one fresh variable and return its index ([num_vars] after
    the call). Grows every per-variable structure (assignment, watches,
    activity heap, VMTF queue, propagation counters). Amortised O(1).

    @raise Runtime.Error.Runtime_error when called while solving. *)

val add_clause : t -> Cnf.Lit.t list -> unit
(** Add a clause between solves (IPASIR [add]). The clause is
    simplified (duplicate literals dropped, tautologies ignored) and
    attached on the fly at decision level 0: root-falsified literals
    are moved out of the watched slots, clauses unit under the root
    assignment propagate immediately, and an empty or root-falsified
    clause makes the solver [`Unsat]. Any cached [Sat]/[Unknown]
    answer is invalidated.

    @raise Runtime.Error.Runtime_error when called while solving, or when a
    literal mentions a variable beyond {!num_vars} (introduce it with
    {!new_var} first). *)

val solve : t -> result
(** Runs search to completion or budget exhaustion. Calling [solve]
    again after [Unknown] continues with a fresh budget window; after
    [Sat]/[Unsat] it returns the same answer. A plain [solve] is
    assumption-free: any assumptions and failed-assumption core from an
    earlier {!solve_with_assumptions} are cleared first, so
    {!unsat_core} returns [None] afterwards. *)

val solve_with_assumptions : t -> Cnf.Lit.t list -> result
(** Incremental solving under assumption literals (MiniSat-style): each
    assumption occupies its own decision level below all search
    decisions. [Unsat] means the formula is unsatisfiable together with
    the assumptions; {!unsat_core} then returns a subset of the
    assumptions sufficient for the conflict (empty when the formula is
    unsatisfiable on its own). The solver can be reused afterwards with
    different assumptions. *)

val unsat_core : t -> Cnf.Lit.t list option
(** Failed-assumption core from the most recent
    {!solve_with_assumptions} that returned [Unsat]; [None] otherwise. *)

val config : t -> Config.t
(** The configuration in effect: after a {!on_first_reduce} hook has
    run, its policy is the one the hook returned. *)

val stats : t -> Solver_stats.t
(** Live counters (mutated by the solver); copy before storing. *)

val num_vars : t -> int

val propagation_counts : t -> int array
(** Snapshot of the per-variable propagation-trigger counters
    accumulated since the last clause-database reduction (index 0
    unused). *)

val value : t -> int -> bool option
(** Current assignment of a variable (meaningful after [Sat]). *)

val learned_clause_count : t -> int
(** Live (non-deleted) learned clauses. *)

val reduce_now : t -> unit
(** Force one clause-database reduction pass immediately (normally
    driven by the conflict schedule). Exposed for benchmarks and
    allocation tests. *)

val arena_gc_count : t -> int
(** Number of arena compactions performed so far. *)

val arena_live_words : t -> int
(** Words of live clause storage in the arena. *)

val inprocess_now : t -> unit
(** Run one inprocessing pass (vivification and/or backward
    subsumption per the config sub-switches) immediately at decision
    level 0, regardless of the restart schedule. A pass that derives
    unsatisfiability records the answer, which subsequent {!solve}
    calls return. Exposed for tests and benchmarks; no-op after a
    final answer. *)

val tier_counts : t -> int * int * int
(** Live learned clauses per tier as [(core, mid, local)]. All
    clauses report as local when inprocessing is off (tier bits stay
    at their allocation default). *)

val check_model : Cnf.Formula.t -> bool array -> bool
(** [check_model f model] verifies a {!Sat} witness independently. *)

val on_first_reduce : t -> (unit -> Policy.t) -> unit
(** [on_first_reduce t hook] defers the choice of deletion policy:
    [hook] runs once, just before the solver's next reduce pass (its
    first, on a fresh solver), and the policy it returns replaces the
    configured one for that pass and every later one. The solver reads
    the policy only when it ranks clauses at a reduce, and the
    propagation counters run under every policy, so a solve whose hook
    returns [p] searches exactly as one configured with [p]. A solve
    that ends before its first reduce never calls [hook]. Its time
    counts against [max_wall_seconds] like the search's own. Installing
    a hook replaces a pending one. *)

(** {1 Proof tracing}

    Clause-learning and deletion events, in order — the raw material of
    a DRUP/DRAT unsatisfiability proof (see {!Drup}). *)

type trace_event =
  | Learned of Cnf.Lit.t array
  | Deleted of Cnf.Lit.t array

val set_trace : t -> (trace_event -> unit) -> unit
(** Install a trace callback (replacing any previous one). Must be set
    before {!solve} to capture a complete proof. *)

val clear_trace : t -> unit

val solve_formula :
  ?config:Config.t -> Cnf.Formula.t -> result * Solver_stats.t
(** One-shot convenience: create, solve, return result and a stats
    snapshot. *)

