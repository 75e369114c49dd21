(** Seeded differential fuzzing of the CDCL solver.

    Each case draws a small instance from one of the five generator
    families in {!Gen} (round-robin), then checks, for every
    clause-deletion policy:

    - the verdict matches the {!Oracle} DPLL reference (when the oracle
      finishes within budget);
    - all policies agree with each other;
    - SAT models satisfy the original formula;
    - UNSAT runs emit a DRUP proof accepted by {!Cdcl.Drup_check};
    - the verdict is stable under every {!Metamorphic} transform.

    A failing case is shrunk by greedy clause- then literal-deletion to
    a minimal DIMACS reproducer, and the report carries a replay
    command ([fuzz --seed N --case K]) that regenerates exactly that
    case: per-case RNGs are derived from [seed] and the case index, so
    cases are independent and individually replayable. *)

type solve_fn =
  Cdcl.Config.t -> Cnf.Formula.t -> Cdcl.Solver.result * Cdcl.Drup.t option
(** The system under test: must return the verdict and, for UNSAT runs,
    the DRUP proof log. *)

val default_solve : solve_fn
(** The real {!Cdcl.Solver} with a proof log attached. *)

val break_lost_clause : solve_fn
(** A deliberately unsound wrapper that silently drops the last clause
    of the input (the observable effect of e.g. a skipped watch
    update). Exists so tests can demonstrate that the harness catches
    soundness bugs; never use it for real verification. *)

val all_policies : Cdcl.Policy.t list
(** Every {!Cdcl.Policy.t} variant exercised by default. *)

type discrepancy = {
  case_index : int;
  family : string;
  detail : string;  (** Which check failed and how. *)
  dimacs : string;  (** Shrunk reproducer in DIMACS format. *)
  replay : string;  (** CLI invocation that replays the original case. *)
}

type report = {
  seed : int;
  cases_run : int;
  checks_run : int;  (** Total individual assertions evaluated. *)
  discrepancies : discrepancy list;
}

val generate_case : seed:int -> int -> string * Cnf.Formula.t
(** [generate_case ~seed i] is case [i]'s (family name, formula) —
    deterministic in [(seed, i)]. *)

val shrink : (Cnf.Formula.t -> bool) -> Cnf.Formula.t -> Cnf.Formula.t
(** [shrink still_fails f] greedily removes clauses (chunks, then
    singles) and literals while [still_fails] holds. Exceptions in the
    predicate count as "no longer fails". *)

val run :
  ?solve:solve_fn ->
  ?policies:Cdcl.Policy.t list ->
  ?metamorphic:bool ->
  ?check_proofs:bool ->
  ?oracle_budget:int ->
  ?only_case:int ->
  ?on_case:(int -> string -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** Runs cases [0 .. cases-1] (or only [only_case]). [on_case] is a
    progress callback invoked before each case with its index and
    family. *)

val replay_command : seed:int -> case_index:int -> string

val pp_report : Format.formatter -> report -> unit

(** {2 Arena vs. reference differential mode}

    Runs the arena-backed {!Cdcl.Solver} and the record-based
    {!Refsolver} side by side on the seeded corpus, in two arms per
    case. Arm one (inprocessing off) uses an aggressive reduce
    schedule (policy rotating per case) that forces frequent clause
    deletion and arena compaction, and demands bit-for-bit agreement:
    verdicts, models, every statistics counter, and the
    learned/deleted trace streams; UNSAT arena proofs are
    DRUP-checked. Arm two re-solves with inprocessing enabled on a
    pass-per-restart schedule (vivification, subsumption, tier
    promotion, mid-pass compaction) and checks verdict agreement,
    model validity, and the DRUP proof — statistics equality is gated
    to the inprocessing-off arm because inprocessing legitimately
    changes the search trajectory. Every failure kind is shrunk to a
    minimal DIMACS reproducer. Exposed on the CLI as
    [fuzz --diff-ref]. *)

type ref_diff_failure = {
  rdf_case : int;
  rdf_family : string;
  rdf_detail : string;  (** Which check failed and how. *)
  rdf_dimacs : string;
      (** Shrunk reproducer — produced for every failure kind,
          statistics/trace divergence included. *)
  rdf_replay : string;
}

type ref_diff_report = {
  rd_seed : int;
  rd_cases : int;
  rd_compactions : int;  (** Total arena GCs across all runs. *)
  rd_rewrites : int;
      (** Vivification/subsumption/strengthening rewrites performed by
          the inprocessing arm — a coverage signal that the passes
          actually ran. *)
  rd_digest : int;
      (** CRC-32 over every run's decisions, conflicts, propagations,
          reduces and deleted clauses, both arms: a search change made
          to both solvers alike moves it when no check fails. *)
  rd_failures : ref_diff_failure list;
}

val run_ref_diff :
  ?on_case:(int -> string -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  ref_diff_report

val pp_ref_diff_report : Format.formatter -> ref_diff_report -> unit

(** {2 Incremental API differential mode}

    Randomized IPASIR-style call sequences against a
    fresh-solver-per-step oracle: each sequence interleaves
    [add_clause], [new_var], [solve], and [solve_with_assumptions] on
    one long-lived solver; at every solve step a brand-new solver is
    built from the accumulated formula and the verdict constructors
    must match exactly. SAT models are validated against the
    accumulated formula (and the assumptions, when present); UNSAT
    cores must be assumption subsets that reproduce UNSAT on a fresh
    solver; plain solves additionally cross-check {!Refsolver} and
    assert that no stale core leaks from an earlier assumption run.
    Sequences are deterministic in [(seed, index)]. Run on the CLI as
    part of [fuzz --diff-ref]. *)

type incr_failure = {
  if_case : int;  (** Sequence index. *)
  if_step : int;  (** API-call step within the sequence. *)
  if_detail : string;
  if_replay : string;
}

type incr_report = {
  ir_seed : int;
  ir_sequences : int;
  ir_steps : int;  (** Total API calls issued across all sequences. *)
  ir_solves : int;  (** Solve steps differentially checked. *)
  ir_checks : int;
  ir_digest : int;
      (** CRC-32 over each sequence's final decisions, conflicts,
          propagations, reduces and deleted clauses. The long-lived
          solver's statistics accumulate over its solves, so this
          covers every one of them. At seed 42 the 300 sequences (4–8
          variables, clauses of 1–4 literals) reach at most 2 conflicts
          each, and a fresh solver at most 1: a change to variable
          activity decay ([Config.var_decay] 0.95 → 0.94) moves none of
          their solves and leaves the digest as it is. *)
  ir_failures : incr_failure list;
}

val run_incremental_diff :
  ?on_case:(int -> unit) -> seed:int -> sequences:int -> unit -> incr_report

val pp_incr_report : Format.formatter -> incr_report -> unit
