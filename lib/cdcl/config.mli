(** Solver configuration. Search always runs EVSIDS branching, phase
    saving and recursive learned-clause minimisation, with the fixed
    decays {!var_decay} and {!clause_decay}. *)

type restart_mode =
  | No_restarts
  | Luby of int
      (** Luby sequence scaled by the given conflict unit (Kissat-style
          stable mode). *)
  | Glucose of { fast_alpha : float; slow_alpha : float; margin : float }
      (** Restart when [fast_ema(lbd) > margin * slow_ema(lbd)]. *)

type t = {
  policy : Policy.t;  (** Clause-deletion policy used at each reduce. *)
  restart_mode : restart_mode;
  reduce_first : int;  (** Conflicts before the first reduce. *)
  reduce_inc : int;  (** Additional conflicts between successive reduces. *)
  reduce_fraction : float;  (** Fraction of reducible clauses deleted. *)
  tier1_glue : int;  (** Clauses with glue <= tier1 are never deleted. *)
  max_conflicts : int option;  (** Budget; [None] = unlimited. *)
  max_propagations : int option;  (** Budget; [None] = unlimited. *)
  max_wall_seconds : float option;
      (** Wall-clock deadline per [solve] call, checked alongside the
          other budgets; [None] = unlimited. The solver answers
          [Unknown] when it expires. *)
  inprocess : bool;
      (** Master switch for the inprocessing tier (tiered clause DB,
          vivification, backward subsumption). Off by default so the
          bit-for-bit differential path against {!Verify.Refsolver}
          stays intact. *)
  inprocess_interval : int;
      (** Restarts between inprocessing passes (>= 1). *)
  tier2_glue : int;
      (** Learned clauses with [tier1_glue < glue <= tier2_glue] enter
          the mid tier; higher glue starts local. *)
  promote_uses : int;
      (** Conflict participations (saturating 2-bit counter) required to
          promote a clause one tier at the next reduce. *)
  vivify_budget : int;
      (** Propagation budget per vivification pass. *)
  subsume_budget : int;
      (** Clause-pair inspection budget per subsumption pass. *)
  inprocess_vivify : bool;  (** Sub-switch: run vivification. *)
  inprocess_subsume : bool;
      (** Sub-switch: run backward subsumption/strengthening. *)
}

val default : t
(** Kissat-flavoured defaults: [Default] policy, Luby-100 restarts,
    reduce at 100 conflicts growing by 50 (a schedule scaled to the
    laptop-size instances this reproduction runs on), delete 50%,
    tier1 glue 2. *)

val var_decay : float
(** EVSIDS activity decay per conflict: 0.95. *)

val clause_decay : float
(** Clause-activity decay per conflict: 0.999. *)

val with_policy : Policy.t -> t -> t

val with_inprocess : ?interval:int -> bool -> t -> t
(** Toggle inprocessing; [interval] (clamped to >= 1) overrides
    {!field-inprocess_interval} when given. *)

val with_budget :
  ?max_conflicts:int -> ?max_propagations:int -> ?max_wall_seconds:float -> t -> t
