(** Single-instance solver runs for the experiment harness. *)

type run = {
  result : Cdcl.Solver.result;
  stats : Cdcl.Solver_stats.t;
  propagations : int;
  sim_seconds : float;
  solved : bool;  (** [result] is [Sat] or [Unsat] within budget. *)
}

val solve : ?deadline_seconds:float -> Simtime.t -> Cdcl.Policy.t -> Cnf.Formula.t -> run
(** Solve under the given deletion policy with the sim-time budget as
    the propagation cap. [deadline_seconds], when given, adds a
    wall-clock budget on top: the solver answers [Unknown] (counted
    as unsolved) when it expires. *)

val solve_with_config :
  ?deadline_seconds:float -> Simtime.t -> Cdcl.Config.t -> Cnf.Formula.t -> run
(** Same, but a full config (its propagation budget is overridden by
    the sim-time budget). *)

val solve_protected :
  ?deadline_seconds:float ->
  Simtime.t ->
  Cdcl.Policy.t ->
  Cnf.Formula.t ->
  (run, Runtime.Error.t) result
(** Exception-isolated solve for campaigns: any exception is caught
    and retried once before being returned as a typed error, so one
    crashing instance cannot abort a sweep. *)
