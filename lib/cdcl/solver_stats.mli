(** Mutable solver counters, snapshotted by the experiment harness. *)

type t = {
  mutable decisions : int;
  mutable conflicts : int;
  mutable propagations : int;  (** Assignments made by BCP. *)
  mutable restarts : int;
  mutable reduces : int;
  mutable learned_total : int;
  mutable deleted_total : int;
  mutable minimized_literals : int;
      (** Literals removed by learned-clause minimisation. *)
  mutable max_decision_level : int;
  mutable inprocess_passes : int;
      (** Inprocessing passes run (0 when {!Config.t.inprocess} is
          off). *)
  mutable vivified : int;  (** Clauses shrunk by vivification. *)
  mutable vivify_deleted : int;
      (** Clauses deleted outright by vivification. *)
  mutable subsumed : int;  (** Clauses removed by backward subsumption. *)
  mutable strengthened : int;
      (** Literals removed by self-subsuming resolution. *)
}

val create : unit -> t
val copy : t -> t
val pp : Format.formatter -> t -> unit
