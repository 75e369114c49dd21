(** The NeuroSelect classifier (Fig. 6).

    CNF → bipartite graph → stacked {!Hgt} layers → mean readout over
    variable nodes (Eq. 10) → MLP → logit. [predict] applies a sigmoid;
    probability > 0.5 means "use the propagation-frequency deletion
    policy" (label 1 in Sec. 5.1). *)

type config = {
  hidden_dim : int;  (** Paper: 32. *)
  hgt_layers : int;  (** Paper: 2. *)
  mpnn_per_hgt : int;  (** Paper: 3. *)
  use_attention : bool;  (** [false] = the Table 2 ablation. *)
  normalize_readout : bool;
      (** L2-normalise the pooled graph embedding before the MLP head
          (training-stability addition, see DESIGN.md). *)
  head_hidden : int;  (** Width of the MLP head's hidden layer. *)
  seed : int;
}

val paper_config : config
(** hidden 32, 2 HGT layers of 3 MPNNs, attention on, seed 1. *)

val small_config : config
(** A reduced configuration for fast tests (hidden 8, 1 HGT layer). *)

type t

val create : config -> t
val config : t -> config
val params : t -> Nn.Param.t list
val num_parameters : t -> int

val forward_logit : t -> Nn.Ad.tape -> Satgraph.Bigraph.t -> Nn.Ad.v
(** [1 x 1] logit node (differentiable). *)

val predict : t -> Satgraph.Bigraph.t -> float
(** Probability in (0, 1) that the frequency policy helps. Runs the
    tape-free {!Infer} engine, which agrees with a sigmoid over
    {!forward_logit} to well under 1e-9. *)

val uid : t -> int
(** Process-unique model identity, for external cache keys. *)

val generation : t -> int
(** Bumped by {!load} / {!load_result}: any successful or attempted
    checkpoint restore invalidates external caches keyed on
    [(uid, generation)]. *)

val predict_formula : t -> Cnf.Formula.t -> float
val classify : t -> Satgraph.Bigraph.t -> bool

val save : epochs:int -> string -> t -> unit
(** {!Nn.Checkpoint.save}: [epochs] is the completed training epochs,
    0 outside training. *)

val load : string -> t -> unit
(** Restores parameters into an existing model of identical config.
    @raise Runtime.Error.Runtime_error when neither the checkpoint nor
    its [.bak] copy is usable. *)

val load_result :
  string -> t -> (Nn.Checkpoint.source * int, Runtime.Error.t) result
(** Like [load]; reports whether the primary or the [.bak] last-good
    copy was restored, and its epoch count, instead of raising. *)
