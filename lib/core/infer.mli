(** Tape-free inference engine for the NeuroSelect classifier.

    Mirrors {!Model.forward_logit}'s arithmetic on plain matrices drawn
    from a shape-keyed buffer pool: no autodiff nodes, no gradient
    buffers, no backward closures. The pool keeps the buffers of the
    last graph shape only; a graph with a different
    [(num_vars, num_clauses)] empties it. Every kernel keeps the tape ops'
    accumulation order, so the engine reproduces the tape prediction to
    well under 1e-9.

    An engine reads the model's live weight matrices, so it stays valid
    across checkpoint reloads; {!Model.predict} owns one per model.
    Engines are not thread-safe (the pool and scratch buffers are shared
    across calls). *)

type t

val create :
  hgts:Hgt.t list -> head:Nn.Layer.Mlp.t -> normalize_readout:bool -> t

val predict : t -> Satgraph.Bigraph.t -> float
(** Probability in (0, 1); the fast equivalent of the tape forward.
    @raise Invalid_argument on a graph with no variable nodes (the tape
    path rejects those too). *)
