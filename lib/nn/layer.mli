(** Neural-network layers built on {!Ad}. *)

(** Affine map [x W + b]. *)
module Linear : sig
  type t

  val create :
    ?bias:bool -> Util.Rng.t -> in_dim:int -> out_dim:int -> name:string -> t
  (** Xavier-initialised weights; zero bias (present unless
      [~bias:false]). *)

  val forward : Ad.tape -> t -> Ad.v -> Ad.v
  (** Input [n x in_dim], output [n x out_dim]. *)

  val params : t -> Param.t list
  val in_dim : t -> int
  val out_dim : t -> int

  val infer_into : t -> out:Tensor.Mat.t -> Tensor.Mat.t -> unit
  (** Tape-free forward on plain matrices, written into a preallocated
      [n x out_dim] buffer (the inference engine's only layer entry
      point); no autodiff allocation. *)
end

(** Multi-layer perceptron with ReLU between hidden layers and a linear
    final layer. *)
module Mlp : sig
  type t

  val create : Util.Rng.t -> dims:int list -> name:string -> t
  (** [dims] lists layer widths, e.g. [[32; 16; 1]] for
      32 -> 16 -> 1. Needs at least two entries. *)

  val forward : Ad.tape -> t -> Ad.v -> Ad.v
  val params : t -> Param.t list

  val linears : t -> Linear.t list
  (** Constituent layers in application order. *)
end
