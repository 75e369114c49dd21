(** Dense row-major float matrices.

    The numeric substrate for the neural-network stack: plain
    [float array] storage, explicit shapes, and the handful of BLAS-like
    kernels the HGT model needs (matmul, transpose, elementwise ops,
    Frobenius norm, row reductions). Vectors are [1 x n] or [n x 1]
    matrices. All binary operations check shapes and raise
    [Invalid_argument] on mismatch. *)

type t = private {
  rows : int;
  cols : int;
  data : float array;  (** Row-major, length [rows * cols]. *)
}

val create : int -> int -> float -> t
val zeros : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged input or zero rows. *)

val of_array : rows:int -> cols:int -> float array -> t
(** Adopts a copy of the flat array. *)

val row_vector : float array -> t
val copy : t -> t
val rows : t -> int
val cols : t -> int
val shape : t -> int * int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val random_uniform : Util.Rng.t -> int -> int -> float -> t
(** Entries uniform in [\[-scale, scale\]]. *)

val xavier : Util.Rng.t -> int -> int -> t
(** Glorot-uniform initialisation for a [fan_in x fan_out] weight. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Hadamard (elementwise) product. *)

val scale : float -> t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add_in_place : t -> t -> unit
(** [add_in_place acc x] accumulates [x] into [acc]. *)

(** {2 In-place kernels}

    Allocation-free updates for the optimiser inner loop
    ({!Nn.Optim.step} runs one per parameter per training step); the
    out-of-place equivalents allocate several intermediates per call. *)

val sub_in_place : t -> t -> unit
(** [sub_in_place acc x]: [acc <- acc - x]. *)

val scale_in_place : float -> t -> unit
(** [scale_in_place s m]: [m <- s * m]. *)

val add_scaled_in_place : t -> float -> t -> unit
(** [add_scaled_in_place acc s x]: [acc <- acc + s * x] (axpy). *)

val add_scaled_sq_in_place : t -> float -> t -> unit
(** [add_scaled_sq_in_place acc s x]: [acc <- acc + s * (x ∘ x)] —
    the Adam second-moment accumulation. *)

val adam_update_in_place :
  t -> lr:float -> eps:float -> bc1:float -> bc2:float -> m:t -> v:t -> unit
(** Fused bias-corrected Adam parameter update:
    [value <- value - lr * (m/bc1) / (sqrt (v/bc2) + eps)],
    elementwise. [bc1]/[bc2] are the bias-correction denominators
    [1 - beta^t]. *)

val fill : t -> float -> unit

val matmul : t -> t -> t
(** [matmul a b] for [a : m x k], [b : k x n]. Runs the blocked kernel
    ({!matmul_into}); bit-identical to {!matmul_naive}. *)

val matmul_naive : t -> t -> t
(** Reference i-k-j GEMM, no zero-skip (IEEE-faithful: [0 * nan],
    signed zeros and infinities propagate). The qcheck oracle the
    blocked kernel is held bit-identical to. *)

val matmul_into : out:t -> t -> t -> unit
(** [matmul_into ~out a b] writes [a * b] into the preallocated [out]
    ([m x n]; previous contents discarded). Cache-blocked and
    register-tiled, but every [out.(i,j)] still accumulates its terms
    in ascending [k] one addition at a time, so results are
    bit-identical to {!matmul_naive} — signed zeros and infinities
    included, NaN at the same positions (NaN payload bits are
    unspecified). A non-empty [out] must not alias [a] or [b]
    (@raise Invalid_argument). *)

val add_row_in_place : t -> t -> unit
(** [add_row_in_place acc r] broadcasts the [1 x cols] row [r] onto
    every row of [acc] — the in-place bias add of the inference path. *)

val relu_in_place : t -> unit

val scale_rows_in_place : t -> float array -> unit
(** Row [i] scaled by [s.(i)]. *)

val scatter_weighted_rows_into :
  out:t -> t -> send:int array -> recv:int array -> weights:float array -> unit
(** [out.(recv.(e), :) += weights.(e) * src.(send.(e), :)] over
    ascending [e], after zeroing [out] — the fused
    gather/scale/scatter-sum of the message-passing aggregation,
    bit-identical to the three separate passes. *)

val matmul_transpose_a : t -> t -> t
(** [matmul_transpose_a a b = matmul (transpose a) b] without the copy. *)

val matmul_transpose_b : t -> t -> t
(** [matmul_transpose_b a b = matmul a (transpose b)] without the copy. *)

val transpose : t -> t
val sum : t -> float
val mean : t -> float
val frobenius_norm : t -> float
val row : t -> int -> float array
val col_means : t -> t
(** [1 x cols] matrix of per-column means (the mean readout). *)

val row_sums : t -> t
(** [rows x 1] matrix of per-row sums. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
