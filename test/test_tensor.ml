(* Tests for the dense matrix library. *)

module Mat = Tensor.Mat

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let m23 = Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |]
let m32 = Mat.of_arrays [| [| 7.0; 8.0 |]; [| 9.0; 10.0 |]; [| 11.0; 12.0 |] |]

let test_shapes () =
  checki "rows" 2 (Mat.rows m23);
  checki "cols" 3 (Mat.cols m23);
  checkb "shape" true (Mat.shape m23 = (2, 3))

let test_get_set_bounds () =
  let m = Mat.copy m23 in
  Mat.set m 1 2 99.0;
  checkf "set/get" 99.0 (Mat.get m 1 2);
  Alcotest.check_raises "oob" (Invalid_argument "Mat.get") (fun () ->
      ignore (Mat.get m 2 0))

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged")
    (fun () -> ignore (Mat.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_matmul_known () =
  let p = Mat.matmul m23 m32 in
  (* [1 2 3; 4 5 6] * [7 8; 9 10; 11 12] = [58 64; 139 154] *)
  checkf "p00" 58.0 (Mat.get p 0 0);
  checkf "p01" 64.0 (Mat.get p 0 1);
  checkf "p10" 139.0 (Mat.get p 1 0);
  checkf "p11" 154.0 (Mat.get p 1 1)

let test_matmul_shape_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Mat.matmul: 2x3 * 2x3")
    (fun () -> ignore (Mat.matmul m23 m23))

let test_matmul_transpose_variants () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let expected_ta = Mat.matmul (Mat.transpose a) b in
  checkb "matmul_ta" true (Mat.approx_equal (Mat.matmul_transpose_a a b) expected_ta);
  let c = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let d = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let expected_tb = Mat.matmul c (Mat.transpose d) in
  checkb "matmul_tb" true (Mat.approx_equal (Mat.matmul_transpose_b c d) expected_tb)

let test_transpose_involution () =
  checkb "transpose twice" true (Mat.approx_equal m23 (Mat.transpose (Mat.transpose m23)))

let test_elementwise () =
  let s = Mat.add m23 m23 in
  checkf "add" 2.0 (Mat.get s 0 0);
  let d = Mat.sub s m23 in
  checkb "sub identity" true (Mat.approx_equal d m23);
  let h = Mat.mul m23 m23 in
  checkf "hadamard" 36.0 (Mat.get h 1 2);
  let sc = Mat.scale 2.0 m23 in
  checkf "scale" 12.0 (Mat.get sc 1 2);
  let mp = Mat.map (fun x -> -.x) m23 in
  checkf "map" (-3.0) (Mat.get mp 0 2)

let test_add_in_place () =
  let acc = Mat.zeros 2 3 in
  Mat.add_in_place acc m23;
  Mat.add_in_place acc m23;
  checkb "accumulated twice" true (Mat.approx_equal acc (Mat.scale 2.0 m23))

let test_reductions () =
  checkf "sum" 21.0 (Mat.sum m23);
  checkf "mean" 3.5 (Mat.mean m23);
  checkf "frobenius" (sqrt 91.0) (Mat.frobenius_norm m23);
  let cm = Mat.col_means m23 in
  checkf "col mean 0" 2.5 (Mat.get cm 0 0);
  checkf "col mean 2" 4.5 (Mat.get cm 0 2);
  let rs = Mat.row_sums m23 in
  checkf "row sum 0" 6.0 (Mat.get rs 0 0);
  checkf "row sum 1" 15.0 (Mat.get rs 1 0)

let test_row_extraction () =
  Alcotest.(check (array (float 1e-9))) "row 1" [| 4.0; 5.0; 6.0 |] (Mat.row m23 1)

let test_xavier_range () =
  let rng = Util.Rng.create 5 in
  let w = Mat.xavier rng 10 20 in
  let bound = sqrt (6.0 /. 30.0) in
  checkb "entries within glorot bound" true
    (Array.for_all (fun x -> Float.abs x <= bound) (Mat.row w 0))

let test_row_vector () =
  let v = Mat.row_vector [| 1.0; 2.0 |] in
  checki "1 row" 1 (Mat.rows v);
  checki "2 cols" 2 (Mat.cols v)

(* --- blocked GEMM vs naive oracle -------------------------------------- *)

(* Bit-identity, not approx-equality: the blocked kernel accumulates
   each output element over ascending k exactly like the naive loop,
   so signed zeros and infinities must come out with the same bits and
   NaNs must appear at exactly the same positions. NaN *payloads* are
   compared as equal: when two NaNs meet in [+.] the hardware keeps
   the first operand's payload, and the code generator may legally
   swap operands of commutative float ops, so payload bits are not a
   property of the summation order. *)
let bit_identical a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  &&
  let ok = ref true in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      let x = Mat.get a i j and y = Mat.get b i j in
      if Float.is_nan x || Float.is_nan y then begin
        if not (Float.is_nan x && Float.is_nan y) then ok := false
      end
      else if Int64.bits_of_float x <> Int64.bits_of_float y then ok := false
    done
  done;
  !ok

(* Entries drawn from a palette including the IEEE special values that
   the old zero-skip optimisation mishandled. *)
let special_palette =
  [| 0.0; -0.0; 1.5; -2.25; 1e-300; -1e300; Float.nan; Float.infinity |]

let random_special rng r c =
  Mat.init r c (fun _ _ ->
      special_palette.(Util.Rng.int rng (Array.length special_palette)))

let prop_blocked_matches_naive =
  QCheck.Test.make ~name:"blocked GEMM bit-identical to naive" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Util.Rng.create (seed + 1) in
      let m = 1 + Util.Rng.int rng 24 in
      let k = 1 + Util.Rng.int rng 24 in
      let n = 1 + Util.Rng.int rng 24 in
      let a = Mat.random_uniform rng m k 2.0 in
      let b = Mat.random_uniform rng k n 2.0 in
      bit_identical (Mat.matmul a b) (Mat.matmul_naive a b))

let prop_blocked_matches_naive_specials =
  QCheck.Test.make
    ~name:"blocked GEMM bit-identical to naive on NaN/-0/inf" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Util.Rng.create (seed + 1) in
      let m = 1 + Util.Rng.int rng 9 in
      let k = 1 + Util.Rng.int rng 9 in
      let n = 1 + Util.Rng.int rng 9 in
      let a = random_special rng m k in
      let b = random_special rng k n in
      bit_identical (Mat.matmul a b) (Mat.matmul_naive a b))

let test_blocked_vectors () =
  (* 1 x n and n x 1 exercise the row- and k-remainder paths alone. *)
  let rng = Util.Rng.create 42 in
  let a = Mat.random_uniform rng 1 70 1.0 in
  let b = Mat.random_uniform rng 70 1 1.0 in
  checkb "1xn * nx1" true (bit_identical (Mat.matmul a b) (Mat.matmul_naive a b));
  let c = Mat.random_uniform rng 70 5 1.0 in
  checkb "1xn * nxm" true (bit_identical (Mat.matmul a c) (Mat.matmul_naive a c));
  let d = Mat.random_uniform rng 1 7 1.0 in
  checkb "nx1 * 1xm" true (bit_identical (Mat.matmul b d) (Mat.matmul_naive b d))

let test_matmul_into_shape_and_alias () =
  let a = Mat.random_uniform (Util.Rng.create 1) 3 4 1.0 in
  let b = Mat.random_uniform (Util.Rng.create 2) 4 5 1.0 in
  let bad = Mat.zeros 3 4 in
  Alcotest.check_raises "bad out shape"
    (Invalid_argument "Mat.matmul_into: out 3x4 for 3x4 * 4x5") (fun () ->
      Mat.matmul_into ~out:bad a b);
  let sq = Mat.random_uniform (Util.Rng.create 3) 4 4 1.0 in
  Alcotest.check_raises "aliased out"
    (Invalid_argument "Mat.matmul_into: out aliases an input") (fun () ->
      Mat.matmul_into ~out:sq sq sq);
  (* Every empty float array is the same value, so a 0-row out and a
     0-row input are physically equal without aliasing. *)
  let out = Mat.zeros 0 5 in
  Mat.matmul_into ~out (Mat.zeros 0 4) b;
  checkb "0-row product" true (Mat.shape out = (0, 5))

let prop_matmul_assoc_with_vector =
  QCheck.Test.make ~name:"(AB)x = A(Bx)" ~count:50 QCheck.small_int (fun seed ->
      let rng = Util.Rng.create seed in
      let a = Mat.random_uniform rng 4 3 1.0 in
      let b = Mat.random_uniform rng 3 5 1.0 in
      let x = Mat.random_uniform rng 5 1 1.0 in
      Mat.approx_equal ~eps:1e-6
        (Mat.matmul (Mat.matmul a b) x)
        (Mat.matmul a (Mat.matmul b x)))

let prop_frobenius_scale =
  QCheck.Test.make ~name:"||cX|| = |c| ||X||" ~count:50
    QCheck.(pair small_int (float_range (-3.0) 3.0))
    (fun (seed, c) ->
      let rng = Util.Rng.create seed in
      let x = Mat.random_uniform rng 3 4 1.0 in
      Float.abs
        (Mat.frobenius_norm (Mat.scale c x) -. (Float.abs c *. Mat.frobenius_norm x))
      < 1e-6)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_matmul_assoc_with_vector;
      prop_frobenius_scale;
      prop_blocked_matches_naive;
      prop_blocked_matches_naive_specials;
    ]

let suite =
  [
    Alcotest.test_case "blocked GEMM vector shapes" `Quick test_blocked_vectors;
    Alcotest.test_case "matmul_into shape/alias" `Quick
      test_matmul_into_shape_and_alias;
    Alcotest.test_case "shapes" `Quick test_shapes;
    Alcotest.test_case "get/set bounds" `Quick test_get_set_bounds;
    Alcotest.test_case "ragged input" `Quick test_of_arrays_ragged;
    Alcotest.test_case "matmul known" `Quick test_matmul_known;
    Alcotest.test_case "matmul mismatch" `Quick test_matmul_shape_mismatch;
    Alcotest.test_case "matmul transpose variants" `Quick test_matmul_transpose_variants;
    Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
    Alcotest.test_case "elementwise ops" `Quick test_elementwise;
    Alcotest.test_case "add in place" `Quick test_add_in_place;
    Alcotest.test_case "reductions" `Quick test_reductions;
    Alcotest.test_case "row extraction" `Quick test_row_extraction;
    Alcotest.test_case "xavier range" `Quick test_xavier_range;
    Alcotest.test_case "row vector" `Quick test_row_vector;
  ]
  @ qcheck_tests
