type t = {
  rows : int;
  cols : int;
  data : float array;
}

let check_shape rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat: negative dimension"

let create rows cols x =
  check_shape rows cols;
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  check_shape rows cols;
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let of_arrays arrays =
  let rows = Array.length arrays in
  if rows = 0 then invalid_arg "Mat.of_arrays: zero rows";
  let cols = Array.length arrays.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged")
    arrays;
  init rows cols (fun i j -> arrays.(i).(j))

let of_array ~rows ~cols data =
  if Array.length data <> rows * cols then invalid_arg "Mat.of_array: length mismatch";
  { rows; cols; data = Array.copy data }

let row_vector a = of_array ~rows:1 ~cols:(Array.length a) a

let copy m = { m with data = Array.copy m.data }
let rows m = m.rows
let cols m = m.cols
let shape m = (m.rows, m.cols)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set";
  m.data.((i * m.cols) + j) <- x

let random_uniform rng rows cols scale =
  init rows cols (fun _ _ -> Util.Rng.uniform rng (-.scale) scale)

let xavier rng fan_in fan_out =
  let scale = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  random_uniform rng fan_in fan_out scale

let same_shape a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat: shape mismatch %dx%d vs %dx%d" a.rows a.cols b.rows b.cols)

let map2 f a b =
  same_shape a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (f (Array.unsafe_get ad k) (Array.unsafe_get bd k))
  done;
  { a with data }

(* The elementwise workhorses are specialised loops rather than
   [map2 ( +. )]: with no polymorphic closure in the way the floats
   stay unboxed end to end. *)
let add a b =
  same_shape a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (Array.unsafe_get ad k +. Array.unsafe_get bd k)
  done;
  { a with data }

let sub a b =
  same_shape a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (Array.unsafe_get ad k -. Array.unsafe_get bd k)
  done;
  { a with data }

let mul a b =
  same_shape a b;
  let n = Array.length a.data in
  let ad = a.data and bd = b.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (Array.unsafe_get ad k *. Array.unsafe_get bd k)
  done;
  { a with data }

let scale s m =
  let n = Array.length m.data in
  let md = m.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (s *. Array.unsafe_get md k)
  done;
  { m with data }

let map f m =
  let n = Array.length m.data in
  let md = m.data in
  let data = Array.make n 0.0 in
  for k = 0 to n - 1 do
    Array.unsafe_set data k (f (Array.unsafe_get md k))
  done;
  { m with data }

let add_in_place acc x =
  same_shape acc x;
  for k = 0 to Array.length acc.data - 1 do
    acc.data.(k) <- acc.data.(k) +. x.data.(k)
  done

let sub_in_place acc x =
  same_shape acc x;
  let ad = acc.data and xd = x.data in
  for k = 0 to Array.length ad - 1 do
    Array.unsafe_set ad k (Array.unsafe_get ad k -. Array.unsafe_get xd k)
  done

let scale_in_place s m =
  let md = m.data in
  for k = 0 to Array.length md - 1 do
    Array.unsafe_set md k (s *. Array.unsafe_get md k)
  done

let add_scaled_in_place acc s x =
  same_shape acc x;
  let ad = acc.data and xd = x.data in
  for k = 0 to Array.length ad - 1 do
    Array.unsafe_set ad k (Array.unsafe_get ad k +. (s *. Array.unsafe_get xd k))
  done

let add_scaled_sq_in_place acc s x =
  same_shape acc x;
  let ad = acc.data and xd = x.data in
  for k = 0 to Array.length ad - 1 do
    let g = Array.unsafe_get xd k in
    Array.unsafe_set ad k (Array.unsafe_get ad k +. (s *. (g *. g)))
  done

let adam_update_in_place value ~lr ~eps ~bc1 ~bc2 ~m ~v =
  same_shape value m;
  same_shape value v;
  let vd = value.data and md = m.data and sd = v.data in
  let c1 = 1.0 /. bc1 and c2 = 1.0 /. bc2 in
  for k = 0 to Array.length vd - 1 do
    let m_hat = c1 *. Array.unsafe_get md k in
    let v_hat = c2 *. Array.unsafe_get sd k in
    Array.unsafe_set vd k
      (Array.unsafe_get vd k -. (lr *. m_hat /. (sqrt v_hat +. eps)))
  done

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let matmul_check a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols)

(* Reference GEMM: i-k-j triple loop, every out.(i,j) accumulating
   a.(i,k)*b.(k,j) in ascending k, one term at a time. No zero-skip —
   skipping [aik = 0.0] would break IEEE semantics (0 * nan = nan,
   0 * inf = nan, and -0.0 contributions), so the reference propagates
   every term and the blocked kernel is held bit-identical to it. *)
let matmul_naive a b =
  matmul_check a b;
  let out = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      let arow = i * b.cols and brow = k * b.cols in
      for j = 0 to b.cols - 1 do
        out.data.(arow + j) <- out.data.(arow + j) +. (aik *. b.data.(brow + j))
      done
    done
  done;
  out

(* Cache-blocked, register-tiled GEMM.

   Bit-identical to [matmul_naive]: for any fixed (i, j) the terms
   a.(i,k)*b.(k,j) are folded into out.(i,j) in strictly ascending k,
   one addition at a time — the k panels, the 4x4 micro-kernel and both
   remainder paths all preserve that order, so no reassociation occurs
   and signed zeros and infinities come out with the same bits, with
   NaN at exactly the same positions. (NaN *payload* bits are outside
   the contract: when two NaNs meet in [+.] the hardware keeps the
   first operand's payload and the code generator may swap operands of
   commutative float ops.)

   The tiling wins by arithmetic intensity, not reordering: the
   micro-kernel keeps 16 a-coefficients in (unboxed) float locals and
   performs 16 multiply-adds per j step against 4 out loads/stores and
   4 b loads, versus the reference's one multiply-add per out
   load/store + b load. The k-panel bound keeps the active b stripe
   L2-resident at large shapes. No [ref] accumulators: without flambda
   a float ref boxes on every store, while chained [let] floats stay in
   registers. *)
let kc_panel = 64

let matmul_into ~out a b =
  matmul_check a b;
  if out.rows <> a.rows || out.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.matmul_into: out %dx%d for %dx%d * %dx%d" out.rows
         out.cols a.rows a.cols b.rows b.cols);
  (* Every empty float array is one shared value, so a zero-size [out]
     is physically equal to any empty input without aliasing it. *)
  if Array.length out.data > 0 && (out.data == a.data || out.data == b.data)
  then invalid_arg "Mat.matmul_into: out aliases an input";
  let m = a.rows and kk = a.cols and n = b.cols in
  let ad = a.data and bd = b.data and od = out.data in
  Array.fill od 0 (m * n) 0.0;
  let kp = ref 0 in
  while !kp < kk do
    let kend = min kk (!kp + kc_panel) in
    let i = ref 0 in
    while !i + 3 < m do
      let i0 = !i in
      let r0 = i0 * kk and r1 = (i0 + 1) * kk in
      let r2 = (i0 + 2) * kk and r3 = (i0 + 3) * kk in
      let o0 = i0 * n and o1 = (i0 + 1) * n in
      let o2 = (i0 + 2) * n and o3 = (i0 + 3) * n in
      let k = ref !kp in
      while !k + 3 < kend do
        let k0 = !k in
        let a00 = ad.(r0 + k0) and a01 = ad.(r0 + k0 + 1) in
        let a02 = ad.(r0 + k0 + 2) and a03 = ad.(r0 + k0 + 3) in
        let a10 = ad.(r1 + k0) and a11 = ad.(r1 + k0 + 1) in
        let a12 = ad.(r1 + k0 + 2) and a13 = ad.(r1 + k0 + 3) in
        let a20 = ad.(r2 + k0) and a21 = ad.(r2 + k0 + 1) in
        let a22 = ad.(r2 + k0 + 2) and a23 = ad.(r2 + k0 + 3) in
        let a30 = ad.(r3 + k0) and a31 = ad.(r3 + k0 + 1) in
        let a32 = ad.(r3 + k0 + 2) and a33 = ad.(r3 + k0 + 3) in
        let b0 = k0 * n and b1 = (k0 + 1) * n in
        let b2 = (k0 + 2) * n and b3 = (k0 + 3) * n in
        for j = 0 to n - 1 do
          let bv0 = bd.(b0 + j) and bv1 = bd.(b1 + j) in
          let bv2 = bd.(b2 + j) and bv3 = bd.(b3 + j) in
          let s0 = od.(o0 + j) in
          let s0 = s0 +. (a00 *. bv0) in
          let s0 = s0 +. (a01 *. bv1) in
          let s0 = s0 +. (a02 *. bv2) in
          let s0 = s0 +. (a03 *. bv3) in
          od.(o0 + j) <- s0;
          let s1 = od.(o1 + j) in
          let s1 = s1 +. (a10 *. bv0) in
          let s1 = s1 +. (a11 *. bv1) in
          let s1 = s1 +. (a12 *. bv2) in
          let s1 = s1 +. (a13 *. bv3) in
          od.(o1 + j) <- s1;
          let s2 = od.(o2 + j) in
          let s2 = s2 +. (a20 *. bv0) in
          let s2 = s2 +. (a21 *. bv1) in
          let s2 = s2 +. (a22 *. bv2) in
          let s2 = s2 +. (a23 *. bv3) in
          od.(o2 + j) <- s2;
          let s3 = od.(o3 + j) in
          let s3 = s3 +. (a30 *. bv0) in
          let s3 = s3 +. (a31 *. bv1) in
          let s3 = s3 +. (a32 *. bv2) in
          let s3 = s3 +. (a33 *. bv3) in
          od.(o3 + j) <- s3
        done;
        k := k0 + 4
      done;
      while !k < kend do
        let k0 = !k in
        let a0 = ad.(r0 + k0) and a1 = ad.(r1 + k0) in
        let a2 = ad.(r2 + k0) and a3 = ad.(r3 + k0) in
        let brow = k0 * n in
        for j = 0 to n - 1 do
          let bv = bd.(brow + j) in
          od.(o0 + j) <- od.(o0 + j) +. (a0 *. bv);
          od.(o1 + j) <- od.(o1 + j) +. (a1 *. bv);
          od.(o2 + j) <- od.(o2 + j) +. (a2 *. bv);
          od.(o3 + j) <- od.(o3 + j) +. (a3 *. bv)
        done;
        incr k
      done;
      i := i0 + 4
    done;
    while !i < m do
      let i0 = !i in
      let r0 = i0 * kk and o0 = i0 * n in
      let k = ref !kp in
      while !k + 3 < kend do
        let k0 = !k in
        let a0 = ad.(r0 + k0) and a1 = ad.(r0 + k0 + 1) in
        let a2 = ad.(r0 + k0 + 2) and a3 = ad.(r0 + k0 + 3) in
        let b0 = k0 * n and b1 = (k0 + 1) * n in
        let b2 = (k0 + 2) * n and b3 = (k0 + 3) * n in
        for j = 0 to n - 1 do
          let s = od.(o0 + j) in
          let s = s +. (a0 *. bd.(b0 + j)) in
          let s = s +. (a1 *. bd.(b1 + j)) in
          let s = s +. (a2 *. bd.(b2 + j)) in
          let s = s +. (a3 *. bd.(b3 + j)) in
          od.(o0 + j) <- s
        done;
        k := k0 + 4
      done;
      while !k < kend do
        let k0 = !k in
        let a0 = ad.(r0 + k0) in
        let brow = k0 * n in
        for j = 0 to n - 1 do
          od.(o0 + j) <- od.(o0 + j) +. (a0 *. bd.(brow + j))
        done;
        incr k
      done;
      incr i
    done;
    kp := kend
  done

let matmul a b =
  matmul_check a b;
  let out = zeros a.rows b.cols in
  matmul_into ~out a b;
  out

let matmul_transpose_a a b =
  (* (a^T b) : (a.cols x a.rows) * (b.rows x b.cols) *)
  if a.rows <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.matmul_transpose_a: %dx%d^T * %dx%d" a.rows a.cols b.rows b.cols);
  let out = zeros a.cols b.cols in
  for k = 0 to a.rows - 1 do
    for i = 0 to a.cols - 1 do
      let aki = a.data.((k * a.cols) + i) in
      if aki <> 0.0 then begin
        let orow = i * b.cols and brow = k * b.cols in
        for j = 0 to b.cols - 1 do
          out.data.(orow + j) <- out.data.(orow + j) +. (aki *. b.data.(brow + j))
        done
      end
    done
  done;
  out

let matmul_transpose_b a b =
  if a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.matmul_transpose_b: %dx%d * %dx%d^T" a.rows a.cols b.rows b.cols);
  let out = zeros a.rows b.rows in
  for i = 0 to a.rows - 1 do
    for j = 0 to b.rows - 1 do
      let acc = ref 0.0 in
      let arow = i * a.cols and brow = j * b.cols in
      for k = 0 to a.cols - 1 do
        acc := !acc +. (a.data.(arow + k) *. b.data.(brow + k))
      done;
      out.data.((i * b.rows) + j) <- !acc
    done
  done;
  out

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let sum m = Array.fold_left ( +. ) 0.0 m.data

let mean m =
  let n = Array.length m.data in
  if n = 0 then 0.0 else sum m /. float_of_int n

let frobenius_norm m = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 m.data)

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row";
  Array.sub m.data (i * m.cols) m.cols

let col_means m =
  let out = zeros 1 m.cols in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      out.data.(j) <- out.data.(j) +. m.data.((i * m.cols) + j)
    done
  done;
  let n = float_of_int (max m.rows 1) in
  for j = 0 to m.cols - 1 do
    out.data.(j) <- out.data.(j) /. n
  done;
  out

let row_sums m =
  let out = zeros m.rows 1 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. m.data.((i * m.cols) + j)
    done;
    out.data.(i) <- !acc
  done;
  out

let add_row_in_place acc r =
  if r.rows <> 1 || r.cols <> acc.cols then
    invalid_arg
      (Printf.sprintf "Mat.add_row_in_place: %dx%d += %dx%d" acc.rows acc.cols
         r.rows r.cols);
  let ad = acc.data and rd = r.data in
  let n = acc.cols in
  for i = 0 to acc.rows - 1 do
    let base = i * n in
    for j = 0 to n - 1 do
      ad.(base + j) <- ad.(base + j) +. rd.(j)
    done
  done

(* Matches the autodiff relu exactly: [if x > 0.0 then x else 0.0], so
   -0.0 and NaN map to +0.0 on both paths. *)
let relu_in_place m =
  let d = m.data in
  for k = 0 to Array.length d - 1 do
    let x = d.(k) in
    if not (x > 0.0) then d.(k) <- 0.0
  done

(* Fused gather -> per-edge scale -> scatter-sum: one pass over the
   edge stream instead of three, no intermediate [edges x cols] buffer.
   Accumulates in ascending edge order with the identical
   [w *. src] product, so it is bit-identical to the unfused
   gather/scale/scatter pipeline (and to the autodiff ops). *)
let scatter_weighted_rows_into ~out src ~send ~recv ~weights =
  let n = src.cols in
  let ne = Array.length send in
  if Array.length recv <> ne || Array.length weights <> ne then
    invalid_arg "Mat.scatter_weighted_rows_into: length mismatch";
  if out.cols <> n then invalid_arg "Mat.scatter_weighted_rows_into: cols";
  let od = out.data and sd = src.data in
  Array.fill od 0 (Array.length od) 0.0;
  for e = 0 to ne - 1 do
    let si = send.(e) and ri = recv.(e) in
    if si < 0 || si >= src.rows || ri < 0 || ri >= out.rows then
      invalid_arg "Mat.scatter_weighted_rows_into: index";
    let w = weights.(e) in
    let sbase = si * n and obase = ri * n in
    for j = 0 to n - 1 do
      od.(obase + j) <- od.(obase + j) +. (w *. sd.(sbase + j))
    done
  done

let scale_rows_in_place m s =
  if Array.length s <> m.rows then
    invalid_arg "Mat.scale_rows_in_place: length mismatch";
  let d = m.data in
  let n = m.cols in
  for i = 0 to m.rows - 1 do
    let f = s.(i) in
    let base = i * n in
    for j = 0 to n - 1 do
      d.(base + j) <- f *. d.(base + j)
    done
  done

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a.data b.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>";
    for j = 0 to m.cols - 1 do
      Format.fprintf ppf "%8.4f " m.data.((i * m.cols) + j)
    done;
    Format.fprintf ppf "@]@,"
  done;
  Format.fprintf ppf "@]"
