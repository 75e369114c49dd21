(* Tape-free inference engine.

   [Model.forward_logit] builds an autodiff tape: every op allocates a
   value matrix, a grad matrix and a backward closure — none of which a
   pure forward needs. This module mirrors the exact same arithmetic on
   plain [Mat.t] buffers drawn from a shape-keyed pool, so a warm
   engine's forward is allocation-light (a handful of list cells and
   index arrays, no per-op matrices) and runs on the blocked GEMM. The
   pool holds only the last graph shape's buffers: a graph of another
   size empties it first, so memory stays at one shape's worth instead
   of growing with every distinct instance a long-lived process sees.

   Numerics contract: every kernel accumulates in the same element
   order as its tape counterpart (ascending k in GEMMs, ascending row
   in scatter/pool reductions, the same [x > 0.0] relu test, the same
   1e-12 Frobenius guard), so a float engine reproduces
   [Model.predict]'s tape result to within bit-level noise of the
   zero-skip edge cases in the attention transpose products — in
   practice well under 1e-9. *)

module Mat = Tensor.Mat
module Linear = Nn.Layer.Linear
module Bigraph = Satgraph.Bigraph

(* ---------- shape-keyed buffer pool ---------- *)

(* Exact-shape free lists. The key packs (rows, cols) injectively, so a
   hit never needs a shape check. Buffers come back dirty; every
   consumer below fully overwrites its target. *)
type pool = (int, Mat.t list ref) Hashtbl.t

let pool_key r c = (r lsl 31) lor c

let acquire (p : pool) r c =
  match Hashtbl.find p (pool_key r c) with
  | slot -> ( match !slot with m :: tl -> slot := tl; m | [] -> Mat.zeros r c)
  | exception Not_found -> Mat.zeros r c

let release (p : pool) m =
  let k = pool_key (Mat.rows m) (Mat.cols m) in
  match Hashtbl.find p k with
  | slot -> slot := m :: !slot
  | exception Not_found -> Hashtbl.add p k (ref [ m ])

let apply_lin p l x =
  let out = acquire p (Mat.rows x) (Linear.out_dim l) in
  Linear.infer_into l ~out x;
  out

type t = {
  hgts : Hgt.t list;
  head : Linear.t list;
  normalize_readout : bool;
  hidden : int;
  pool : pool;
  mutable shape : int;  (* pool_key num_vars num_clauses of the last graph *)
  mean_scratch : float array;  (* hidden *)
  max_scratch : float array;  (* hidden *)
  kt1_scratch : float array;  (* hidden *)
}

let create ~hgts ~head ~normalize_readout =
  let head = Nn.Layer.Mlp.linears head in
  let hidden =
    match head with
    | l :: _ -> Linear.in_dim l / 2
    | [] -> invalid_arg "Infer.create: empty head"
  in
  {
    hgts;
    head;
    normalize_readout;
    hidden;
    pool = Hashtbl.create 32;
    shape = -1;
    mean_scratch = Array.make hidden 0.0;
    max_scratch = Array.make hidden 0.0;
    kt1_scratch = Array.make hidden 0.0;
  }

(* ---------- forward ---------- *)

(* Eq. 6: the fused gather/edge-weight/scatter-sum kernel followed by
   the 1/deg normalisation. Identical accumulation order to the tape's
   three separate ops. *)
let aggregate t (g : Bigraph.t) ~sender ~send_idx ~recv_idx ~recv_rows
    ~recv_inv =
  let summed = acquire t.pool recv_rows (Mat.cols sender) in
  Mat.scatter_weighted_rows_into ~out:summed sender ~send:send_idx
    ~recv:recv_idx ~weights:g.Bigraph.edge_weight;
  Mat.scale_rows_in_place summed recv_inv;
  summed

(* Eq. 7: relu (W_out (m + W_self h)). *)
let update t ~out_lin ~self_lin ~messages ~feats =
  let p = t.pool in
  let self = apply_lin p self_lin feats in
  Mat.add_in_place self messages;
  let out = apply_lin p out_lin self in
  release p self;
  Mat.relu_in_place out;
  out

(* Same ascending-element sum of squares, the same 1e-12 identity guard
   and the same multiply-by-reciprocal as [Ad.frobenius_normalize]. *)
let frobenius_normalise a len =
  let acc = ref 0.0 in
  for k = 0 to len - 1 do
    acc := !acc +. (a.(k) *. a.(k))
  done;
  let s = sqrt !acc in
  if s >= 1e-12 then begin
    let inv = 1.0 /. s in
    for k = 0 to len - 1 do
      a.(k) <- inv *. a.(k)
    done
  end

(* SGFormer linear attention (Eqs. 8-9) over the variable features. *)
let attention t (fq, fk, fv) vf =
  let p = t.pool in
  let n = Mat.rows vf and h = Mat.cols vf in
  let q = apply_lin p fq vf in
  let k = apply_lin p fk vf in
  let v = apply_lin p fv vf in
  let out = acquire p n h in
  let ktv = acquire p h h in
  let qd = q.Mat.data
  and kd = k.Mat.data
  and vd = v.Mat.data
  and od = out.Mat.data
  and ktvd = ktv.Mat.data
  and kt1 = t.kt1_scratch in
  let inv_n = 1.0 /. float_of_int (max n 1) in
  frobenius_normalise qd (n * h);
  frobenius_normalise kd (n * h);
  (* ktv = K~^T V (h x h) and kt1 = K~^T 1 (h), rows ascending; the
     tape's transpose product skips exact-zero coefficients, mirrored
     here. *)
  Array.fill ktvd 0 (h * h) 0.0;
  Array.fill kt1 0 h 0.0;
  for r = 0 to n - 1 do
    let base = r * h in
    for x = 0 to h - 1 do
      let kv = kd.(base + x) in
      if kv <> 0.0 then begin
        let obase = x * h in
        for j = 0 to h - 1 do
          ktvd.(obase + j) <- ktvd.(obase + j) +. (kv *. vd.(base + j))
        done;
        kt1.(x) <- kt1.(x) +. (kv *. 1.0)
      end
    done
  done;
  (* Per row: qktv into out (ascending x, one term at a time — the
     tape matmul's order), the scalar q.kt1, then
     out = (v + qktv/n) / (1 + (q.kt1)/n). *)
  for r = 0 to n - 1 do
    let base = r * h in
    for j = 0 to h - 1 do
      od.(base + j) <- 0.0
    done;
    for x = 0 to h - 1 do
      let qv = qd.(base + x) in
      let obase = x * h in
      for j = 0 to h - 1 do
        od.(base + j) <- od.(base + j) +. (qv *. ktvd.(obase + j))
      done
    done;
    let dot = acquire p 1 1 in
    let dd = dot.Mat.data in
    dd.(0) <- 0.0;
    for x = 0 to h - 1 do
      dd.(0) <- dd.(0) +. (qd.(base + x) *. kt1.(x))
    done;
    let denom = 1.0 +. (inv_n *. dd.(0)) in
    release p dot;
    for j = 0 to h - 1 do
      od.(base + j) <- (vd.(base + j) +. (inv_n *. od.(base + j))) /. denom
    done
  done;
  release p q;
  release p k;
  release p v;
  release p ktv;
  out

(* Eq. 10 readout: mean and max pooling over the variable rows, each
   optionally Frobenius-normalised (same guard as the tape),
   concatenated into the 1 x 2h pooled row. The mean divides by
   [max n 1] like [Mat.col_means]; the max starts from row 0 and takes
   strictly greater values like [Ad.max_rows]. *)
let pool_readout t vf pooled =
  let n = Mat.rows vf and h = Mat.cols vf in
  let d = vf.Mat.data and pd = pooled.Mat.data in
  let mean_s = t.mean_scratch and max_s = t.max_scratch in
  let denom = float_of_int (max n 1) in
  for j = 0 to h - 1 do
    mean_s.(j) <- 0.0;
    max_s.(j) <- d.(j)
  done;
  for r = 0 to n - 1 do
    let base = r * h in
    for j = 0 to h - 1 do
      let x = d.(base + j) in
      mean_s.(j) <- mean_s.(j) +. x;
      if x > max_s.(j) then max_s.(j) <- x
    done
  done;
  for j = 0 to h - 1 do
    mean_s.(j) <- mean_s.(j) /. denom
  done;
  if t.normalize_readout then begin
    frobenius_normalise mean_s h;
    frobenius_normalise max_s h
  end;
  for j = 0 to h - 1 do
    pd.(j) <- mean_s.(j);
    pd.(h + j) <- max_s.(j)
  done

let predict t (g : Bigraph.t) =
  if g.Bigraph.num_vars = 0 then
    invalid_arg "Infer.predict: graph with no variable nodes";
  let p = t.pool in
  let nv = g.Bigraph.num_vars and nc = g.Bigraph.num_clauses in
  let shape = pool_key nv nc in
  if t.shape <> shape then begin
    Hashtbl.reset p;
    t.shape <- shape
  end;
  let var_inv = Bigraph.var_inv_degree g
  and clause_inv = Bigraph.clause_inv_degree g in
  let vf0 = acquire p nv 1 in
  Mat.fill vf0 1.0;
  let cf0 = acquire p nc 1 in
  Mat.fill cf0 0.0;
  let vf = ref vf0 and cf = ref cf0 in
  List.iter
    (fun hgt ->
      List.iter
        (fun mp ->
          let vmsg = apply_lin p (Mpnn.msg_var_to_clause mp) !vf in
          let cmsg = apply_lin p (Mpnn.msg_clause_to_var mp) !cf in
          let to_clauses =
            aggregate t g ~sender:vmsg ~send_idx:g.Bigraph.edge_var
              ~recv_idx:g.Bigraph.edge_clause ~recv_rows:nc
              ~recv_inv:clause_inv
          in
          release p vmsg;
          let to_vars =
            aggregate t g ~sender:cmsg ~send_idx:g.Bigraph.edge_clause
              ~recv_idx:g.Bigraph.edge_var ~recv_rows:nv ~recv_inv:var_inv
          in
          release p cmsg;
          let new_v =
            update t ~out_lin:(Mpnn.out_var mp) ~self_lin:(Mpnn.self_var mp)
              ~messages:to_vars ~feats:!vf
          in
          release p to_vars;
          let new_c =
            update t ~out_lin:(Mpnn.out_clause mp)
              ~self_lin:(Mpnn.self_clause mp) ~messages:to_clauses ~feats:!cf
          in
          release p to_clauses;
          release p !vf;
          release p !cf;
          vf := new_v;
          cf := new_c)
        (Hgt.mpnns hgt);
      match Hgt.attention hgt with
      | None -> ()
      | Some a ->
          let att = attention t (Attention.projections a) !vf in
          release p !vf;
          vf := att)
    t.hgts;
  let pooled = acquire p 1 (2 * t.hidden) in
  pool_readout t !vf pooled;
  release p !vf;
  release p !cf;
  let x = ref pooled in
  let nlayers = List.length t.head in
  List.iteri
    (fun i lin ->
      let y = apply_lin p lin !x in
      if i < nlayers - 1 then Mat.relu_in_place y;
      release p !x;
      x := y)
    t.head;
  let logit = Mat.get !x 0 0 in
  release p !x;
  1.0 /. (1.0 +. exp (-.logit))
