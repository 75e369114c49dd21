(* Tests for the neural-network stack: autodiff gradient checks against
   finite differences, layers, optimisers, checkpointing, generic
   training. *)

module Mat = Tensor.Mat
module Ad = Nn.Ad

let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))
let checki = Alcotest.(check int)

(* Finite-difference gradient check for a scalar function of one
   parameter matrix. *)
let grad_check ?(rows = 3) ?(cols = 4) ?(tol = 1e-3) name build =
  let rng = Util.Rng.create 5 in
  let p = Nn.Param.create "p" (Mat.random_uniform rng rows cols 1.0) in
  let loss () =
    let tape = Ad.tape () in
    let x = Ad.of_param tape p in
    let l = build tape x in
    (tape, l)
  in
  Nn.Param.zero_grad p;
  let tape, l = loss () in
  Ad.backward tape l;
  let eps = 1e-5 in
  let v = p.Nn.Param.value in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let orig = Mat.get v i j in
      Mat.set v i j (orig +. eps);
      let fp = Mat.get (Ad.value (snd (loss ()))) 0 0 in
      Mat.set v i j (orig -. eps);
      let fm = Mat.get (Ad.value (snd (loss ()))) 0 0 in
      Mat.set v i j orig;
      let numeric = (fp -. fm) /. (2.0 *. eps) in
      let analytic = Mat.get p.Nn.Param.grad i j in
      let denom = Float.max 1e-4 (Float.abs numeric +. Float.abs analytic) in
      let rel = Float.abs (numeric -. analytic) /. denom in
      if rel > tol then
        Alcotest.failf "%s: grad mismatch at (%d,%d): numeric %g analytic %g" name i
          j numeric analytic
    done
  done

(* Fixed constants for grad checks: materialised once so repeated loss
   evaluations (finite differences) see identical values. *)
let fixed_const r c seed =
  let m = Mat.random_uniform (Util.Rng.create seed) r c 1.0 in
  fun tape -> Ad.const tape m

let test_grad_basic_ops () =
  grad_check "sum" (fun t x -> Ad.sum_all t x);
  grad_check "relu" (fun t x -> Ad.sum_all t (Ad.relu t x));
  grad_check "sigmoid" (fun t x -> Ad.sum_all t (Ad.sigmoid t x));
  grad_check "tanh" (fun t x -> Ad.sum_all t (Ad.tanh t x));
  grad_check "mul-self" (fun t x -> Ad.sum_all t (Ad.mul t x x));
  grad_check "scale" (fun t x -> Ad.sum_all t (Ad.scale t (-2.5) x));
  grad_check "add_scalar" (fun t x -> Ad.sum_all t (Ad.add_scalar t 3.0 x))

let test_grad_add_sub () =
  let c34 = fixed_const 3 4 9 in
  grad_check "add" (fun t x -> Ad.sum_all t (Ad.add t x (c34 t)));
  grad_check "sub" (fun t x -> Ad.sum_all t (Ad.sub t (c34 t) x))

let test_grad_matmul () =
  let c42 = fixed_const 4 2 11 and c32 = fixed_const 3 2 12 in
  grad_check "matmul" (fun t x -> Ad.sum_all t (Ad.matmul t x (c42 t)));
  grad_check "matmul_ta" (fun t x -> Ad.sum_all t (Ad.matmul_ta t x (c32 t)))

let test_grad_pooling () =
  grad_check "max_rows" ~tol:5e-3 (fun t x -> Ad.sum_all t (Ad.max_rows t x));
  let c32 = fixed_const 3 2 17 in
  grad_check "concat_cols" (fun t x ->
      Ad.sum_all t (Ad.concat_cols t x (c32 t)))

let test_max_rows_values () =
  let tape = Ad.tape () in
  let x = Ad.const tape (Mat.of_arrays [| [| 1.0; -5.0 |]; [| -2.0; 3.0 |] |]) in
  let y = Ad.value (Ad.max_rows tape x) in
  checkf "max col 0" 1.0 (Mat.get y 0 0);
  checkf "max col 1" 3.0 (Mat.get y 0 1)

let test_grad_normalisations () =
  grad_check "frobenius_normalize" (fun t x ->
      Ad.sum_all t (Ad.frobenius_normalize t x));
  grad_check "mean_rows" (fun t x -> Ad.sum_all t (Ad.mean_rows t x));
  grad_check "div_rows" (fun t x ->
      let d = Ad.const t (Mat.of_arrays [| [| 1.5 |]; [| 2.0 |]; [| 0.7 |] |]) in
      Ad.sum_all t (Ad.div_rows t x d))

let test_grad_sparse_ops () =
  grad_check "gather" (fun t x -> Ad.sum_all t (Ad.gather_rows t x [| 0; 2; 2; 1 |]));
  grad_check "scatter" (fun t x ->
      Ad.sum_all t (Ad.scatter_sum t x [| 1; 0; 1 |] ~rows:2));
  grad_check "scale_rows" (fun t x ->
      Ad.sum_all t (Ad.scale_rows t x [| 0.5; -1.0; 2.0 |]))

let test_grad_bias_and_bce () =
  let c14 = fixed_const 1 4 13 and c41 = fixed_const 4 1 14 in
  grad_check "add_row_bias" (fun t x ->
      Ad.sum_all t (Ad.add_row_bias t x (c14 t)));
  grad_check "bce" (fun t x ->
      Ad.bce_with_logits t (Ad.mean_rows t (Ad.matmul t x (c41 t))) 1.0)

let test_grad_attention_composite () =
  grad_check "attention composite" (fun t x ->
      let q = Ad.frobenius_normalize t x in
      let ktv = Ad.matmul_ta t q x in
      let y = Ad.matmul t q ktv in
      let ones = Ad.const t (Mat.create 3 1 1.0) in
      let d = Ad.add_scalar t 1.0 (Ad.matmul t q (Ad.matmul_ta t q ones)) in
      Ad.sum_all t (Ad.div_rows t y d))

let test_forward_values () =
  let tape = Ad.tape () in
  let x = Ad.const tape (Mat.of_arrays [| [| -1.0; 2.0 |] |]) in
  checkf "relu clamps" 0.0 (Mat.get (Ad.value (Ad.relu tape x)) 0 0);
  checkf "relu passes" 2.0 (Mat.get (Ad.value (Ad.relu tape x)) 0 1);
  checkf "sigmoid(0)=0.5" 0.5
    (Mat.get (Ad.value (Ad.sigmoid tape (Ad.scale tape 0.0 x))) 0 0)

let test_bce_values () =
  let tape = Ad.tape () in
  let z = Ad.const tape (Mat.of_arrays [| [| 0.0 |] |]) in
  checkf "bce at logit 0" (log 2.0) (Mat.get (Ad.value (Ad.bce_with_logits tape z 1.0)) 0 0);
  let big = Ad.const tape (Mat.of_arrays [| [| 50.0 |] |]) in
  checkb "confident correct ~ 0" true
    (Mat.get (Ad.value (Ad.bce_with_logits tape big 1.0)) 0 0 < 1e-9);
  checkb "confident wrong ~ 50" true
    (Float.abs (Mat.get (Ad.value (Ad.bce_with_logits tape big 0.0)) 0 0 -. 50.0) < 1e-6)

let test_backward_requires_scalar () =
  let tape = Ad.tape () in
  let x = Ad.const tape (Mat.zeros 2 2) in
  Alcotest.check_raises "non-scalar"
    (Invalid_argument "Ad.backward: output must be scalar") (fun () ->
      Ad.backward tape x)

let test_grad_accumulates_across_uses () =
  (* f(x) = sum(x) + sum(x): gradient must be 2 everywhere. *)
  let p = Nn.Param.create "p" (Mat.create 2 2 1.0) in
  let tape = Ad.tape () in
  let x = Ad.of_param tape p in
  let l = Ad.add tape (Ad.sum_all tape x) (Ad.sum_all tape x) in
  Ad.backward tape l;
  checkf "double use doubles grad" 2.0 (Mat.get p.Nn.Param.grad 0 0)

(* --- layers --- *)

let test_linear_shapes_and_bias () =
  let rng = Util.Rng.create 3 in
  let layer = Nn.Layer.Linear.create rng ~in_dim:4 ~out_dim:2 ~name:"lin" in
  let tape = Ad.tape () in
  let x = Ad.const tape (Mat.create 5 4 1.0) in
  let y = Nn.Layer.Linear.forward tape layer x in
  checkb "output shape" true (Mat.shape (Ad.value y) = (5, 2));
  Alcotest.(check int) "params" 2 (List.length (Nn.Layer.Linear.params layer));
  let nobias = Nn.Layer.Linear.create ~bias:false rng ~in_dim:4 ~out_dim:2 ~name:"nb" in
  Alcotest.(check int) "no bias params" 1 (List.length (Nn.Layer.Linear.params nobias))

let test_mlp_structure () =
  let rng = Util.Rng.create 3 in
  let mlp = Nn.Layer.Mlp.create rng ~dims:[ 4; 8; 2 ] ~name:"mlp" in
  Alcotest.(check int) "two layers x (w,b)" 4 (List.length (Nn.Layer.Mlp.params mlp));
  let tape = Ad.tape () in
  let x = Ad.const tape (Mat.create 3 4 0.5) in
  checkb "output shape" true (Mat.shape (Ad.value (Nn.Layer.Mlp.forward tape mlp x)) = (3, 2));
  Alcotest.check_raises "one dim" (Invalid_argument "Mlp.create: need at least two dims")
    (fun () -> ignore (Nn.Layer.Mlp.create rng ~dims:[ 4 ] ~name:"bad"))

(* The tape-free layer entry point must reproduce the training forward
   bit for bit: same matmul summation order, same bias add. The full
   engine (ReLU, pooling, attention) is checked against the tape in
   test_core. *)
let test_infer_matches_forward () =
  let rng = Util.Rng.create 17 in
  let layer = Nn.Layer.Linear.create rng ~in_dim:6 ~out_dim:4 ~name:"lin" in
  let x = Mat.random_uniform rng 5 6 1.0 in
  let tape = Ad.tape () in
  let taped = Ad.value (Nn.Layer.Linear.forward tape layer (Ad.const tape x)) in
  let into = Mat.zeros 5 4 in
  Nn.Layer.Linear.infer_into layer ~out:into x;
  let same = ref true in
  for i = 0 to Mat.rows taped - 1 do
    for j = 0 to Mat.cols taped - 1 do
      if
        Int64.bits_of_float (Mat.get taped i j)
        <> Int64.bits_of_float (Mat.get into i j)
      then same := false
    done
  done;
  checkb "linear infer_into = forward" true !same

(* --- optimisers --- *)

let quadratic_loss p tape =
  (* loss = sum((x - 3)^2) with minimum at x = 3 *)
  let x = Ad.of_param tape p in
  let shifted = Ad.add_scalar tape (-3.0) x in
  Ad.sum_all tape (Ad.mul tape shifted shifted)

let run_optimiser make_opt =
  let p = Nn.Param.create "p" (Mat.create 2 2 0.0) in
  let opt = make_opt [ p ] in
  for _ = 1 to 500 do
    let tape = Ad.tape () in
    let l = quadratic_loss p tape in
    Ad.backward tape l;
    Nn.Optim.step opt
  done;
  Mat.get p.Nn.Param.value 0 0

let test_adam_minimises_quadratic () =
  let final = run_optimiser (Nn.Optim.adam ~lr:0.05) in
  checkb "near 3" true (Float.abs (final -. 3.0) < 0.05)

let test_sgd_minimises_quadratic () =
  let final = run_optimiser (Nn.Optim.sgd ~momentum:0.5 ~lr:0.01) in
  checkb "near 3" true (Float.abs (final -. 3.0) < 0.05)

let test_step_zeroes_grads () =
  let p = Nn.Param.create "p" (Mat.create 1 1 0.0) in
  let opt = Nn.Optim.adam ~lr:0.1 [ p ] in
  let tape = Ad.tape () in
  Ad.backward tape (quadratic_loss p tape);
  checkb "grad nonzero after backward" true (Mat.get p.Nn.Param.grad 0 0 <> 0.0);
  Nn.Optim.step opt;
  checkf "grad zeroed" 0.0 (Mat.get p.Nn.Param.grad 0 0)

let test_grad_norm () =
  let p = Nn.Param.create "p" (Mat.create 1 1 0.0) in
  let opt = Nn.Optim.adam ~lr:0.1 [ p ] in
  checkf "zero before" 0.0 (Nn.Optim.grad_norm opt);
  let tape = Ad.tape () in
  Ad.backward tape (quadratic_loss p tape);
  checkf "matches hand computation" 6.0 (Nn.Optim.grad_norm opt)

(* --- checkpoint --- *)

let test_checkpoint_roundtrip () =
  let rng = Util.Rng.create 21 in
  let p1 = Nn.Param.create "layer.weight" (Mat.random_uniform rng 3 4 2.0) in
  let p2 = Nn.Param.create "layer.bias" (Mat.random_uniform rng 1 4 2.0) in
  let text = Nn.Checkpoint.encode ~epochs:7 [ p1; p2 ] in
  let q1 = Nn.Param.create "layer.weight" (Mat.zeros 3 4) in
  let q2 = Nn.Param.create "layer.bias" (Mat.zeros 1 4) in
  (match Nn.Checkpoint.of_string_result text [ q1; q2 ] with
  | Ok epochs -> checki "epoch count restored" 7 epochs
  | Error e -> Alcotest.failf "roundtrip: %s" (Runtime.Error.to_string e));
  checkb "weight restored" true (Mat.approx_equal p1.Nn.Param.value q1.Nn.Param.value);
  checkb "bias restored" true (Mat.approx_equal p2.Nn.Param.value q2.Nn.Param.value)

let expect_corrupt what = function
  | Error (Runtime.Error.Corrupt _) -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e ->
    Alcotest.failf "%s: wrong error: %s" what (Runtime.Error.to_string e)

let test_checkpoint_errors () =
  let p = Nn.Param.create "a" (Mat.zeros 2 2) in
  let text = Nn.Checkpoint.encode ~epochs:0 [ p ] in
  let missing = Nn.Param.create "b" (Mat.zeros 2 2) in
  expect_corrupt "missing param"
    (Nn.Checkpoint.of_string_result text [ missing ]);
  let wrong_shape = Nn.Param.create "a" (Mat.zeros 3 3) in
  expect_corrupt "shape mismatch"
    (Nn.Checkpoint.of_string_result text [ wrong_shape ])

(* Regression: a payload with the same parameter block twice used to
   silently keep the last occurrence; it must be a typed error. *)
let test_checkpoint_duplicate_param () =
  let p = Nn.Param.create "a" (Mat.zeros 1 2) in
  let text = Nn.Checkpoint.encode ~epochs:0 [ p; p ] in
  let q = Nn.Param.create "a" (Mat.zeros 1 2) in
  match Nn.Checkpoint.of_string_result text [ q ] with
  | Error (Runtime.Error.Corrupt { detail; _ }) ->
    checkb "detail names the duplicate" true
      (String.length detail >= 9 && String.sub detail 0 9 = "duplicate")
  | Ok _ -> Alcotest.fail "duplicate parameter block must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Runtime.Error.to_string e)

(* fixtures/v2.ckpt was written by the NSCKPT 2 writer, before
   checkpoints became records: it still loads, as 0 epochs, to the
   values it was saved with. fixtures/v3-no-epochs.ckpt was written by
   the first NSCKPT3 writer, whose payload has no "epochs" line: it
   loads under its seq, 4. A headerless payload (the format before
   NSCKPT 2) has no CRC and is refused. *)
let test_checkpoint_compat_fixtures () =
  let values m =
    Array.init (Mat.rows m * Mat.cols m) (fun k ->
        Mat.get m (k / Mat.cols m) (k mod Mat.cols m))
  in
  List.iter
    (fun (file, expected_epochs) ->
      let w = Nn.Param.create "layer.weight" (Mat.zeros 2 3) in
      let b = Nn.Param.create "layer.bias" (Mat.zeros 1 3) in
      (match Nn.Checkpoint.load_result ("fixtures/" ^ file) [ w; b ] with
      | Ok (Nn.Checkpoint.Primary, epochs) ->
        checki (file ^ " epoch count") expected_epochs epochs
      | Ok (Nn.Checkpoint.Backup, _) -> Alcotest.failf "%s read as damaged" file
      | Error e -> Alcotest.failf "%s: %s" file (Runtime.Error.to_string e));
      checkb (file ^ " weight values") true
        (values w.Nn.Param.value
        = [| 0.1; -2.5; 1e-3; 3.141592653589793; 0.0; 1e10 |]);
      checkb (file ^ " bias values") true
        (values b.Nn.Param.value = [| -0.75; 2.0; 1e-300 |]))
    [ ("v2.ckpt", 0); ("v3-no-epochs.ckpt", 4) ];
  let q = Nn.Param.create "w" (Mat.zeros 1 2) in
  expect_corrupt "headerless payload"
    (Nn.Checkpoint.of_string_result "w 1 2\n0.5 1.5 \n" [ q ]);
  checkb "params untouched" true
    (Mat.approx_equal (Mat.zeros 1 2) q.Nn.Param.value)

let with_ckpt_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nsckpt-test-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f (Filename.concat dir "model.ckpt"))

(* A resumed run starts at the epoch count of the copy that loads: a
   corrupt primary saved after 4 epochs falls back to the .bak saved
   after 3, and resuming must say 3. *)
let test_checkpoint_backup_fallback () =
  with_ckpt_dir (fun path ->
      let rng = Util.Rng.create 24 in
      let p = Nn.Param.create "w" (Mat.random_uniform rng 2 2 1.0) in
      Nn.Checkpoint.save ~epochs:3 path [ p ];
      let good = Mat.copy p.Nn.Param.value in
      (* Second save promotes the first file to .bak ... *)
      Mat.set p.Nn.Param.value 0 0 99.0;
      Nn.Checkpoint.save ~epochs:4 path [ p ];
      checkb ".bak exists" true (Sys.file_exists (Nn.Checkpoint.backup_path path));
      (* ... then corrupt the primary in place: load must fall back. *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string text in
      Bytes.set b (Bytes.length b - 2)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b - 2)) lxor 0x40));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let q = Nn.Param.create "w" (Mat.zeros 2 2) in
      match Nn.Checkpoint.load_result path [ q ] with
      | Ok (Nn.Checkpoint.Backup, epochs) ->
        checki "backup holds the previous epoch count" 3 epochs;
        checkb "backup holds the previous weights" true
          (Mat.approx_equal good q.Nn.Param.value)
      | Ok (Nn.Checkpoint.Primary, _) ->
        Alcotest.fail "corrupt primary accepted"
      | Error e -> Alcotest.failf "no fallback: %s" (Runtime.Error.to_string e));
  (* An empty primary parses to no parameters; saving over it must not
     promote it over the last-good .bak. *)
  with_ckpt_dir (fun path ->
      let w v = Nn.Param.create "w" (Mat.of_array ~rows:1 ~cols:1 [| v |]) in
      Nn.Checkpoint.save ~epochs:1 path [ w 1.0 ];
      Nn.Checkpoint.save ~epochs:2 path [ w 2.0 ];
      Out_channel.with_open_bin path ignore;
      Nn.Checkpoint.save ~epochs:3 path [ w 3.0 ];
      let q = w 0.0 in
      match Nn.Checkpoint.load_result (Nn.Checkpoint.backup_path path) [ q ] with
      | Ok _ -> checkb ".bak still holds w=1" true (Mat.get q.Nn.Param.value 0 0 = 1.0)
      | Error e -> Alcotest.failf ".bak clobbered: %s" (Runtime.Error.to_string e))

let test_checkpoint_corruption_detected () =
  with_ckpt_dir (fun path ->
      let rng = Util.Rng.create 25 in
      let p = Nn.Param.create "w" (Mat.random_uniform rng 2 2 1.0) in
      Nn.Checkpoint.save ~epochs:0 path [ p ];
      let text = In_channel.with_open_bin path In_channel.input_all in
      (* Truncation must be a typed error (no .bak here). *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 (String.length text / 2)));
      let q = Nn.Param.create "w" (Mat.zeros 2 2) in
      expect_corrupt "truncated checkpoint"
        (Nn.Checkpoint.load_result path [ q ]);
      checkb "params untouched" true (Mat.approx_equal (Mat.zeros 2 2) q.Nn.Param.value))

(* The epoch count is inside the CRC: no single flipped bit anywhere in
   a saved checkpoint loads, under its own count or any other. A flip
   in the header's seq digits is caught by the payload's "epochs" line,
   which the record's CRC covers. *)
let test_checkpoint_every_bit_flip_rejected () =
  let rng = Util.Rng.create 26 in
  let p = Nn.Param.create "w" (Mat.random_uniform rng 2 2 1.0) in
  let text = Nn.Checkpoint.encode ~epochs:3 [ p ] in
  (match Nn.Checkpoint.of_string_result text [ Nn.Param.create "w" (Mat.zeros 2 2) ] with
  | Ok epochs -> checki "intact copy loads with its count" 3 epochs
  | Error e -> Alcotest.failf "intact copy: %s" (Runtime.Error.to_string e));
  for byte = 0 to String.length text - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string text in
      Bytes.set b byte (Char.chr (Char.code text.[byte] lxor (1 lsl bit)));
      let q = Nn.Param.create "w" (Mat.zeros 2 2) in
      match Nn.Checkpoint.of_string_result (Bytes.to_string b) [ q ] with
      | Error (Runtime.Error.Corrupt _) -> ()
      | Ok epochs ->
        Alcotest.failf "bit %d of byte %d flipped: loaded as %d epochs" bit
          byte epochs
      | Error e ->
        Alcotest.failf "bit %d of byte %d flipped: wrong error: %s" bit byte
          (Runtime.Error.to_string e)
    done
  done

let test_checkpoint_file_io () =
  let rng = Util.Rng.create 22 in
  let p = Nn.Param.create "w" (Mat.random_uniform rng 2 2 1.0) in
  let path = Filename.temp_file "neuroselect" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Checkpoint.save ~epochs:0 path [ p ];
      let q = Nn.Param.create "w" (Mat.zeros 2 2) in
      Nn.Checkpoint.load path [ q ];
      checkb "file roundtrip" true (Mat.approx_equal p.Nn.Param.value q.Nn.Param.value))

(* --- generic training --- *)

(* Learn "sum of inputs > 0" on 1x4 row vectors through a tiny MLP. *)
let test_train_learns_toy_problem () =
  let rng = Util.Rng.create 31 in
  let mlp = Nn.Layer.Mlp.create rng ~dims:[ 4; 8; 1 ] ~name:"toy" in
  let spec =
    {
      Nn.Train.params = Nn.Layer.Mlp.params mlp;
      forward =
        (fun tape m ->
          Nn.Layer.Mlp.forward tape mlp (Ad.const tape m));
    }
  in
  let examples =
    Array.init 60 (fun _ ->
        let v = Array.init 4 (fun _ -> Util.Rng.uniform rng (-1.0) 1.0) in
        (Mat.row_vector v, Array.fold_left ( +. ) 0.0 v > 0.0))
  in
  let history = Nn.Train.fit ~epochs:60 ~lr:0.01 spec examples in
  let losses = history.Nn.Train.epoch_losses in
  checkb "loss decreased" true (losses.(59) < losses.(0));
  let correct =
    Array.fold_left
      (fun acc (m, l) -> if Nn.Train.predict spec m = l then acc + 1 else acc)
      0 examples
  in
  checkb "fits the training set" true (correct >= 55)

let test_train_empty_dataset () =
  let spec =
    { Nn.Train.params = []; forward = (fun tape _ -> Ad.const tape (Mat.zeros 1 1)) }
  in
  Alcotest.check_raises "empty" (Invalid_argument "Train.fit: empty dataset")
    (fun () -> ignore (Nn.Train.fit spec ([||] : (unit * bool) array)))

let test_auto_pos_weight () =
  let data = [| ((), true); ((), false); ((), false); ((), false) |] in
  checkf "3 neg / 1 pos" 3.0 (Nn.Train.auto_pos_weight data);
  checkf "degenerate all pos" 1.0 (Nn.Train.auto_pos_weight [| ((), true) |]);
  checkf "clamped" 10.0
    (Nn.Train.auto_pos_weight
       (Array.append [| ((), true) |] (Array.make 50 ((), false))))

let suite =
  [
    Alcotest.test_case "grad basic ops" `Quick test_grad_basic_ops;
    Alcotest.test_case "grad add/sub" `Quick test_grad_add_sub;
    Alcotest.test_case "grad matmul" `Quick test_grad_matmul;
    Alcotest.test_case "grad pooling" `Quick test_grad_pooling;
    Alcotest.test_case "max_rows values" `Quick test_max_rows_values;
    Alcotest.test_case "grad normalisations" `Quick test_grad_normalisations;
    Alcotest.test_case "grad sparse ops" `Quick test_grad_sparse_ops;
    Alcotest.test_case "grad bias and bce" `Quick test_grad_bias_and_bce;
    Alcotest.test_case "grad attention composite" `Quick test_grad_attention_composite;
    Alcotest.test_case "forward values" `Quick test_forward_values;
    Alcotest.test_case "bce values" `Quick test_bce_values;
    Alcotest.test_case "backward requires scalar" `Quick test_backward_requires_scalar;
    Alcotest.test_case "grad accumulates" `Quick test_grad_accumulates_across_uses;
    Alcotest.test_case "linear shapes" `Quick test_linear_shapes_and_bias;
    Alcotest.test_case "mlp structure" `Quick test_mlp_structure;
    Alcotest.test_case "infer matches forward" `Quick
      test_infer_matches_forward;
    Alcotest.test_case "adam minimises" `Quick test_adam_minimises_quadratic;
    Alcotest.test_case "sgd minimises" `Quick test_sgd_minimises_quadratic;
    Alcotest.test_case "step zeroes grads" `Quick test_step_zeroes_grads;
    Alcotest.test_case "grad norm" `Quick test_grad_norm;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint errors" `Quick test_checkpoint_errors;
    Alcotest.test_case "checkpoint duplicate param" `Quick
      test_checkpoint_duplicate_param;
    Alcotest.test_case "checkpoint compat fixtures" `Quick
      test_checkpoint_compat_fixtures;
    Alcotest.test_case "checkpoint backup fallback" `Quick
      test_checkpoint_backup_fallback;
    Alcotest.test_case "checkpoint corruption detected" `Quick
      test_checkpoint_corruption_detected;
    Alcotest.test_case "checkpoint every bit flip rejected" `Quick
      test_checkpoint_every_bit_flip_rejected;
    Alcotest.test_case "checkpoint file io" `Quick test_checkpoint_file_io;
    Alcotest.test_case "train learns toy problem" `Quick test_train_learns_toy_problem;
    Alcotest.test_case "train empty dataset" `Quick test_train_empty_dataset;
    Alcotest.test_case "auto pos weight" `Quick test_auto_pos_weight;
  ]
