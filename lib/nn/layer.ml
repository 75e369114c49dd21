module Mat = Tensor.Mat

module Linear = struct
  type t = {
    weight : Param.t;
    bias : Param.t option;
    in_dim : int;
    out_dim : int;
    forward_seconds : Obs.Metrics.histogram;
        (* per-layer wall time, keyed by the layer name so the metric
           survives model re-creation *)
  }

  let create ?(bias = true) rng ~in_dim ~out_dim ~name =
    let weight = Param.create (name ^ ".weight") (Mat.xavier rng in_dim out_dim) in
    let bias =
      if bias then Some (Param.create (name ^ ".bias") (Mat.zeros 1 out_dim)) else None
    in
    let forward_seconds =
      Obs.Metrics.histogram ("nn.forward_seconds." ^ name)
    in
    { weight; bias; in_dim; out_dim; forward_seconds }

  let forward tape t x =
    Obs.Metrics.time t.forward_seconds (fun () ->
        let w = Ad.of_param tape t.weight in
        let y = Ad.matmul tape x w in
        match t.bias with
        | None -> y
        | Some b -> Ad.add_row_bias tape y (Ad.of_param tape b))

  let params t =
    t.weight :: (match t.bias with None -> [] | Some b -> [ b ])

  let in_dim t = t.in_dim
  let out_dim t = t.out_dim

  (* Tape-free forward: same affine map on plain matrices. No autodiff
     nodes and no per-layer histogram sample — the fast path accounts
     its time at the selector level instead of per layer. *)
  let infer_into t ~out x =
    Mat.matmul_into ~out x t.weight.Param.value;
    match t.bias with
    | None -> ()
    | Some b -> Mat.add_row_in_place out b.Param.value
end

module Mlp = struct
  type t = { layers : Linear.t list }

  let create rng ~dims ~name =
    let rec build i = function
      | a :: (b :: _ as rest) ->
        let layer =
          Linear.create rng ~in_dim:a ~out_dim:b ~name:(Printf.sprintf "%s.%d" name i)
        in
        layer :: build (i + 1) rest
      | [ _ ] | [] -> []
    in
    match dims with
    | _ :: _ :: _ -> { layers = build 0 dims }
    | _ -> invalid_arg "Mlp.create: need at least two dims"

  let forward tape t x =
    let rec go x = function
      | [] -> x
      | [ last ] -> Linear.forward tape last x
      | layer :: rest -> go (Ad.relu tape (Linear.forward tape layer x)) rest
    in
    go x t.layers

  let params t = List.concat_map Linear.params t.layers
  let linears t = t.layers
end
