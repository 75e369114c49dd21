module Ad = Nn.Ad
module Bigraph = Satgraph.Bigraph

type config = {
  hidden_dim : int;
  hgt_layers : int;
  mpnn_per_hgt : int;
  use_attention : bool;
  normalize_readout : bool;
  head_hidden : int;
  seed : int;
}

let paper_config =
  {
    hidden_dim = 32;
    hgt_layers = 2;
    mpnn_per_hgt = 3;
    use_attention = true;
    normalize_readout = true;
    head_hidden = 16;
    seed = 1;
  }

let small_config =
  {
    hidden_dim = 8;
    hgt_layers = 1;
    mpnn_per_hgt = 2;
    use_attention = true;
    normalize_readout = true;
    head_hidden = 8;
    seed = 1;
  }

type t = {
  cfg : config;
  hgts : Hgt.t list;
  head : Nn.Layer.Mlp.t;
  uid : int;  (* process-unique, for cache keys *)
  mutable generation : int;
      (* bumped whenever a checkpoint restore may have replaced the
         weights; external caches key on it *)
  engine : Infer.t;
}

let uid_counter = ref 0

let create cfg =
  if cfg.hgt_layers < 1 then invalid_arg "Model.create: hgt_layers >= 1";
  let rng = Util.Rng.create cfg.seed in
  let rec build i var_in clause_in =
    if i >= cfg.hgt_layers then []
    else begin
      let layer =
        Hgt.create rng ~var_in ~clause_in ~hidden:cfg.hidden_dim
          ~mpnn_layers:cfg.mpnn_per_hgt ~use_attention:cfg.use_attention
          ~name:(Printf.sprintf "hgt%d" i)
      in
      layer :: build (i + 1) cfg.hidden_dim cfg.hidden_dim
    end
  in
  let hgts = build 0 1 1 in
  let head =
    (* Readout concatenates mean and max pooling, so the head input is
       twice the hidden width. *)
    Nn.Layer.Mlp.create rng
      ~dims:[ 2 * cfg.hidden_dim; cfg.head_hidden; 1 ]
      ~name:"head"
  in
  incr uid_counter;
  {
    cfg;
    hgts;
    head;
    uid = !uid_counter;
    generation = 0;
    engine = Infer.create ~hgts ~head ~normalize_readout:cfg.normalize_readout;
  }

let config t = t.cfg
let uid t = t.uid
let generation t = t.generation

let params t = List.concat_map Hgt.params t.hgts @ Nn.Layer.Mlp.params t.head

let num_parameters t =
  List.fold_left (fun acc p -> acc + Nn.Param.num_elements p) 0 (params t)

let forward_logit t tape graph =
  let var_feats = Ad.const tape (Bigraph.initial_var_features graph) in
  let clause_feats = Ad.const tape (Bigraph.initial_clause_features graph) in
  let vf, _cf =
    List.fold_left
      (fun (vf, cf) hgt -> Hgt.forward tape hgt graph ~var_feats:vf ~clause_feats:cf)
      (var_feats, clause_feats) t.hgts
  in
  (* Eq. 10: READOUT over variable nodes, then the MLP head. The paper
     leaves READOUT unspecified; we concatenate mean and max pooling
     (max keeps the extremes the mean washes out), and optionally
     L2-normalise so instance-size-dependent magnitudes do not dominate
     the class signal (see DESIGN.md). *)
  let mean_pool = Ad.mean_rows tape vf in
  let max_pool = Ad.max_rows tape vf in
  let normalise p =
    if t.cfg.normalize_readout then Ad.frobenius_normalize tape p else p
  in
  let pooled = Ad.concat_cols tape (normalise mean_pool) (normalise max_pool) in
  Nn.Layer.Mlp.forward tape t.head pooled

(* The production forward runs on the tape-free engine; [forward_logit]
   stays the training path. *)
let predict t graph = Infer.predict t.engine graph

let predict_formula t formula = predict t (Bigraph.of_formula formula)

let classify t graph = predict t graph > 0.5

let save ~epochs path t = Nn.Checkpoint.save ~epochs path (params t)

let bump_generation t = t.generation <- t.generation + 1

let load path t =
  Nn.Checkpoint.load path (params t);
  bump_generation t

let load_result path t =
  let r = Nn.Checkpoint.load_result path (params t) in
  (* Even a failed restore may have overwritten some parameters before
     the error surfaced; invalidate unconditionally. *)
  bump_generation t;
  r
