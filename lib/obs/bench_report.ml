let schema = "ns.bench/1"

type kernel = {
  name : string;
  ns_per_run : float;
}

type t = {
  date : string;
  fast : bool;
  kernels : kernel list;
}

let make ~date ~fast ~kernels = { date; fast; kernels }

let kernel_json k =
  Json.Obj [ ("name", Json.String k.name); ("ns_per_run", Json.Float k.ns_per_run) ]

let fields t =
  [
    ("schema", Json.String schema);
    ("date", Json.String t.date);
    ("fast", Json.Bool t.fast);
    ("kernels", Json.List (List.map kernel_json t.kernels));
  ]

let to_json t = Json.Obj (fields t)

let ( let* ) = Result.bind

let require msg = function Some x -> Ok x | None -> Error msg

let kernel_of_json j =
  let* name =
    require "kernel missing string 'name'"
      (Option.bind (Json.member "name" j) Json.to_string_opt)
  in
  let* ns_per_run =
    require
      (Printf.sprintf "kernel %s: missing number 'ns_per_run'" name)
      (Option.bind (Json.member "ns_per_run" j) Json.to_float_opt)
  in
  Ok { name; ns_per_run }

let of_json j =
  let* s =
    require "missing 'schema'"
      (Option.bind (Json.member "schema" j) Json.to_string_opt)
  in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "schema %S, expected %S" s schema)
  in
  let* date =
    require "missing string 'date'"
      (Option.bind (Json.member "date" j) Json.to_string_opt)
  in
  let* fast =
    require "missing bool 'fast'"
      (Option.bind (Json.member "fast" j) Json.to_bool_opt)
  in
  let* kernel_list =
    require "missing 'kernels' array"
      (Option.bind (Json.member "kernels" j) Json.to_list_opt)
  in
  let* kernels =
    List.fold_left
      (fun acc k ->
        let* acc = acc in
        let* k = kernel_of_json k in
        Ok (k :: acc))
      (Ok []) kernel_list
  in
  Ok { date; fast; kernels = List.rev kernels }

(* The same document as [to_json], laid out one field and one kernel
   per line so a baseline refresh reviews as a line diff. *)
let to_lines t =
  let value = function
    | Json.List items ->
        "[\n    " ^ String.concat ",\n    " (List.map Json.to_string items)
        ^ "\n  ]"
    | v -> Json.to_string v
  in
  let field (k, v) = "  " ^ Json.to_string (Json.String k) ^ ": " ^ value v in
  "{\n" ^ String.concat ",\n" (List.map field (fields t)) ^ "\n}\n"

let write_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_lines t))

let read_file path =
  let* text =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error msg -> Error msg
  in
  let* j = Json.parse text in
  of_json j

(* --- regression gate -------------------------------------------------- *)

type comparison_entry = {
  kernel : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;
  normalized_ratio : float;
  regressed : bool;
}

type comparison = {
  entries : comparison_entry list;
  missing : string list;
  ok : bool;
}

let median xs =
  match List.sort compare xs with
  | [] -> 1.0
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let compare_kernels ?(tolerance = 0.25) ?(absolute = false) ~baseline ~current
    () =
  let current_by_name =
    List.map (fun k -> (k.name, k.ns_per_run)) current.kernels
  in
  let paired, missing =
    List.fold_left
      (fun (paired, missing) b ->
        match List.assoc_opt b.name current_by_name with
        | Some cur when b.ns_per_run > 0.0 && cur > 0.0 ->
          ((b.name, b.ns_per_run, cur) :: paired, missing)
        | Some _ -> (paired, missing) (* degenerate estimate: skip *)
        | None -> (paired, b.name :: missing))
      ([], []) baseline.kernels
  in
  let paired = List.rev paired and missing = List.rev missing in
  let ratios = List.map (fun (_, b, c) -> c /. b) paired in
  let med = median ratios in
  let entries =
    List.map
      (fun (kernel, baseline_ns, current_ns) ->
        let ratio = current_ns /. baseline_ns in
        let normalized_ratio = if med > 0.0 then ratio /. med else ratio in
        let gated = if absolute then ratio else normalized_ratio in
        {
          kernel;
          baseline_ns;
          current_ns;
          ratio;
          normalized_ratio;
          regressed = gated > 1.0 +. tolerance;
        })
      paired
  in
  {
    entries;
    missing;
    ok = missing = [] && List.for_all (fun e -> not e.regressed) entries;
  }

let pp_comparison ppf c =
  Format.fprintf ppf "@[<v>%-48s %12s %12s %7s %7s  %s@," "kernel"
    "baseline ns" "current ns" "ratio" "norm" "verdict";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-48s %12.0f %12.0f %7.2f %7.2f  %s@," e.kernel
        e.baseline_ns e.current_ns e.ratio e.normalized_ratio
        (if e.regressed then "REGRESSED" else "ok"))
    c.entries;
  List.iter
    (fun name -> Format.fprintf ppf "%-48s missing from current report@," name)
    c.missing;
  Format.fprintf ppf "%s@]" (if c.ok then "PASS" else "FAIL")
