(* Instance universes and their checked-in verdict manifests.

   Each workload draws its inputs from a pinned universe of base
   instances whose true verdicts were established once, offline
   ([--regen-expected]): SAT by a checked model, UNSAT by a DRUP proof
   replayed through Cdcl.Drup_check (or by construction for pigeonhole
   and parity contradictions, whose proofs are too long to replay).
   The campaign solves the bases themselves in a seeded order. The
   service workloads turn each base into a variant by renaming
   variables and shuffling clauses: variants keep the base's verdict
   but have their own fingerprint, so every request is new to the
   decision cache and every UNSAT answer is still checkable. *)

type base = {
  name : string;
  family : string;
  formula : Cnf.Formula.t;
}

type truth = Sat | Unsat

(* --- universes ------------------------------------------------------------- *)

(* The campaign universe is one 2022 year of the paper's six-family
   mix (Table 3's test year), generated from a pinned seed. *)
let campaign_universe_seed = 2022
let campaign_universe_size = 256

let campaign_bases () =
  List.map
    (fun (i : Gen.Dataset.instance) ->
      { name = i.name; family = i.family; formula = i.formula })
    (Gen.Dataset.generate_year ~seed:campaign_universe_seed
       ~per_year:campaign_universe_size Gen.Dataset.year_test)

(* Medium instances for the service workloads: in-process solves take
   a few milliseconds, so parent-side inference and the pool dominate.
   Multipliers stay at 4 bits: a 5-bit miter takes about 48 ms to
   refute, right at ns-serve's 50 ms select tick, and requests that
   straddle the tick made p95 jump between tick multiples. *)
let serve_universe_seed = 7
let serve_universe_size = 256

let serve_bases () =
  let rng = Util.Rng.create serve_universe_seed in
  List.init serve_universe_size (fun i ->
      let family, formula =
        match i mod 4 with
        | 0 ->
          ( "color",
            Gen.Coloring.hard_3col rng ~vertices:(Util.Rng.int_in rng 35 70) )
        | 1 ->
          let width = Util.Rng.int_in rng 8 24 in
          ("adder", Gen.Circuits.adder_miter ~faulty:(Util.Rng.bool rng) width)
        | 2 ->
          ("mult", Gen.Circuits.multiplier_miter ~faulty:(Util.Rng.bool rng) 4)
        | _ ->
          let num_vars = Util.Rng.int_in rng 100 200 in
          let num_clauses = int_of_float (3.5 *. float_of_int num_vars) in
          ("ksat", Gen.Ksat.generate rng ~num_vars ~num_clauses ~k:3)
      in
      { name = Printf.sprintf "serve-%s-%03d" family i; family; formula })

(* Rename variables by a random permutation, then shuffle clause and
   literal order: same verdict, different fingerprint. *)
let variant rng (f : Cnf.Formula.t) =
  let n = Cnf.Formula.num_vars f in
  let names = Array.init n (fun i -> i + 1) in
  Util.Rng.shuffle rng names;
  let perm = Array.make (n + 1) 0 in
  Array.iteri (fun i v -> perm.(i + 1) <- v) names;
  Cnf.Formula.shuffle rng (Cnf.Formula.relabel f ~perm)

(* --- manifests -------------------------------------------------------------- *)

let manifest_path ~dir universe = Filename.concat dir (universe ^ ".txt")

let truth_name = function Sat -> "sat" | Unsat -> "unsat"

let load_manifest path =
  let tbl = Hashtbl.create 512 in
  let ic = open_in path in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ name; "sat" ] -> Hashtbl.replace tbl name Sat
         | [ name; "unsat" ] -> Hashtbl.replace tbl name Unsat
         | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line)
     done
   with End_of_file -> close_in ic);
  tbl

(* The bases whose verdict the manifest records, with that verdict. *)
let with_truth ~dir universe bases =
  let tbl = load_manifest (manifest_path ~dir universe) in
  Array.of_list
    (List.filter_map
       (fun b -> Option.map (fun t -> (b, t)) (Hashtbl.find_opt tbl b.name))
       bases)

(* An answer is wrong when it contradicts the recorded verdict or its
   model does not satisfy the formula that was sent. [Unknown] is never
   wrong; it only lowers the solved count. *)
let check ~truth formula (result : Cdcl.Solver.result) =
  match (result, truth) with
  | Cdcl.Solver.Sat _, Unsat -> Error "SAT answer on an UNSAT instance"
  | Cdcl.Solver.Sat m, Sat ->
    if Cdcl.Solver.check_model formula m then Ok true
    else Error "model does not satisfy the formula"
  | Cdcl.Solver.Unsat, Sat -> Error "UNSAT answer on a SAT instance"
  | Cdcl.Solver.Unsat, Unsat -> Ok true
  | Cdcl.Solver.Unknown, _ -> Ok false

(* --- regeneration ------------------------------------------------------------ *)

let unsat_by_construction b = b.family = "php" || b.family = "parity"

(* Establish one base's verdict: solve with a generous budget, check a
   model or replay the DRUP proof. [None] when the budget runs out;
   such bases are left out of the manifest and so out of the universe. *)
let establish b =
  if unsat_by_construction b then Some Unsat
  else
  let config =
    Cdcl.Config.with_budget ~max_propagations:50_000_000 ~max_wall_seconds:60.0
      Cdcl.Config.default
  in
  let solver = Cdcl.Solver.create ~config b.formula in
  let proof = Cdcl.Drup.create () in
  Cdcl.Drup.attach proof solver;
  match Cdcl.Solver.solve solver with
  | Cdcl.Solver.Unknown -> None
  | Cdcl.Solver.Sat m ->
    if Cdcl.Solver.check_model b.formula m then Some Sat
    else failwith (b.name ^ ": solver model does not check")
  | Cdcl.Solver.Unsat -> (
    Cdcl.Drup.conclude_unsat proof;
    match Cdcl.Drup_check.check_solver_proof b.formula proof with
    | Cdcl.Drup_check.Valid -> Some Unsat
    | Cdcl.Drup_check.Invalid { line; reason } ->
      failwith (Printf.sprintf "%s: DRUP proof rejected at line %d: %s"
                  b.name line reason))

let regen ~dir universe bases =
  let path = manifest_path ~dir universe in
  let oc = open_out path in
  Printf.fprintf oc
    "# Verdicts of the %s universe, written by e2e.exe --regen-expected.\n\
     # sat: model checked; unsat: DRUP proof checked (php/parity: by\n\
     # construction). Bases left unsolved within the budget are omitted.\n"
    universe;
  let kept = ref 0 and omitted = ref 0 in
  List.iter
    (fun b ->
      match establish b with
      | Some t ->
        incr kept;
        Printf.fprintf oc "%s %s\n%!" b.name (truth_name t)
      | None ->
        incr omitted;
        Printf.eprintf "c %s: unsolved within the budget, omitted\n%!" b.name)
    bases;
  close_out oc;
  Printf.printf "%s: %d verdicts, %d omitted\n%!" path !kept !omitted
