(* Unit checks of the benchmark's own logic: percentiles, quartiles and
   the bound rule of compare mode, answer checking, and agreement
   between Spec and BENCHMARK.json. *)

open E2e_kit

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close_to a b = Float.abs (a -. b) < 1e-9

let test_percentile () =
  let a = Stats.sorted_of_list (List.init 200 (fun i -> float_of_int (i + 1))) in
  check "p50 of 1..200 is 100" (Stats.percentile a 50.0 = 100.0);
  check "p95 of 1..200 is 190" (Stats.percentile a 95.0 = 190.0);
  check "p100 is the max" (Stats.percentile a 100.0 = 200.0);
  check "p95 leaves 10 samples beyond it"
    (Array.length (Array.of_list (List.filter (fun x -> x > Stats.percentile a 95.0)
                                    (Array.to_list a))) = 10);
  check "empty percentile is nan" (Float.is_nan (Stats.percentile [||] 50.0));
  let with_failure = Stats.sorted_of_list [ 1.0; 2.0; infinity ] in
  check "a failed request misses every limit"
    (Stats.percentile with_failure 95.0 = infinity)

(* Expected values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles xs in
  let eq (a, b, c) (x, y, z) = close_to a x && close_to b y && close_to c z in
  check "quartiles of 1..10" (eq (q (List.init 10 (fun i -> float_of_int (i + 1))))
                                (2.75, 5.5, 8.25));
  check "quartiles of two samples" (eq (q [ 1.0; 2.0 ]) (0.75, 1.5, 2.25));
  check "quartiles of three samples" (eq (q [ 3.0; 1.0; 2.0 ]) (1.0, 2.0, 3.0));
  check "quartiles of five samples"
    (eq (q [ 5.0; 1.0; 4.0; 2.0; 3.0 ]) (1.5, 3.0, 4.5));
  check "median of an even count" (close_to (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5)

let test_bounds () =
  check "medians within the bound agree"
    (Stats.medians_agree ~bound:0.1 [ 10.0; 11.0; 9.0 ] [ 10.5; 10.9; 10.2 ]);
  check "medians beyond the bound disagree"
    (not (Stats.medians_agree ~bound:0.1 [ 10.0; 11.0; 9.0 ] [ 12.0; 12.5; 11.5 ]));
  check "a faster median beyond the bound also disagrees"
    (not (Stats.medians_agree ~bound:0.1 [ 10.0 ] [ 8.0 ]))

let test_answer_checks () =
  let f = Cnf.Formula.of_dimacs_lists ~num_vars:2 [ [ 1; 2 ]; [ -1 ] ] in
  let model a b = Cdcl.Solver.Sat [| false; a; b |] in
  check "a satisfying model passes"
    (Instances.check ~truth:Instances.Sat f (model false true) = Ok true);
  check "a wrong model fails"
    (Result.is_error (Instances.check ~truth:Instances.Sat f (model true true)));
  check "UNSAT on a SAT instance fails"
    (Result.is_error (Instances.check ~truth:Instances.Sat f Cdcl.Solver.Unsat));
  check "SAT on an UNSAT instance fails"
    (Result.is_error (Instances.check ~truth:Instances.Unsat f (model false true)));
  check "unknown only lowers the solved count"
    (Instances.check ~truth:Instances.Unsat f Cdcl.Solver.Unknown = Ok false);
  let rng = Util.Rng.create 3 in
  let v = Instances.variant rng f in
  check "a variant keeps the verdict"
    (match Cdcl.Solver.solve_formula v with
    | Cdcl.Solver.Sat m, _ -> Cdcl.Solver.check_model v m
    | _ -> false)

(* BENCHMARK.json at the repository root states the same table. *)
let test_benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse text with
  | Error e -> check ("BENCHMARK.json parses: " ^ e) false
  | Ok j ->
    let list key =
      Option.value (Option.bind (Obs.Json.member key j) Obs.Json.to_list_opt)
        ~default:[]
    in
    let str key o = Option.bind (Obs.Json.member key o) Obs.Json.to_string_opt in
    let same_metrics key (ms : Spec.metric list) =
      let entries = list key in
      check (key ^ " lists every metric") (List.length entries = List.length ms);
      List.iter2
        (fun o (m : Spec.metric) ->
          check (key ^ " " ^ m.name)
            (str "name" o = Some m.name
            && str "unit" o = Some m.unit_
            && str "better" o = Some (Spec.better_name m.better)
            &&
            match Obs.Json.member "bound" o with
            | None -> key = "per_layer"
            | Some b -> Obs.Json.to_float_opt b = Some m.bound))
        (List.filteri (fun i _ -> i < List.length ms) entries)
        (List.filteri (fun i _ -> i < List.length entries) ms)
    in
    same_metrics "end_to_end" Spec.end_to_end;
    same_metrics "per_layer" Spec.per_layer;
    check "workloads match"
      (List.map (str "name") (list "workloads")
      = List.map (fun (w, _) -> Some w) Spec.workloads)

let () =
  test_percentile ();
  test_quartiles ();
  test_bounds ();
  test_answer_checks ();
  test_benchmark_json ();
  if !failures > 0 then exit 1
