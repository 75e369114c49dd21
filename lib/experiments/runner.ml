type run = {
  result : Cdcl.Solver.result;
  stats : Cdcl.Solver_stats.t;
  propagations : int;
  sim_seconds : float;
  solved : bool;
}

let solve_with_config ?deadline_seconds simtime config formula =
  let config =
    {
      config with
      Cdcl.Config.max_propagations = Some (Simtime.budget simtime);
      max_wall_seconds =
        (match deadline_seconds with
        | Some _ as d -> d
        | None -> config.Cdcl.Config.max_wall_seconds);
    }
  in
  let result, stats = Cdcl.Solver.solve_formula ~config formula in
  let propagations = stats.Cdcl.Solver_stats.propagations in
  {
    result;
    stats;
    propagations;
    sim_seconds = Simtime.seconds simtime propagations;
    solved = (match result with Cdcl.Solver.Sat _ | Cdcl.Solver.Unsat -> true
              | Cdcl.Solver.Unknown -> false);
  }

let solve ?deadline_seconds simtime policy formula =
  solve_with_config ?deadline_seconds simtime
    (Cdcl.Config.with_policy policy Cdcl.Config.default)
    formula

(* One instance must never take a campaign down: any exception from
   the solve is caught, retried once (transient faults recover), and
   finally surfaced as a typed error the caller can record. *)
let solve_protected ?deadline_seconds simtime policy formula =
  let attempt () =
    if Runtime.Fault.fires Runtime.Fault.Instance_crash then
      Runtime.Error.raise_
        (Runtime.Error.Injected_fault { point = "instance-solve" });
    solve ?deadline_seconds simtime policy formula
  in
  let rec go remaining =
    match attempt () with
    | run -> Ok run
    | exception e ->
      if remaining > 0 then go (remaining - 1)
      else Error (Runtime.Error.of_exn ~context:"Runner.solve_protected" e)
  in
  go 1
