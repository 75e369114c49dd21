module Journal = Runtime.Journal

type entry = {
  name : string;
  family : string;
  kissat_seconds : float;
  kissat_solved : bool;
  adaptive_seconds : float;
  adaptive_solved : bool;
  inference_seconds : float;
  chose_frequency : bool;
  probability : float;
  degraded : string option;
}

type failure = {
  instance : string;
  error : string;
}

type summary = {
  solved : int;
  median_seconds : float;
  average_seconds : float;
}

type t = {
  entries : entry list;
  kissat : summary;
  adaptive : summary;
  median_improvement_pct : float;
  failures : failure list;
  resumed : int;
  not_run : string list;
}

(* --- JSONL (de)serialisation for campaign resume --- *)

let record_of_entry (e : entry) : Journal.record =
  [
    ("name", Journal.String e.name);
    ("family", Journal.String e.family);
    ("kissat_seconds", Journal.Float e.kissat_seconds);
    ("kissat_solved", Journal.Bool e.kissat_solved);
    ("adaptive_seconds", Journal.Float e.adaptive_seconds);
    ("adaptive_solved", Journal.Bool e.adaptive_solved);
    ("inference_seconds", Journal.Float e.inference_seconds);
    ("chose_frequency", Journal.Bool e.chose_frequency);
    ("probability", Journal.Float e.probability);
    ( "degraded",
      match e.degraded with
      | None -> Journal.Null
      | Some d -> Journal.String d );
  ]

let entry_of_record r =
  let ( let* ) = Option.bind in
  let* name = Journal.find_string r "name" in
  let* family = Journal.find_string r "family" in
  let* kissat_seconds = Journal.find_float r "kissat_seconds" in
  let* kissat_solved = Journal.find_bool r "kissat_solved" in
  let* adaptive_seconds = Journal.find_float r "adaptive_seconds" in
  let* adaptive_solved = Journal.find_bool r "adaptive_solved" in
  let* inference_seconds = Journal.find_float r "inference_seconds" in
  let* chose_frequency = Journal.find_bool r "chose_frequency" in
  let* probability = Journal.find_float r "probability" in
  Some
    {
      name;
      family;
      kissat_seconds;
      kissat_solved;
      adaptive_seconds;
      adaptive_solved;
      inference_seconds;
      chose_frequency;
      probability;
      degraded = Journal.find_string r "degraded";
    }

(* Completed entries keyed by instance name; failures are not loaded
   so a resumed campaign retries them. *)
let load_completed = function
  | None -> Hashtbl.create 0
  | Some path -> (
    let table = Hashtbl.create 64 in
    match Journal.load path with
    | Error _ -> table
    | Ok (records, _dropped) ->
      List.iter
        (fun r ->
          match entry_of_record r with
          | Some e -> Hashtbl.replace table e.name e
          | None -> ())
        records;
      table)

let run ?progress ?journal ?deadline_seconds ?(jobs = 1) ?(isolate = false)
    ?mem_limit_mb model simtime instances =
  let completed = load_completed journal in
  let resumed = ref 0 in
  let failures = ref [] in
  let not_run = ref [] in
  let persist entry =
    match journal with
    | None -> ()
    | Some path -> ignore (Journal.append path (record_of_entry entry))
  in
  let say fmt = Printf.ksprintf (fun s ->
      match progress with Some f -> f s | None -> ()) fmt
  in
  let measure (i : Gen.Dataset.instance) =
    let ( let* ) = Result.bind in
    let* kissat =
      Runner.solve_protected ?deadline_seconds simtime
        Cdcl.Policy.Default i.formula
    in
    let selection = Core.Selector.select_policy model i.formula in
    let* adaptive =
      Runner.solve_protected ?deadline_seconds simtime
        selection.Core.Selector.policy i.formula
    in
    Ok
      {
        name = i.name;
        family = i.family;
        kissat_seconds = kissat.Runner.sim_seconds;
        kissat_solved = kissat.Runner.solved;
        adaptive_seconds =
          Float.min Simtime.paper_timeout_seconds
            (adaptive.Runner.sim_seconds
            +. selection.Core.Selector.inference_seconds);
        adaptive_solved = adaptive.Runner.solved;
        inference_seconds = selection.Core.Selector.inference_seconds;
        chose_frequency =
          (match selection.Core.Selector.policy with
          | Cdcl.Policy.Frequency _ -> true
          | Cdcl.Policy.Default | Cdcl.Policy.Glue_only | Cdcl.Policy.Size_only
          | Cdcl.Policy.Activity | Cdcl.Policy.Random _ -> false);
        probability = selection.Core.Selector.probability;
        degraded =
          Option.map Core.Selector.degradation_to_string
            selection.Core.Selector.degraded;
      }
  in
  let say_entry entry =
    say "  %-22s kissat %.0fs, adaptive %.0fs (p=%.2f, %s%s)" entry.name
      entry.kissat_seconds entry.adaptive_seconds entry.probability
      (if entry.chose_frequency then "frequency" else "default")
      (match entry.degraded with None -> "" | Some d -> ", DEGRADED: " ^ d)
  in
  let fail instance error =
    say "  %-22s FAILED: %s" instance error;
    failures := { instance; error } :: !failures
  in
  (* Sequential path: measure in-process, one instance at a time,
     checking for a shutdown request between instances. *)
  let handle (i : Gen.Dataset.instance) =
    match Hashtbl.find_opt completed i.name with
    | Some entry ->
      incr resumed;
      say "  %-22s resumed from journal" entry.name;
      Some entry
    | None when Runtime.Shutdown.requested () ->
      not_run := i.name :: !not_run;
      None
    | None -> (
      match measure i with
      | Ok entry ->
        persist entry;
        say_entry entry;
        Some entry
      | Error e ->
        fail i.name (Runtime.Error.to_string e);
        None)
  in
  (* Supervised path: each instance is measured in a forked worker
     under an address-space cap, wall deadline, and heartbeat
     watchdog; the pool bounds in-flight work at [jobs], retries
     crashed/hung workers with backoff, and drains gracefully on
     SIGTERM. The worker payload is exactly the instance's journal
     line, so parallel and sequential campaigns journal identical
     bytes (modulo completion order). *)
  let handle_supervised () =
    let resumed_tbl = Hashtbl.create 16 in
    let results = Hashtbl.create 64 in
    let tasks =
      List.filter_map
        (fun (i : Gen.Dataset.instance) ->
          match Hashtbl.find_opt completed i.name with
          | Some entry ->
            incr resumed;
            Hashtbl.replace resumed_tbl entry.name entry;
            say "  %-22s resumed from journal" entry.name;
            None
          | None ->
            Some
              ( i.name,
                fun () ->
                  match measure i with
                  | Ok entry -> Ok (Journal.encode (record_of_entry entry))
                  | Error e -> Error (Runtime.Error.to_string e) ))
        instances
    in
    let on_complete (c : Runtime.Pool.completion) =
      match c.Runtime.Pool.outcome with
      | Runtime.Pool.Done payload -> (
        match Option.bind (Journal.parse_line payload) entry_of_record with
        | Some entry ->
          Hashtbl.replace results entry.name entry;
          persist entry;
          say_entry entry
        | None -> fail c.Runtime.Pool.id "unparseable worker payload")
      | Runtime.Pool.Failed msg -> fail c.Runtime.Pool.id msg
      | Runtime.Pool.Shed -> fail c.Runtime.Pool.id "shed: pool queue full"
    in
    let limits = { Runtime.Supervisor.default_limits with mem_limit_mb } in
    let batch = Runtime.Pool.run_list ~jobs ~limits ~on_complete tasks in
    not_run := List.rev batch.Runtime.Pool.not_run;
    List.filter_map
      (fun (i : Gen.Dataset.instance) ->
        match Hashtbl.find_opt resumed_tbl i.name with
        | Some _ as e -> e
        | None -> Hashtbl.find_opt results i.name)
      instances
  in
  let supervised = jobs > 1 || isolate || mem_limit_mb <> None in
  let entries =
    if supervised then handle_supervised ()
    else List.filter_map handle instances
  in
  let summarise seconds solved =
    {
      solved;
      median_seconds = Util.Stats.median seconds;
      average_seconds = Util.Stats.mean seconds;
    }
  in
  let kissat =
    summarise
      (Array.of_list (List.map (fun e -> e.kissat_seconds) entries))
      (List.length (List.filter (fun e -> e.kissat_solved) entries))
  in
  let adaptive =
    summarise
      (Array.of_list (List.map (fun e -> e.adaptive_seconds) entries))
      (List.length (List.filter (fun e -> e.adaptive_solved) entries))
  in
  let median_improvement_pct =
    if kissat.median_seconds <= 0.0 then 0.0
    else
      100.0 *. (kissat.median_seconds -. adaptive.median_seconds)
      /. kissat.median_seconds
  in
  {
    entries;
    kissat;
    adaptive;
    median_improvement_pct;
    failures = List.rev !failures;
    resumed = !resumed;
    not_run = List.rev !not_run;
  }

let print_table3 ppf t =
  Format.fprintf ppf
    "@[<v>Table 3 — runtime statistics on the test year (sim seconds)@,\
     %-20s %8s %12s %12s@,%-20s %8d %12.2f %12.2f@,%-20s %8d %12.2f %12.2f@,@,\
     median improvement: %.1f%% (paper: 11.6%%)@]"
    "solver" "solved" "median (s)" "average (s)" "Kissat" t.kissat.solved
    t.kissat.median_seconds t.kissat.average_seconds "NeuroSelect-Kissat"
    t.adaptive.solved t.adaptive.median_seconds t.adaptive.average_seconds
    t.median_improvement_pct;
  let degraded =
    List.length (List.filter (fun e -> e.degraded <> None) t.entries)
  in
  if degraded > 0 then
    Format.fprintf ppf "@.%d instance(s) ran with a degraded (default) policy"
      degraded;
  if t.resumed > 0 then
    Format.fprintf ppf "@.%d instance(s) resumed from the journal" t.resumed;
  if t.not_run <> [] then
    Format.fprintf ppf
      "@.%d instance(s) not run (campaign stopped before they started)"
      (List.length t.not_run);
  if t.failures <> [] then begin
    Format.fprintf ppf "@.%d instance(s) failed and were excluded:"
      (List.length t.failures);
    List.iter
      (fun f -> Format.fprintf ppf "@.  %s: %s" f.instance f.error)
      t.failures
  end

let print_fig7a ppf t =
  Format.fprintf ppf
    "@[<v>Figure 7a — Kissat vs NeuroSelect-Kissat (sim seconds)@,\
     %-24s %-8s %10s %10s  side@,"
    "instance" "family" "kissat" "adaptive";
  let row e =
    let side =
      if e.adaptive_seconds < e.kissat_seconds then "below (adaptive wins)"
      else if e.adaptive_seconds > e.kissat_seconds then "above"
      else "diagonal"
    in
    Format.fprintf ppf "%-24s %-8s %10.1f %10.1f  %s@," e.name e.family
      e.kissat_seconds e.adaptive_seconds side
  in
  List.iter row t.entries;
  let below =
    List.length
      (List.filter (fun e -> e.adaptive_seconds < e.kissat_seconds) t.entries)
  in
  let above =
    List.length
      (List.filter (fun e -> e.adaptive_seconds > e.kissat_seconds) t.entries)
  in
  Format.fprintf ppf "@,below diagonal %d, above %d, on %d@]" below above
    (List.length t.entries - below - above)

let print_fig7b ppf t =
  let inference =
    Array.of_list (List.map (fun e -> e.inference_seconds) t.entries)
  in
  let improvements =
    Array.of_list
      (List.filter_map
         (fun e ->
           let delta = e.kissat_seconds -. e.adaptive_seconds in
           if delta > 0.0 then Some delta else None)
         t.entries)
  in
  Format.fprintf ppf
    "@[<v>Figure 7b — inference time and runtime improvement@,\
     model inference time (s):    %a@,"
    Util.Stats.pp_box (Util.Stats.box_summary inference);
  if Array.length improvements > 0 then
    Format.fprintf ppf "solver runtime improvement (s): %a@,max improvement %.1f s@]"
      Util.Stats.pp_box
      (Util.Stats.box_summary improvements)
      (snd (Util.Stats.min_max improvements))
  else Format.fprintf ppf "solver runtime improvement: none observed@]"
