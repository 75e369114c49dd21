(* e2e: the repository's end-to-end benchmark.

   One command runs a workload for a fixed time, checks every answer,
   and prints each end-to-end metric as "workload metric value unit",
   then one JSON summary line. With --trace 1 the same workload runs
   with spans recorded around calls into each layer's public functions
   (from this file, never inside lib/), and the per-layer metrics are
   printed instead. Workloads, metrics and the reasons for each are in
   README.md next to this file.

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
             [--spans FILE] [--json FILE]
     e2e.exe --compare A.jsonl B.jsonl
     e2e.exe --regen-expected

   Exit status: 0 when every check passes, 1 on a wrong answer, a
   failed check or an invalid load, 2 on a usage error. *)

open E2e_kit

let now = Unix.gettimeofday

module J = Runtime.Journal

type outcome = {
  attempted : int;
  failed : int;
  wrong : string list;  (** Answer checks that failed. *)
  invalid : string list;  (** Reasons the run does not count. *)
  e2e : (string * float) list;
  layers : (string * float) list;
}

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;
}

(* Paths relative to the repository root, where every run starts. *)
let server_exe = "_build/default/bin/serve.exe"
let expected_dir = "e2e/expected"

(* Set-up runs several times per run and reports the median, so that
   work moved into set-up shows without one slow start deciding it. *)
let setup_reps = 5

let median_setup ?(discard = ignore) f =
  let rec go k times =
    let x, t = f () in
    if k = setup_reps then (x, Stats.median (t :: times))
    else begin
      discard x;
      Gc.full_major ();
      go (k + 1) (t :: times)
    end
  in
  go 1 []

let ms x = 1000.0 *. x

(* Latency percentiles over every attempt; a failed attempt counts as
   missing every limit. *)
let latency_metrics ~failed latencies =
  let all =
    Stats.sorted_of_list (latencies @ List.init failed (fun _ -> infinity))
  in
  [
    ("latency_p50_ms", ms (Stats.percentile all 50.0));
    ("latency_p95_ms", ms (Stats.percentile all 95.0));
  ]

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(* The solver's own reduce counters. A traced section reads their
   deltas: nothing else in this process solves while it runs. *)
let reduce_counters () =
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  ( Obs.Metrics.hist_sum (Obs.Metrics.histogram "cdcl.reduce_seconds"),
    c "cdcl.reduce_passes",
    c "cdcl.clauses_deleted",
    c "cdcl.clauses_kept" )

(* Solver-layer totals over the solves of one traced section. *)
type solve_totals = {
  mutable n : int;
  mutable seconds : float;
  mutable props : int;
  mutable conflicts : int;
  reduce_start : float * int * int * int;
}

let new_totals () =
  { n = 0; seconds = 0.0; props = 0; conflicts = 0; reduce_start = reduce_counters () }

let traced_solve ?req totals ~config formula =
  let t0 = now () in
  let result, stats =
    Spans.with_span ?req "solve" (fun () ->
        Cdcl.Solver.solve_formula ~config formula)
  in
  totals.n <- totals.n + 1;
  totals.seconds <- totals.seconds +. (now () -. t0);
  totals.props <- totals.props + stats.Cdcl.Solver_stats.propagations;
  totals.conflicts <- totals.conflicts + stats.Cdcl.Solver_stats.conflicts;
  (result, stats)

let solver_layers t =
  let s0, p0, d0, k0 = t.reduce_start and s1, p1, d1, k1 = reduce_counters () in
  let deleted = d1 - d0 and kept = k1 - k0 in
  let n = float_of_int (max 1 t.n) in
  let solve_ms = ms t.seconds /. n and reduce_ms = ms (s1 -. s0) /. n in
  [
    ("solve.ms", solve_ms);
    ( "solve.props_per_s",
      if t.seconds > 0.0 then float_of_int t.props /. t.seconds else 0.0 );
    ("solve.propagations", float_of_int t.props /. n);
    ("solve.conflicts", float_of_int t.conflicts /. n);
    ("reduce.ms", reduce_ms);
    ("reduce.passes", float_of_int (p1 - p0) /. n);
    ( "reduce.deleted_ratio",
      if deleted + kept = 0 then 0.0
      else float_of_int deleted /. float_of_int (deleted + kept) );
    ("search.self_ms", solve_ms -. reduce_ms);
  ]

(* The selector's stages, timed as sibling probes on the same input:
   select_policy hides of_formula and predict (and the fingerprint when
   the cache is on), so its self time is what remains. *)
let probe_selector ?req model formula =
  Spans.with_span ?req "probe" (fun () ->
      ignore
        (Spans.with_span ?req "cnf.fingerprint" (fun () ->
             Cnf.Fingerprint.compute formula));
      let g =
        Spans.with_span ?req "graph.build" (fun () ->
            Satgraph.Bigraph.of_formula formula)
      in
      ignore (Spans.with_span ?req "infer" (fun () -> Core.Model.predict model g)))

(* [hit_ratio] of the selections were cache hits, which run only the
   fingerprint; misses also build the graph and run the model. *)
let selector_layers ~cache_on ~hit_ratio =
  let select = Spans.mean_ms "select"
  and graph = Spans.mean_ms "graph.build"
  and infer = Spans.mean_ms "infer"
  and fp = Spans.mean_ms "cnf.fingerprint" in
  [
    ("cnf.parse_ms", Spans.mean_ms "cnf.parse");
    ("cnf.fingerprint_ms", fp);
    ("graph.build_ms", graph);
    ("infer.ms", infer);
    ("select.ms", select);
    ( "select.self_ms",
      select
      -. (if cache_on then fp else 0.0)
      -. ((1.0 -. hit_ratio) *. (graph +. infer)) );
  ]

let frequency_share selections =
  let chose =
    List.length
      (List.filter
         (fun p -> match p with Cdcl.Policy.Frequency _ -> true | _ -> false)
         selections)
  in
  if selections = [] then 0.0
  else float_of_int chose /. float_of_int (List.length selections)

let trace_layers ~spans ~wall ~attributed =
  [
    ( "trace.overhead_pct",
      100.0 *. float_of_int spans *. Spans.cost_per_span () /. wall );
    ("trace.attributed_pct", 100.0 *. attributed);
  ]

(* Every per-layer metric is printed on every workload; a layer that
   is not on a workload's path reads 0. *)
let complete_layers layers =
  List.map
    (fun (m : Spec.metric) ->
      (m.name, Option.value (List.assoc_opt m.name layers) ~default:0.0))
    Spec.per_layer

(* --- campaign ----------------------------------------------------------- *)

(* Table 3's campaign user: one instance at a time in process, DIMACS
   text -> parse -> select (cache off, as Adaptive_eval runs it) ->
   solve under a fixed propagation budget. *)

let campaign_budget = 200_000

type item = {
  name : string;
  truth : Instances.truth;
  formula : Cnf.Formula.t;  (** As generated: SAT models are checked here. *)
  text : string;
}

let make_item rng ((b : Instances.base), truth) =
  let formula = Instances.variant rng b.formula in
  { name = b.name; truth; formula; text = Cnf.Dimacs.to_string formula }

let campaign_config policy =
  Cdcl.Config.with_policy policy
    (Cdcl.Config.with_budget ~max_propagations:campaign_budget
       Cdcl.Config.default)

let campaign (o : opts) =
  let setup () =
    let t0 = now () in
    let universe =
      Instances.with_truth ~dir:expected_dir "campaign"
        (Instances.campaign_bases ())
    in
    (* The whole test year in a seeded order: every run solves the same
       instances, so the seed moves the order and not the work. *)
    Util.Rng.shuffle (Util.Rng.create o.seed) universe;
    let items =
      Array.map
        (fun ((b : Instances.base), truth) ->
          { name = b.name; truth; formula = b.formula;
            text = Cnf.Dimacs.to_string b.formula })
        universe
    in
    let model = Core.Model.create Core.Model.paper_config in
    (* The first forward builds the inference engine. *)
    ignore
      (Core.Model.predict model (Satgraph.Bigraph.of_formula items.(0).formula));
    ((items, model), now () -. t0)
  in
  let (items, model), setup_s = median_setup setup in
  let wrong = ref [] and errors = ref 0 in
  let latencies = ref [] and decisive = ref 0 and answered = ref 0 in
  let selections = ref [] in
  let totals = new_totals () in
  let step req it =
    Spans.with_span ~req "instance" (fun () ->
        let t0 = now () in
        let f = Spans.with_span ~req "cnf.parse" (fun () ->
            Cnf.Dimacs.parse_string it.text) in
        let s = Spans.with_span ~req "select" (fun () ->
            Core.Selector.select_policy model f) in
        if o.trace then probe_selector ~req model f;
        let config = campaign_config s.Core.Selector.policy in
        let result, _ =
          if o.trace then traced_solve ~req totals ~config f
          else Cdcl.Solver.solve_formula ~config f
        in
        latencies := (now () -. t0) :: !latencies;
        incr answered;
        selections := s.Core.Selector.policy :: !selections;
        Spans.with_span ~req "check" (fun () ->
            match Instances.check ~truth:it.truth it.formula result with
            | Ok d -> if d then incr decisive
            | Error e -> wrong := Printf.sprintf "%s: %s" it.name e :: !wrong))
  in
  let t_start = now () in
  let deadline = t_start +. o.seconds in
  let i = ref 0 in
  while now () < deadline do
    (match step !i items.(!i mod Array.length items) with
    | () -> ()
    | exception e ->
      incr errors;
      Printf.eprintf "c instance %d raised %s\n%!" !i (Printexc.to_string e));
    incr i
  done;
  let wall = now () -. t_start in
  let attempted = !i in
  let e2e =
    [
      ("setup_s", setup_s);
      ("throughput_per_s", float_of_int !answered /. wall);
    ]
    @ latency_metrics ~failed:!errors !latencies
    @ [
        ("peak_rss_mb", Client.vmhwm_mb 0);
        ("solved_pct", pct !decisive !answered);
        ("ok_pct", pct !answered attempted);
      ]
  in
  let layers =
    if not o.trace then []
    else
      let pipeline =
        Spans.total "cnf.parse" +. Spans.total "select" +. Spans.total "solve"
      in
      selector_layers ~cache_on:false ~hit_ratio:0.0
      @ solver_layers totals
      @ [
          ("select.share", Spans.total "select" /. pipeline);
          ("select.frequency_share", frequency_share !selections);
        ]
      @ trace_layers
          ~spans:(List.length (Spans.spans ()))
          ~wall
          ~attributed:(Spans.covered ~parent:"instance" /. wall)
  in
  {
    attempted;
    failed = !errors + List.length !wrong;
    wrong = List.rev !wrong;
    invalid =
      (if o.trace && Spans.covered ~parent:"instance" /. wall < 0.95 then
         [ "traced campaign attributes under 95% of wall time to spans" ]
       else []);
    e2e;
    layers;
  }

(* --- ns-serve one-shot solves --------------------------------------------- *)

(* The service user, from one generator process on one connection:
   first an open loop at a constant rate (latency, timed from each
   request's due time), then a closed loop with one request in flight
   (throughput). ns-serve runs --adaptive --jobs 1, so the numbers
   measure the program rather than the scheduler. *)

(* The open loop's constant rate keeps 91 ms between arrivals: longer
   than the slowest selection (about 37 ms) plus ns-serve's 50 ms select
   tick, so one request's response never waits for the next request's
   selection. At 14 requests/s that wait hit about 9% of requests and
   p95 flipped between two levels from run to run. *)
let open_share = 0.8
let open_rate = 11.0
let serve_drain_s = 5.0

type request = {
  idx : int;
  item : item;
  warm_verdict : string option;  (** serve-repeat: the warm-up answer. *)
  mutable due : float;
  mutable sent : float;
  mutable answered : float;
  mutable response : J.record option;
}

let new_request idx ?warm_verdict item =
  { idx; item; warm_verdict; due = 0.0; sent = 0.0; answered = 0.0; response = None }

let solve_fields r =
  [
    ("op", J.String "solve");
    ("id", J.String (string_of_int r.idx));
    ("dimacs", J.String r.item.text);
  ]

let status r =
  match r.response with
  | None -> "unanswered"
  | Some f -> Option.value (J.find_string f "status") ~default:"error"

let find_float r key =
  match r.response with
  | Some f -> Option.value (J.find_float f key) ~default:0.0
  | None -> 0.0

(* Match responses to requests by id, recording arrival time. *)
let record_responses table responses =
  List.iter
    (fun (_, fields) ->
      match Option.bind (J.find_string fields "id") int_of_string_opt with
      | Some idx -> (
        match Hashtbl.find_opt table idx with
        | Some r when r.response = None ->
          r.answered <- now ();
          r.response <- Some fields
        | _ -> ())
      | None -> ())
    responses

(* Check one answered request against the manifest (and, on
   serve-repeat, against its warm-up answer). *)
let check_request r =
  match r.response with
  | None -> Ok false
  | Some f -> (
    let verdict = Option.value (J.find_string f "verdict") ~default:"" in
    let result =
      match verdict with
      | "sat" ->
        let num_vars = Cnf.Formula.num_vars r.item.formula in
        Cdcl.Solver.Sat
          (Client.model_of_string ~num_vars
             (Option.value (J.find_string f "model") ~default:""))
      | "unsat" -> Cdcl.Solver.Unsat
      | _ -> Cdcl.Solver.Unknown
    in
    match r.warm_verdict with
    | Some w when w <> verdict ->
      Error (Printf.sprintf "verdict %s differs from warm-up verdict %s" verdict w)
    | _ -> Instances.check ~truth:r.item.truth r.item.formula result)

let metrics_snapshot conn tag =
  match Client.rpc conn ~id:tag [ ("op", J.String "metrics") ] with
  | Some f -> fun key -> Option.value (J.find_int f key) ~default:0
  | None -> fun _ -> 0

(* Attribute the server-side time of answered requests by replaying a
   prefix of them in process, stage by stage. *)
let serve_replay ~repeat ~warm answered =
  let model = Core.Model.create Core.Model.paper_config in
  Core.Selector.clear_cache ();
  if repeat then
    Array.iter
      (fun it ->
        ignore
          (Core.Selector.select_policy ~use_cache:true model
             (Cnf.Dimacs.parse_string it.text)))
      warm;
  let totals = new_totals () in
  let selections = ref [] and hits = ref 0 in
  let t0 = now () in
  List.iteri
    (fun k r ->
      if k < 150 then
        Spans.with_span ~req:r.idx "replay" (fun () ->
            let f =
              Spans.with_span ~req:r.idx "cnf.parse" (fun () ->
                  Cnf.Dimacs.parse_string r.item.text)
            in
            let s =
              Spans.with_span ~req:r.idx "select" (fun () ->
                  Core.Selector.select_policy ~use_cache:true model f)
            in
            selections := s.Core.Selector.policy :: !selections;
            if s.Core.Selector.cached then incr hits;
            probe_selector ~req:r.idx model f;
            let config =
              Cdcl.Config.with_policy s.Core.Selector.policy
                (Cdcl.Config.with_budget ~max_wall_seconds:10.0
                   Cdcl.Config.default)
            in
            ignore (traced_solve ~req:r.idx totals ~config f)))
    answered;
  let wall = now () -. t0 in
  let fork_ms =
    (* Fork cost grows with the forking process's heap; compact first
       so the probe reflects the runtime rather than this process. *)
    Gc.compact ();
    let t = now () in
    for _ = 1 to 100 do
      ignore
        (Runtime.Supervisor.run Runtime.Supervisor.default_limits (fun () ->
             Ok ""))
    done;
    ms (now () -. t) /. 100.0
  in
  let pipeline =
    Spans.total "cnf.parse" +. Spans.total "select" +. Spans.total "solve"
  in
  selector_layers ~cache_on:true
    ~hit_ratio:(float_of_int !hits /. float_of_int (max 1 (List.length !selections)))
  @ solver_layers totals
  @ [
      ("select.share", Spans.total "select" /. pipeline);
      ("select.frequency_share", frequency_share !selections);
      ("pool.fork_ms", fork_ms);
    ]
  @ trace_layers
      ~spans:(List.length (Spans.spans ()))
      ~wall
      ~attributed:(Spans.covered ~parent:"replay" /. wall)

let serve ~repeat (o : opts) =
  let universe =
    Instances.with_truth ~dir:expected_dir "serve" (Instances.serve_bases ())
  in
  let open_count = int_of_float (Float.ceil (open_rate *. open_share *. o.seconds)) in
  (* serve-repeat's 16 bases are the same on every seed (the first two
     SAT and two UNSAT bases of each family, where the universe has
     them), so its solve costs and memory do not move with the seed;
     the seed renames and shuffles them. *)
  let repeat_set =
    List.concat_map
      (fun family ->
        let mine =
          List.filter
            (fun ((b : Instances.base), _) -> b.family = family)
            (Array.to_list universe)
        in
        let sat, unsat = List.partition (fun (_, t) -> t = Instances.Sat) mine in
        let take n l = List.filteri (fun i _ -> i < n) l in
        let two = take 2 sat @ take 2 unsat in
        two @ take (4 - List.length two) (List.filter (fun x -> not (List.memq x two)) mine))
      [ "color"; "adder"; "mult"; "ksat" ]
  in
  let setup_index = ref 0 in
  let setup () =
    let t0 = now () in
    incr setup_index;
    let rng = Util.Rng.create o.seed in
    (* Bases are visited in a seeded order, so every run sees the
       families in the same proportions. *)
    let order = Array.init (Array.length universe) Fun.id in
    Util.Rng.shuffle rng order;
    let visited = ref 0 in
    let fresh () =
      let b = universe.(order.(!visited mod Array.length order)) in
      incr visited;
      make_item rng b
    in
    let warm =
      if repeat then Array.of_list (List.map (make_item rng) repeat_set)
      else Array.init 5 (fun _ -> fresh ())
    in
    (* serve-unique: a distinct variant per request, made ahead for the
       open loop and on demand after it. serve-repeat: each request is
       a clause-shuffled copy of one of the 16 warmed variants. *)
    let ahead =
      if repeat then
        Array.init 256 (fun k ->
            let it = warm.(k mod 16) in
            let f = Cnf.Formula.shuffle rng it.formula in
            { it with formula = f; text = Cnf.Dimacs.to_string f })
      else Array.init open_count (fun _ -> fresh ())
    in
    let item_for idx =
      if repeat then ahead.(idx mod Array.length ahead)
      else if idx < open_count then ahead.(idx)
      else fresh ()
    in
    let socket =
      Filename.concat o.tmp (Printf.sprintf "serve-%d.sock" !setup_index)
    in
    let srv =
      Client.spawn ~exe:server_exe ~socket ~tmpdir:o.tmp
        [ "--adaptive"; "--jobs"; "1" ]
    in
    let conn =
      match Client.connect_ready srv with
      | Some c -> c
      | None -> failwith "ns-serve never answered a ping"
    in
    let warm_verdicts =
      Array.mapi
        (fun k it ->
          let r = new_request (-1 - k) it in
          match Client.rpc conn ~id:(string_of_int r.idx) (solve_fields r) with
          | Some f when J.find_string f "status" = Some "ok" ->
            r.response <- Some f;
            (match check_request r with
            | Ok _ -> ()
            | Error e -> failwith (Printf.sprintf "warm-up %s: %s" it.name e));
            Option.value (J.find_string f "verdict") ~default:""
          | _ -> failwith "warm-up request failed")
        warm
    in
    let request_for idx =
      new_request idx (item_for idx)
        ?warm_verdict:(if repeat then Some warm_verdicts.(idx mod 16) else None)
    in
    ((srv, conn, request_for, ahead), now () -. t0)
  in
  (* Only the last set-up's server carries the measured load. *)
  let (srv, conn, request_for, ahead), setup_s =
    median_setup setup ~discard:(fun (srv, conn, _, _) ->
        Client.close conn;
        ignore (Client.stop srv))
  in
  let table = Hashtbl.create 1024 in
  let next = ref 0 in
  let take () =
    let r = request_for !next in
    incr next;
    Hashtbl.replace table r.idx r;
    r
  in
  let before = metrics_snapshot conn "m0" in
  let samples = ref [] in
  let last_sample = ref (now ()) in
  let sample_metrics () =
    if o.trace && now () -. !last_sample >= 1.0 then begin
      last_sample := now ();
      Client.send conn [ ("op", J.String "metrics"); ("id", J.String "sample") ]
    end
  in
  let collect responses =
    List.iter
      (fun (_, f) ->
        if J.find_string f "id" = Some "sample" then samples := f :: !samples)
      responses;
    record_responses table responses
  in
  (* Phase 1: open loop at a constant rate. *)
  let open_reqs = Array.init open_count (fun _ -> take ()) in
  let open_s = float_of_int open_count /. open_rate in
  let t0 = now () in
  Array.iteri
    (fun k r -> r.due <- t0 +. (float_of_int k /. open_rate))
    open_reqs;
  let sent = ref 0 in
  let unanswered () =
    Array.exists (fun r -> r.response = None) open_reqs
  in
  let give_up = t0 +. open_s +. serve_drain_s in
  while (!sent < Array.length open_reqs || unanswered ()) && now () < give_up do
    while !sent < Array.length open_reqs && open_reqs.(!sent).due <= now () do
      let r = open_reqs.(!sent) in
      r.sent <- now ();
      Client.send conn (solve_fields r);
      incr sent
    done;
    sample_metrics ();
    let wait =
      if !sent < Array.length open_reqs then open_reqs.(!sent).due -. now ()
      else 0.05
    in
    collect (Client.poll [ conn ] (Float.min 0.05 wait))
  done;
  (* Phase 2: closed loop, one request in flight. *)
  let closed_s = Float.max (0.2 *. o.seconds) (o.seconds -. open_s) in
  let t1 = now () in
  let deadline = t1 +. closed_s in
  let closed_reqs = ref [] in
  let closed_done = ref 0 and last_done = ref t1 in
  while now () < deadline do
    let r = take () in
    r.due <- now ();
    r.sent <- r.due;
    closed_reqs := r :: !closed_reqs;
    Client.send conn (solve_fields r);
    while r.response = None && now () < deadline +. serve_drain_s do
      sample_metrics ();
      collect (Client.poll [ conn ] 0.05)
    done;
    if status r = "ok" && r.answered <= deadline then begin
      incr closed_done;
      last_done := r.answered
    end
  done;
  let after = metrics_snapshot conn "m1" in
  let peak_rss = Client.vmhwm_mb srv.Client.pid in
  Client.close conn;
  let stop_error = Client.stop srv in
  (* Answer checks and tallies. *)
  let all = Array.to_list open_reqs @ List.rev !closed_reqs in
  let wrong = ref [] and decisive = ref 0 and ok = ref 0 in
  List.iter
    (fun r ->
      if status r = "ok" then begin
        incr ok;
        match check_request r with
        | Ok d -> if d then incr decisive
        | Error e ->
          wrong := Printf.sprintf "request %d (%s): %s" r.idx r.item.name e :: !wrong
      end)
    all;
  let attempted = List.length all in
  let open_ok =
    List.filter (fun r -> status r = "ok") (Array.to_list open_reqs)
  in
  let open_failed = Array.length open_reqs - List.length open_ok in
  let lateness =
    Stats.sorted_of_list
      (Array.to_list (Array.map (fun r -> r.sent -. r.due) open_reqs))
  in
  let lateness_p95 = ms (Stats.percentile lateness 95.0) in
  let e2e =
    [
      ("setup_s", setup_s);
      ( "throughput_per_s",
        if !closed_done = 0 then 0.0
        else float_of_int !closed_done /. (!last_done -. t1) );
    ]
    @ latency_metrics ~failed:open_failed
        (List.map (fun r -> r.answered -. r.due) open_ok)
    @ [
        ("peak_rss_mb", peak_rss);
        ("solved_pct", pct !decisive !ok);
        ("ok_pct", pct !ok attempted);
      ]
  in
  let layers =
    if not o.trace then []
    else begin
      let delta key = after key - before key in
      let hits = delta "cache_hits" and misses = delta "cache_misses" in
      let queued_max =
        List.fold_left
          (fun acc f -> max acc (Option.value (J.find_int f "queued") ~default:0))
          0 !samples
      in
      let mean f = Stats.mean (List.map f open_ok) in
      let selection_ms = mean (fun r -> find_float r "selection_ms") in
      let frontend_ms =
        mean (fun r ->
            ms (r.answered -. r.sent) -. find_float r "selection_ms"
            -. find_float r "latency_ms")
      in
      let replay = serve_replay ~repeat ~warm:ahead open_ok in
      (* Server latency minus the same instance's in-process solve and
         the fork cost: time the job spent waiting on the pool. *)
      let solve_s = Hashtbl.create 256 in
      List.iter
        (fun (s : Spans.span) -> Hashtbl.replace solve_s s.req s.dur)
        (Spans.named "solve");
      let wait_ms =
        Stats.mean
          (List.filter_map
             (fun r ->
               Option.map
                 (fun s -> find_float r "latency_ms" -. ms s)
                 (Hashtbl.find_opt solve_s r.idx))
             open_ok)
        -. List.assoc "pool.fork_ms" replay
      in
      replay
      @ [
          ( "select.cache_hit_ratio",
            if hits + misses = 0 then 0.0
            else float_of_int hits /. float_of_int (hits + misses) );
          ("pool.wait_ms", wait_ms);
          ("pool.queued_max", float_of_int queued_max);
          ("pool.shed", float_of_int (delta "shed"));
          ("pool.retries", float_of_int (delta "worker_retries"));
          ("serve.select_ms", selection_ms);
          ("serve.frontend_ms", frontend_ms);
          ("gen.lateness_p95_ms", lateness_p95);
        ]
    end
  in
  let invalid =
    (if lateness_p95 > 5.0 then
       [ Printf.sprintf "generator lateness p95 %.2f ms exceeds 5 ms" lateness_p95 ]
     else [])
    @ match stop_error with Ok () -> [] | Error e -> [ e ]
  in
  {
    attempted;
    failed = attempted - !ok + List.length !wrong;
    wrong = List.rev !wrong;
    invalid;
    e2e;
    layers;
  }

(* --- durable sessions ------------------------------------------------------ *)

(* The same server used differently: a closed loop of incremental
   session ops over a WAL with per-record fsync. Each of 8 sessions
   grows a random 3-SAT formula over 120 variables clause by clause up
   to ratio 4.0, then is closed and replaced. No fork, no selector. *)

module Store = Nserve.Session_store

let session_count = 8
let session_vars = 120
let session_clauses = 480

(* Set-up warms the sessions through one WAL snapshot (taken every 256
   appends by default). *)
let session_warmup_ops = 300

type session_request = Op of Store.op | Info

let wire_fields = function
  | Info -> [ ("action", J.String "info") ]
  | Op (Store.New vars) -> [ ("action", J.String "new"); ("vars", J.Int vars) ]
  | Op (Store.Add clause) -> [ ("action", J.String "add"); ("clause", J.String clause) ]
  | Op (Store.Solve a) -> [ ("action", J.String "solve"); ("assumptions", J.String a) ]
  | Op Store.Close -> [ ("action", J.String "close") ]
  | Op (Store.New_var | Store.Evict) -> invalid_arg "wire_fields"

let lits_string lits =
  String.concat " " (List.map (fun l -> string_of_int (Cnf.Lit.to_dimacs l)) lits)

(* One client connection with its shadow of every live session. *)
type session_client = {
  conn : Client.conn;
  rng : Util.Rng.t;
  shadows : Client.shadow array;
  mutable next_key : int;
  mutable next_sid : int;
  mutable log : (string * Store.op) list;  (** Acked ops, newest first. *)
  mutable attempted : int;
  mutable acked : int;
  mutable latencies : float list;
  mutable solves : int;
  mutable decisive : int;
  mutable unsat_checks : (string * int * Cnf.Lit.t list list * Cnf.Lit.t list) list;
  mutable wrong : string list;
}

let new_session_client conn rng =
  {
    conn;
    rng;
    shadows = Array.make session_count (Client.shadow_new "" 0);
    next_key = 0;
    next_sid = 0;
    log = [];
    attempted = 0;
    acked = 0;
    latencies = [];
    solves = 0;
    decisive = 0;
    unsat_checks = [];
    wrong = [];
  }

let fail d fmt = Printf.ksprintf (fun m -> d.wrong <- m :: d.wrong) fmt

(* Send one keyed request on session [k] and wait for the ack. *)
let session_rpc d k req =
  let sh = d.shadows.(k) in
  d.next_key <- d.next_key + 1;
  d.attempted <- d.attempted + 1;
  let id = Printf.sprintf "k%d" d.next_key in
  let req_no = d.next_key in
  Spans.with_span ~req:req_no "op" (fun () ->
      let t0 = now () in
      let reply =
        Spans.with_span ~req:req_no "rpc" (fun () ->
            Client.rpc d.conn ~id
              ([
                 ("op", J.String "session");
                 ("sid", J.String sh.Client.sid);
                 ("key", J.String id);
               ]
              @ wire_fields req))
      in
      match reply with
      | Some f when J.find_string f "status" = Some "ok" ->
        d.acked <- d.acked + 1;
        d.latencies <- (now () -. t0) :: d.latencies;
        (match req with Op op -> d.log <- (sh.Client.sid, op) :: d.log | Info -> ());
        Some f
      | Some f ->
        Printf.eprintf "c session op on %s: %s\n%!" sh.Client.sid
          (Option.value (J.find_string f "error") ~default:"error");
        None
      | None -> None)

let open_session d k =
  d.next_sid <- d.next_sid + 1;
  d.shadows.(k) <- Client.shadow_new (Printf.sprintf "s%d" d.next_sid) session_vars;
  ignore (session_rpc d k (Op (Store.New session_vars)))

let add_clause d k =
  let clause =
    Array.to_list
      (Array.map
         (fun v -> Cnf.Lit.of_dimacs (if Util.Rng.bool d.rng then v + 1 else -(v + 1)))
         (Util.Rng.sample_distinct d.rng 3 session_vars))
  in
  if session_rpc d k (Op (Store.Add (lits_string clause ^ " 0"))) <> None then
    Client.shadow_add d.shadows.(k) clause

(* Solve on session [k]; SAT models are checked against the shadow on
   the spot, UNSAT answers against a fresh solver after the run. *)
let solve_session ?(assumptions = []) d k =
  let sh = d.shadows.(k) in
  match session_rpc d k (Op (Store.Solve (lits_string assumptions))) with
  | None -> None
  | Some f ->
    d.solves <- d.solves + 1;
    let verdict = Option.value (J.find_string f "verdict") ~default:"" in
    (match verdict with
    | "sat" ->
      d.decisive <- d.decisive + 1;
      let m =
        Client.model_of_string ~num_vars:sh.Client.vars
          (Option.value (J.find_string f "model") ~default:"")
      in
      let holds l = m.(Cnf.Lit.var l) = Cnf.Lit.is_pos l in
      if
        not
          (List.for_all (List.exists holds) sh.Client.clauses
          && List.for_all holds assumptions)
      then fail d "%s: SAT model violates the acked clauses" sh.Client.sid
    | "unsat" ->
      d.decisive <- d.decisive + 1;
      d.unsat_checks <-
        (sh.Client.sid, sh.Client.vars, sh.Client.clauses, assumptions)
        :: d.unsat_checks
    | _ -> ());
    Some verdict

let info_session d k =
  let sh = d.shadows.(k) in
  match session_rpc d k Info with
  | None -> ()
  | Some f ->
    let vars = Option.value (J.find_int f "vars") ~default:(-1)
    and clauses = Option.value (J.find_int f "clauses") ~default:(-1) in
    if vars <> sh.Client.vars || clauses <> sh.Client.count then
      fail d "%s: info says %d vars / %d clauses, shadow has %d / %d"
        sh.Client.sid vars clauses sh.Client.vars sh.Client.count

(* One step of the op mix: 85% add, 10% solve under 2 assumptions, 5%
   info; a session at ratio 4.0 is closed and replaced. *)
let session_step d =
  let k = Util.Rng.int d.rng session_count in
  let u = Util.Rng.float d.rng 1.0 in
  if d.shadows.(k).Client.count >= session_clauses then begin
    ignore (session_rpc d k (Op Store.Close));
    open_session d k
  end
  else if u < 0.85 then add_clause d k
  else if u < 0.95 then begin
    let lit () =
      let v = 1 + Util.Rng.int d.rng session_vars in
      Cnf.Lit.of_dimacs (if Util.Rng.bool d.rng then v else -v)
    in
    let a = lit () and b = lit () in
    let assumptions = if Cnf.Lit.var a = Cnf.Lit.var b then [ a ] else [ a; b ] in
    ignore (solve_session ~assumptions d k)
  end
  else info_session d k

(* Attribute a session op's server-side time by replaying a prefix of
   the acked ops in process through Session_store, once over a WAL with
   per-record fsync and once volatile; the difference is the WAL. *)
let session_replay (o : opts) log =
  let prefix = List.filteri (fun i _ -> i < 1000) log in
  let kind = function
    | Store.Add _ -> "add"
    | Store.Solve _ -> "solve"
    | _ -> "other"
  in
  let wal_dir = Filename.concat o.tmp "replay-wal" in
  let replay ~span_prefix wal_dir =
    let config =
      { Store.default_config with Store.wal_dir; snapshot_every = 0 }
    in
    match Store.create config with
    | Error e -> failwith (Runtime.Error.to_string e)
    | Ok (store, _) ->
      List.iteri
        (fun i (sid, op) ->
          Spans.with_span ~req:i (span_prefix ^ kind op) (fun () ->
              ignore (Store.apply store ~key:(Printf.sprintf "r%d" i) ~sid op)))
        prefix;
      Store.close store
  in
  replay ~span_prefix:"session." (Some wal_dir);
  replay ~span_prefix:"volatile." None;
  let bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat wal_dir f)).Unix.st_size)
      0 (Sys.readdir wal_dir)
  in
  [
    ("session.add_ms", Spans.mean_ms "session.add");
    ("session.solve_ms", Spans.mean_ms "session.solve");
    ("wal.append_ms", Spans.mean_ms "session.add" -. Spans.mean_ms "volatile.add");
    ("wal.bytes_per_op", float_of_int bytes /. float_of_int (max 1 (List.length prefix)));
  ]

let sessions (o : opts) =
  let setup_index = ref 0 in
  let setup () =
    let t0 = now () in
    incr setup_index;
    let wal = Filename.concat o.tmp (Printf.sprintf "wal-%d" !setup_index) in
    let socket =
      Filename.concat o.tmp (Printf.sprintf "sessions-%d.sock" !setup_index)
    in
    let srv = Client.spawn ~exe:server_exe ~socket ~tmpdir:o.tmp [ "--wal"; wal ] in
    let conn =
      match Client.connect_ready srv with
      | Some c -> c
      | None -> failwith "ns-serve never answered a ping"
    in
    let d = new_session_client conn (Util.Rng.create o.seed) in
    for k = 0 to session_count - 1 do
      open_session d k
    done;
    for i = 1 to session_warmup_ops do
      add_clause d (i mod session_count)
    done;
    ((srv, d), now () -. t0)
  in
  let (srv, d), setup_s =
    median_setup setup ~discard:(fun (srv, d) ->
        Client.close d.conn;
        ignore (Client.stop srv))
  in
  let warm_attempted = d.attempted and warm_acked = d.acked in
  d.latencies <- [];
  Spans.reset ();
  let t_start = now () in
  let deadline = t_start +. o.seconds in
  while now () < deadline do
    session_step d
  done;
  let wall = now () -. t_start in
  let attributed = Spans.covered ~parent:"op" /. wall in
  let spans = List.length (Spans.spans ()) in
  let attempted = d.attempted - warm_attempted in
  let acked = d.acked - warm_acked in
  let latencies = d.latencies in
  (* Final verdicts must match a fresh solver over the shadow clauses. *)
  Array.iteri
    (fun k sh ->
      match solve_session d k with
      | None -> fail d "%s: final solve failed" sh.Client.sid
      | Some verdict ->
        let oracle =
          Store.verdict_name
            (Client.oracle_verdict ~vars:sh.Client.vars ~clauses:sh.Client.clauses
               ~units:[])
        in
        if verdict <> oracle then
          fail d "%s: final verdict %s, fresh solver says %s" sh.Client.sid
            verdict oracle)
    d.shadows;
  List.iter
    (fun (sid, vars, clauses, assumptions) ->
      match
        Client.oracle_verdict ~vars ~clauses
          ~units:(List.map (fun l -> [ l ]) assumptions)
      with
      | Cdcl.Solver.Unsat -> ()
      | _ -> fail d "%s: UNSAT under assumptions, fresh solver disagrees" sid)
    d.unsat_checks;
  let peak_rss = Client.vmhwm_mb srv.Client.pid in
  Client.close d.conn;
  let stop_error = Client.stop srv in
  let failed_ops = attempted - acked in
  let e2e =
    [ ("setup_s", setup_s); ("throughput_per_s", float_of_int acked /. wall) ]
    @ latency_metrics ~failed:failed_ops latencies
    @ [
        ("peak_rss_mb", peak_rss);
        ("solved_pct", pct d.decisive d.solves);
        ("ok_pct", pct acked attempted);
      ]
  in
  let layers =
    if not o.trace then []
    else
      session_replay o (List.rev d.log)
      @ trace_layers ~spans ~wall ~attributed
  in
  {
    attempted;
    failed = failed_ops + List.length d.wrong;
    wrong = List.rev d.wrong;
    invalid =
      (match stop_error with Ok () -> [] | Error e -> [ e ])
      @
      if o.trace && attributed < 0.95 then
        [ "traced sessions attribute under 95% of wall time to spans" ]
      else [];
    e2e;
    layers;
  }

(* --- reporting -------------------------------------------------------------- *)

let unit_of name =
  match Spec.find name with Some m -> m.Spec.unit_ | None -> ""

let summary ~trace (r : outcome) =
  let metrics = if trace then complete_layers r.layers else r.e2e in
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (r.wrong = []));
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Obs.Json.Obj
                   [
                     ("value", Obs.Json.Float v);
                     ("unit", Obs.Json.String (unit_of name));
                   ] ))
             metrics) );
    ]

let report ~workload ~seed ~trace ~json (r : outcome) =
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %.6g %s\n" workload name v (unit_of name))
    (if trace then complete_layers r.layers else r.e2e);
  List.iter (fun w -> Printf.eprintf "WRONG ANSWER: %s\n" w) r.wrong;
  List.iter (fun w -> Printf.eprintf "INVALID RUN: %s\n" w) r.invalid;
  let s = summary ~trace r in
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("workload", Obs.Json.String workload);
              ("seed", Obs.Json.Int seed);
              ("trace", Obs.Json.Bool trace);
              ("result", s);
            ]));
    output_char oc '\n';
    close_out oc);
  print_endline (Obs.Json.to_string s);
  r.wrong = [] && r.invalid = []

(* --- compare mode ------------------------------------------------------------- *)

(* Each file holds one result line per run (--json). For every
   workload and end-to-end metric, print each set's median and
   quartiles and fail when the medians differ by more than the bound. *)
let compare_sets a b =
  let load path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        List.rev acc
      | line -> (
        match Obs.Json.parse line with
        | Ok j -> go (j :: acc)
        | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    in
    go []
  in
  let values runs workload name =
    List.filter_map
      (fun j ->
        let ( let* ) = Option.bind in
        let* w = Option.bind (Obs.Json.member "workload" j) Obs.Json.to_string_opt in
        let* t = Option.bind (Obs.Json.member "trace" j) Obs.Json.to_bool_opt in
        if w <> workload || t then None
        else
          let* r = Obs.Json.member "result" j in
          let* ms = Obs.Json.member "metrics" r in
          let* m = Obs.Json.member name ms in
          Option.bind (Obs.Json.member "value" m) Obs.Json.to_float_opt)
      runs
  in
  let ra = load a and rb = load b in
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun (m : Spec.metric) ->
          let va = values ra workload m.name and vb = values rb workload m.name in
          if va <> [] && vb <> [] then begin
            let show vs =
              let q1, med, q3 = Stats.quartiles vs in
              Printf.sprintf "%10.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length vs)
            in
            let ma = Stats.median va and mb = Stats.median vb in
            let diff = (mb -. ma) /. ma in
            let pass = Stats.medians_agree ~bound:m.bound va vb in
            if not pass then ok := false;
            Printf.printf "%-13s %-17s A %s  B %s  %+6.1f%% (bound %.0f%%) %s\n"
              workload m.name (show va) (show vb) (100.0 *. diff)
              (100.0 *. m.bound)
              (if pass then "ok" else "FAIL")
          end)
        Spec.end_to_end)
    Spec.workloads;
  !ok

(* --- main ------------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_workload (o : opts) name =
  Spans.reset ();
  Spans.enabled := o.trace;
  Core.Selector.clear_cache ();
  match name with
  | "campaign" -> campaign o
  | "serve-unique" -> serve ~repeat:false o
  | "serve-repeat" -> serve ~repeat:true o
  | "sessions" -> sessions o
  | other -> failwith ("unknown workload " ^ other)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 24.0 in
  let trace = ref 0 and spans_path = ref "" and json = ref "" in
  let compare = ref false and regen = ref false and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "W  campaign | serve-unique | serve-repeat | sessions (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run (default 24)");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--spans", Arg.Set_string spans_path, "FILE  write traced spans as JSONL");
      ("--json", Arg.Set_string json, "FILE  append one result line per run");
      ("--compare", Arg.Set compare, " compare two --json result sets A B");
      ("--regen-expected", Arg.Set regen, " rewrite the verdict manifests");
    ]
  in
  let usage = "e2e.exe [options]  (see README.md)" in
  (try
     Arg.parse_argv Sys.argv spec (fun f -> files := !files @ [ f ]) usage
   with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !compare then
    match !files with
    | [ a; b ] -> exit (if compare_sets a b then 0 else 1)
    | _ ->
      prerr_endline "--compare needs two result files";
      exit 2
  else if !regen then begin
    Instances.regen ~dir:expected_dir "campaign" (Instances.campaign_bases ());
    Instances.regen ~dir:expected_dir "serve" (Instances.serve_bases ());
    exit 0
  end
  else begin
    let workloads =
      if !workload = "" then List.map fst Spec.workloads else [ !workload ]
    in
    if not (List.for_all (fun w -> List.mem_assoc w Spec.workloads) workloads)
    then begin
      Printf.eprintf "unknown workload %s\n" !workload;
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end;
    if not (Sys.file_exists server_exe) then begin
      Printf.eprintf "ns-serve binary %s not found (run from the repository root)\n"
        server_exe;
      exit 2
    end;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let tmp = Filename.concat "_build" (Printf.sprintf "e2e-%d" (Unix.getpid ())) in
    rm_rf tmp;
    mkdir_p tmp;
    (* Every process this run starts is stopped before it exits, even on
       an exception or the watchdog. *)
    at_exit (fun () ->
        Client.kill_all ();
        rm_rf tmp);
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           prerr_endline "e2e: watchdog expired";
           exit 1));
    ignore (Unix.alarm 170);
    let o =
      {
        seed = !seed;
        seconds = !seconds;
        trace = !trace = 1;
        tmp;
      }
    in
    let passed =
      List.map
        (fun w ->
          match run_workload o w with
          | r ->
            if o.trace && !spans_path <> "" then
              Spans.write_jsonl ~workload:w !spans_path;
            report ~workload:w ~seed:o.seed ~trace:o.trace
              ~json:(if !json = "" then None else Some !json)
              r
          | exception e ->
            Printf.eprintf "e2e: %s failed: %s\n%!" w (Printexc.to_string e);
            false)
        workloads
    in
    exit (if List.for_all Fun.id passed then 0 else 1)
  end
