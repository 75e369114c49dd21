(* Tests for the observability layer: metric registry semantics,
   log-bucketed histograms, span tracing with JSONL export, and the
   stable report / bench-report schemas. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Every test uses its own registry so the metrics registered by the
   linked libraries (solver counters etc.) cannot interfere. *)
let fresh () = Obs.Metrics.create_registry ()

(* --- counters and gauges --- *)

let test_counter_basics () =
  let registry = fresh () in
  let c = Obs.Metrics.counter ~registry "c" in
  checki "starts at zero" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  checki "incr + add" 5 (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter ~registry "c" in
  Obs.Metrics.incr c';
  checki "same name, same handle" 6 (Obs.Metrics.counter_value c);
  checkb "negative delta rejected" true
    (match Obs.Metrics.add c (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_kind_mismatch () =
  let registry = fresh () in
  let _ = Obs.Metrics.counter ~registry "m" in
  checkb "re-registering as gauge raises" true
    (match Obs.Metrics.gauge ~registry "m" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let _ = Obs.Metrics.histogram ~registry "h" in
  checkb "histogram with different bounds raises" true
    (match Obs.Metrics.histogram ~registry ~bounds:[| 1.0; 2.0 |] "h" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gauge_last_write_wins () =
  let registry = fresh () in
  let g = Obs.Metrics.gauge ~registry "depth" in
  Obs.Metrics.set g 3.0;
  Obs.Metrics.set g 7.5;
  Alcotest.(check (float 0.0)) "last write" 7.5 (Obs.Metrics.gauge_value g)

(* --- histogram bucket boundaries --- *)

let bucket_count_for h le =
  let buckets = Obs.Metrics.buckets h in
  match Array.find_opt (fun (b, _) -> b = le) buckets with
  | Some (_, n) -> n
  | None -> Alcotest.fail (Printf.sprintf "no bucket with le=%g" le)

let test_default_bounds_shape () =
  let b = Obs.Metrics.default_bounds in
  checki "37 upper bounds" 37 (Array.length b);
  Alcotest.(check (float 0.0)) "first bound" 1e-9 b.(0);
  Alcotest.(check (float 0.0)) "last bound" 1e3 b.(Array.length b - 1);
  (* Strictly increasing, 1-2-5 ladder. *)
  for i = 1 to Array.length b - 1 do
    checkb "strictly increasing" true (b.(i) > b.(i - 1))
  done;
  Alcotest.(check (float 1e-18)) "second bound" 2e-9 b.(1);
  Alcotest.(check (float 1e-18)) "third bound" 5e-9 b.(2)

let test_bucket_boundaries () =
  let registry = fresh () in
  let h = Obs.Metrics.histogram ~registry ~bounds:[| 1.0; 2.0; 5.0 |] "h" in
  (* le semantics: a value equal to a bound lands in that bound's
     bucket; values beyond the last bound land in overflow. *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.9; 5.0; 5.1; 100.0 ];
  checki "le=1 bucket" 2 (bucket_count_for h 1.0);
  checki "le=2 bucket" 2 (bucket_count_for h 2.0);
  checki "le=5 bucket" 2 (bucket_count_for h 5.0);
  checki "overflow bucket" 2 (bucket_count_for h infinity);
  checki "count" 8 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 120.0 (Obs.Metrics.hist_sum h);
  (* Zero, negatives, NaN. *)
  Obs.Metrics.observe h 0.0;
  Obs.Metrics.observe h (-3.0);
  checki "nonpositive values land in the first bucket" 4
    (bucket_count_for h 1.0);
  Obs.Metrics.observe h Float.nan;
  checki "NaN dropped" 10 (Obs.Metrics.hist_count h)

let test_histogram_merge () =
  let registry = fresh () in
  let a = Obs.Metrics.histogram ~registry ~bounds:[| 1.0; 10.0 |] "a" in
  let b = Obs.Metrics.histogram ~registry ~bounds:[| 1.0; 10.0 |] "b" in
  List.iter (Obs.Metrics.observe a) [ 0.5; 5.0 ];
  List.iter (Obs.Metrics.observe b) [ 5.0; 50.0; 0.25 ];
  Obs.Metrics.merge ~into:a b;
  checki "merged count" 5 (Obs.Metrics.hist_count a);
  Alcotest.(check (float 1e-9)) "merged sum" 60.75 (Obs.Metrics.hist_sum a);
  checki "merged first bucket" 2 (bucket_count_for a 1.0);
  checki "merged second bucket" 2 (bucket_count_for a 10.0);
  checki "merged overflow" 1 (bucket_count_for a infinity);
  checki "source untouched" 3 (Obs.Metrics.hist_count b);
  let c = Obs.Metrics.histogram ~registry ~bounds:[| 2.0; 4.0 |] "c" in
  checkb "mismatched bounds rejected" true
    (match Obs.Metrics.merge ~into:a c with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_reset () =
  let registry = fresh () in
  let c = Obs.Metrics.counter ~registry "c" in
  let h = Obs.Metrics.histogram ~registry "h" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 1.0;
  Obs.Metrics.reset ~registry ();
  checki "counter zeroed" 0 (Obs.Metrics.counter_value c);
  checki "histogram zeroed" 0 (Obs.Metrics.hist_count h);
  Obs.Metrics.incr c;
  checki "handle still live after reset" 1 (Obs.Metrics.counter_value c)

(* --- counter monotonicity under interleaved spans (qcheck) --- *)

(* A random program of increments nested arbitrarily inside spans.
   Executing it must (a) bump the counter exactly once per Incr no
   matter how spans interleave, (b) never let the observed value
   decrease, and (c) leave the span stack balanced. *)
type prog = Incr | Seq of prog * prog | Span of prog

let prog_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 1 then return Incr
           else
             frequency
               [
                 (2, return Incr);
                 (2, map (fun p -> Span p) (self (n / 2)));
                 (3, map2 (fun a b -> Seq (a, b)) (self (n / 2)) (self (n / 2)));
               ]))

let rec incr_count = function
  | Incr -> 1
  | Seq (a, b) -> incr_count a + incr_count b
  | Span p -> incr_count p

let prog_arbitrary =
  let rec print = function
    | Incr -> "i"
    | Seq (a, b) -> print a ^ ";" ^ print b
    | Span p -> "[" ^ print p ^ "]"
  in
  QCheck.make ~print prog_gen

let monotonic_under_spans =
  QCheck.Test.make ~name:"counter monotone under interleaved spans" ~count:200
    prog_arbitrary (fun prog ->
      let registry = fresh () in
      let c = Obs.Metrics.counter ~registry "ops" in
      let buf = Buffer.create 256 in
      Obs.Trace.enable_buffer buf;
      let monotone = ref true in
      let last = ref (-1) in
      let rec exec = function
        | Incr ->
          Obs.Metrics.incr c;
          let v = Obs.Metrics.counter_value c in
          if v <= !last then monotone := false;
          last := v
        | Seq (a, b) ->
          exec a;
          exec b
        | Span p -> Obs.Trace.with_span "t" (fun () -> exec p)
      in
      exec prog;
      let balanced = Obs.Trace.depth () = 0 in
      Obs.Trace.disable ();
      !monotone
      && balanced
      && Obs.Metrics.counter_value c = incr_count prog)

(* --- trace JSONL round-trip --- *)

let span_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Obs.Json.parse l with
         | Ok j -> j
         | Error e -> Alcotest.fail ("bad trace line: " ^ e))

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> v
  | None -> Alcotest.fail ("missing trace field " ^ name)

let test_trace_roundtrip () =
  let buf = Buffer.create 512 in
  Obs.Trace.enable_buffer buf;
  checkb "enabled" true (Obs.Trace.enabled ());
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.with_span "inner-a" (fun () -> ());
      Obs.Trace.with_span "inner-b" (fun () ->
          Obs.Trace.with_span "leaf" (fun () -> ())));
  Obs.Trace.disable ();
  checkb "disabled" false (Obs.Trace.enabled ());
  let spans = span_lines buf in
  checki "four spans" 4 (List.length spans);
  let by_name name =
    List.find (fun j -> field "name" Obs.Json.to_string_opt j = name) spans
  in
  let id j = field "id" Obs.Json.to_int_opt j in
  let parent j = Option.bind (Obs.Json.member "parent" j) Obs.Json.to_int_opt in
  let outer = by_name "outer" in
  checkb "outer is a root span" true (parent outer = None);
  checki "outer depth" 0 (field "depth" Obs.Json.to_int_opt outer);
  List.iter
    (fun n ->
      checkb (n ^ " nests under outer") true
        (parent (by_name n) = Some (id outer));
      checki (n ^ " depth") 1 (field "depth" Obs.Json.to_int_opt (by_name n)))
    [ "inner-a"; "inner-b" ];
  checkb "leaf nests under inner-b" true
    (parent (by_name "leaf") = Some (id (by_name "inner-b")));
  checki "leaf depth" 2 (field "depth" Obs.Json.to_int_opt (by_name "leaf"));
  List.iter
    (fun j ->
      checkb "dur non-negative" true (field "dur" Obs.Json.to_float_opt j >= 0.0);
      checkb "start non-negative" true
        (field "start" Obs.Json.to_float_opt j >= 0.0);
      checki "pid" (Unix.getpid ()) (field "pid" Obs.Json.to_int_opt j))
    spans

let test_trace_survives_exception () =
  let buf = Buffer.create 128 in
  Obs.Trace.enable_buffer buf;
  (try
     Obs.Trace.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  checki "stack unwound" 0 (Obs.Trace.depth ());
  Obs.Trace.disable ();
  checki "span still emitted" 1 (List.length (span_lines buf))

let test_trace_disabled_is_passthrough () =
  checkb "disabled by default here" false (Obs.Trace.enabled ());
  checki "with_span returns the thunk's value" 41
    (Obs.Trace.with_span "noop" (fun () -> 41))

(* --- JSON parser / printer --- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a \"b\"\n\t\\");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 0.125);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5 ]);
      ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' ->
    checkb "round-trips structurally" true (j = j');
    checks "stable bytes" (Obs.Json.to_string j) (Obs.Json.to_string j');
    let parses_to text v =
      checkb ("parses " ^ text) true (Obs.Json.parse text = Ok v)
    in
    parses_to {|"\b\f\u00e9\ud83d\ude00"|} (Obs.Json.String "\b\012\xc3\xa9\xf0\x9f\x98\x80");
    parses_to "{\"a\":1}\r\n" (Obs.Json.Obj [ ("a", Obs.Json.Int 1) ]);
    parses_to "1e999" (Obs.Json.Float Float.infinity);
    checks "shortest digits that read back" "0.30000000000000004"
      (Obs.Json.to_string (Obs.Json.Float (0.1 +. 0.2)));
    checks "integral floats keep one decimal" "1234567890123456.0"
      (Obs.Json.to_string (Obs.Json.Float 1234567890123456.0));
    let nested k = String.make k '[' ^ String.make k ']' in
    checkb "512 levels of nesting parse" true (Result.is_ok (Obs.Json.parse (nested 512)))

let test_json_errors () =
  List.iter
    (fun s ->
      let shown = if String.length s > 20 then String.sub s 0 20 ^ "..." else s in
      checkb ("rejects " ^ shown) true
        (match Obs.Json.parse s with Error _ -> true | Ok _ -> false))
    [
      "{"; "[1,"; "\"unterminated"; "nul"; "{\"a\" 1}"; "1 2";
      (* A lone surrogate, a \u escape that is not four hex digits, and
         nesting past the cap, which must not recurse: *)
      {|"\ud800"|}; {|"\udc00x"|}; {|"\ud800\u0041"|}; {|"\u0_41"|}; {|"\u+041"|};
      String.make 513 '['; "{\"op\":" ^ String.make 10_000_000 '[';
    ]

(* --- report schema: golden file --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_registry () =
  let registry = fresh () in
  let c = Obs.Metrics.counter ~registry "cdcl.propagations" in
  Obs.Metrics.add c 12345;
  let g = Obs.Metrics.gauge ~registry "runtime.pool.queue_depth" in
  Obs.Metrics.set g 3.0;
  let h =
    Obs.Metrics.histogram ~registry ~bounds:[| 1e-3; 1e-2; 1e-1 |]
      "selector.inference_seconds"
  in
  List.iter (Obs.Metrics.observe h) [ 0.0005; 0.02; 0.02; 5.0 ];
  registry

let test_report_golden () =
  let registry = golden_registry () in
  let got = Obs.Report.to_string ~registry ~now:1700000000.0 () ^ "\n" in
  let want = read_file "obs_report.golden" in
  checks "report bytes match golden file" want got

let test_report_validates () =
  let registry = golden_registry () in
  (match Obs.Report.validate (Obs.Report.to_json ~registry ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("golden registry report invalid: " ^ e));
  (* The default registry — with everything the linked libraries
     registered — must validate too. *)
  match Obs.Report.validate (Obs.Report.to_json ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("default registry report invalid: " ^ e)

let test_report_rejects_bad_docs () =
  List.iter
    (fun (label, doc) ->
      checkb label true
        (match Obs.Report.validate doc with Error _ -> true | Ok () -> false))
    [
      ("missing schema", Obs.Json.Obj []);
      ( "wrong schema",
        Obs.Json.Obj [ ("schema", Obs.Json.String "ns.metrics/999") ] );
      ( "counters not an object",
        Obs.Json.Obj
          [
            ("schema", Obs.Json.String "ns.metrics/1");
            ("created_unix", Obs.Json.Float 0.0);
            ("counters", Obs.Json.List []);
            ("gauges", Obs.Json.Obj []);
            ("histograms", Obs.Json.Obj []);
          ] );
    ]

(* --- bench report schema + regression gate --- *)

let bench ~kernels =
  Obs.Bench_report.make ~date:"2026-08-07" ~fast:true
    ~kernels:
      (List.map
         (fun (name, ns_per_run) -> { Obs.Bench_report.name; ns_per_run })
         kernels)

let test_bench_report_roundtrip () =
  let b = bench ~kernels:[ ("bcp", 1000.0); ("reduce", 2000.0) ] in
  match Obs.Bench_report.of_json (Obs.Bench_report.to_json b) with
  | Error e -> Alcotest.fail e
  | Ok b' ->
    checkb "round-trips" true (b = b');
    checks "stable bytes"
      (Obs.Json.to_string (Obs.Bench_report.to_json b))
      (Obs.Json.to_string (Obs.Bench_report.to_json b'));
    (* The on-disk layout is one kernel per line and reads back equal. *)
    let path = Filename.temp_file "ns-bench" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Obs.Bench_report.write_file path b;
        let kernel_lines =
          List.filter
            (String.starts_with ~prefix:"    {\"name\"")
            (String.split_on_char '\n' (read_file path))
        in
        checki "one line per kernel" 2 (List.length kernel_lines);
        checkb "file round-trips" true
          (Obs.Bench_report.read_file path = Ok b))

let test_checked_in_baseline_validates () =
  (* The CI regression gate is only as good as the baseline artifact:
     the checked-in file must parse under the current schema. *)
  match Obs.Json.parse (read_file "../bench/baseline.json") with
  | Error e -> Alcotest.fail ("bench/baseline.json unreadable: " ^ e)
  | Ok j -> (
    match Obs.Bench_report.of_json j with
    | Ok b -> checkb "baseline lists kernels" true (b.Obs.Bench_report.kernels <> [])
    | Error e -> Alcotest.fail ("bench/baseline.json invalid: " ^ e))

let comparison ?absolute ~baseline ~current () =
  Obs.Bench_report.compare_kernels ?absolute
    ~baseline:(bench ~kernels:baseline) ~current:(bench ~kernels:current) ()

let test_benchdiff_detects_regression () =
  let c =
    comparison
      ~baseline:[ ("a", 100.0); ("b", 100.0); ("c", 100.0) ]
      ~current:[ ("a", 100.0); ("b", 200.0); ("c", 100.0) ]
      ()
  in
  checkb "regression fails the gate" false c.Obs.Bench_report.ok;
  let regressed =
    List.filter_map
      (fun e ->
        if e.Obs.Bench_report.regressed then Some e.Obs.Bench_report.kernel
        else None)
      c.Obs.Bench_report.entries
  in
  checkb "only the slow kernel is flagged" true (regressed = [ "b" ])

let test_benchdiff_normalizes_machine_speed () =
  (* A uniformly 3x slower machine is not a regression … *)
  let uniform =
    comparison
      ~baseline:[ ("a", 100.0); ("b", 100.0); ("c", 100.0) ]
      ~current:[ ("a", 300.0); ("b", 300.0); ("c", 300.0) ]
      ()
  in
  checkb "uniform slowdown passes (normalized)" true uniform.Obs.Bench_report.ok;
  (* … but the same report fails the absolute gate. *)
  let absolute =
    comparison ~absolute:true
      ~baseline:[ ("a", 100.0); ("b", 100.0); ("c", 100.0) ]
      ~current:[ ("a", 300.0); ("b", 300.0); ("c", 300.0) ]
      ()
  in
  checkb "uniform slowdown fails (absolute)" false absolute.Obs.Bench_report.ok

let test_benchdiff_missing_kernel () =
  let c =
    comparison
      ~baseline:[ ("a", 100.0); ("b", 100.0) ]
      ~current:[ ("a", 100.0) ]
      ()
  in
  checkb "missing kernel fails the gate" false c.Obs.Bench_report.ok;
  checkb "missing kernel named" true (c.Obs.Bench_report.missing = [ "b" ])

let test_benchdiff_within_tolerance () =
  let c =
    comparison
      ~baseline:[ ("a", 100.0); ("b", 100.0); ("c", 100.0) ]
      ~current:[ ("a", 110.0); ("b", 95.0); ("c", 100.0) ]
      ()
  in
  checkb "small drift passes" true c.Obs.Bench_report.ok

(* --- instrumented solver counters --- *)

let test_solver_counters_accrue () =
  (* The registry is process-wide and cumulative; measure deltas. *)
  let value name =
    match Obs.Metrics.find name with
    | Some (Obs.Metrics.Counter c) -> Obs.Metrics.counter_value c
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  let props0 = value "cdcl.propagations" in
  let conflicts0 = value "cdcl.conflicts" in
  let result, stats = Cdcl.Solver.solve_formula (Gen.Pigeonhole.unsat 4) in
  checkb "PHP(5,4) is unsat" true (result = Cdcl.Solver.Unsat);
  checki "propagation counter tracks solver stats"
    stats.Cdcl.Solver_stats.propagations
    (value "cdcl.propagations" - props0);
  checki "conflict counter tracks solver stats"
    stats.Cdcl.Solver_stats.conflicts
    (value "cdcl.conflicts" - conflicts0)

(* Every finite double prints to text that parses back to the same
   double, as a Float. *)
let json_float_roundtrip =
  QCheck.Test.make ~name:"json floats read back exactly" ~count:2000
    QCheck.(oneof [ float; map Int64.float_of_bits int64 ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Float f)) with
      | Ok (Obs.Json.Float g) -> Int64.bits_of_float g = Int64.bits_of_float f
      | _ -> false)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ monotonic_under_spans; json_float_roundtrip ]

let suite =
  [
    ("counter basics", `Quick, test_counter_basics);
    ("kind mismatch rejected", `Quick, test_kind_mismatch);
    ("gauge last write wins", `Quick, test_gauge_last_write_wins);
    ("default bounds: 1-2-5 ladder", `Quick, test_default_bounds_shape);
    ("histogram bucket boundaries", `Quick, test_bucket_boundaries);
    ("histogram merge", `Quick, test_histogram_merge);
    ("reset keeps handles live", `Quick, test_reset);
    ("trace JSONL round-trip", `Quick, test_trace_roundtrip);
    ("trace survives exceptions", `Quick, test_trace_survives_exception);
    ("trace disabled is passthrough", `Quick, test_trace_disabled_is_passthrough);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json rejects malformed input", `Quick, test_json_errors);
    ("report matches golden file", `Quick, test_report_golden);
    ("report validates", `Quick, test_report_validates);
    ("report rejects bad documents", `Quick, test_report_rejects_bad_docs);
    ("bench report round-trip", `Quick, test_bench_report_roundtrip);
    ("checked-in baseline validates", `Quick, test_checked_in_baseline_validates);
    ("benchdiff detects regression", `Quick, test_benchdiff_detects_regression);
    ("benchdiff normalizes machine speed", `Quick,
     test_benchdiff_normalizes_machine_speed);
    ("benchdiff flags missing kernels", `Quick, test_benchdiff_missing_kernel);
    ("benchdiff tolerates small drift", `Quick, test_benchdiff_within_tolerance);
    ("solver counters accrue", `Quick, test_solver_counters_accrue);
  ]
  @ qcheck_tests
