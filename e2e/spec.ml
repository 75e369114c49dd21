(* The benchmark's definition: workloads and metrics. BENCHMARK.json at
   the repository root states the same table; a test keeps the two
   equal. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** End-to-end only: tolerated worsening, as a share. *)
}

let m ?(bound = 0.0) name unit_ better = { name; unit_; better; bound }

let workloads =
  [
    ( "campaign",
      "batch campaign of the 2022 mix in process: inference is about 40% of \
       the median instance and CDCL search dominates throughput; no fork, \
       socket or WAL" );
    ( "serve-unique",
      "ns-serve --adaptive with distinct medium instances: parent-side \
       inference and the pool/event loop dominate, the decision cache never \
       hits" );
    ( "serve-repeat",
      "ns-serve --adaptive cycling 16 warmed instances as shuffled copies: \
       every selection hits the cache, the control for inference changes" );
    ( "sessions",
      "durable incremental sessions over a per-record-fsync WAL: the WAL \
       write path beside incremental solves, with no fork and no selector" );
  ]

let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "throughput_per_s" "1/s" Higher ~bound:0.24;
    m "latency_p50_ms" "ms" Lower ~bound:0.24;
    m "latency_p95_ms" "ms" Lower ~bound:0.24;
    m "peak_rss_mb" "MB" Lower ~bound:0.1;
    m "solved_pct" "%" Higher ~bound:0.05;
    m "ok_pct" "%" Higher ~bound:0.02;
  ]

let per_layer =
  [
    m "cnf.parse_ms" "ms" Lower;
    m "cnf.fingerprint_ms" "ms" Lower;
    m "graph.build_ms" "ms" Lower;
    m "infer.ms" "ms" Lower;
    m "select.ms" "ms" Lower;
    m "select.self_ms" "ms" Lower;
    m "select.share" "ratio" Lower;
    m "select.cache_hit_ratio" "ratio" Higher;
    m "select.frequency_share" "ratio" Higher;
    m "solve.ms" "ms" Lower;
    m "solve.props_per_s" "1/s" Higher;
    m "solve.propagations" "count" Lower;
    m "solve.conflicts" "count" Lower;
    m "reduce.ms" "ms" Lower;
    m "reduce.passes" "count" Lower;
    m "reduce.deleted_ratio" "ratio" Lower;
    m "search.self_ms" "ms" Lower;
    m "pool.fork_ms" "ms" Lower;
    m "pool.wait_ms" "ms" Lower;
    m "pool.queued_max" "count" Lower;
    m "pool.shed" "count" Lower;
    m "pool.retries" "count" Lower;
    m "serve.select_ms" "ms" Lower;
    m "serve.frontend_ms" "ms" Lower;
    m "session.add_ms" "ms" Lower;
    m "session.solve_ms" "ms" Lower;
    m "wal.append_ms" "ms" Lower;
    m "wal.bytes_per_op" "bytes" Lower;
    m "gen.lateness_p95_ms" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
    m "trace.attributed_pct" "%" Higher;
  ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
let better_name = function Lower -> "lower" | Higher -> "higher"
