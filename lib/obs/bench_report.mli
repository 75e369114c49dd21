(** Machine-readable benchmark reports and the perf-regression gate.

    Schema ["ns.bench/1"]:
    {v
    { "schema": "ns.bench/1",
      "date": "YYYY-MM-DD",
      "fast": <bool>,
      "kernels": [ {"name": <string>, "ns_per_run": <float>}, … ] }
    v}

    Reports hold kernel timings only; a metrics snapshot, when one is
    wanted, is a separate ["ns.metrics/1"] file ({!Report.write}).
    Unknown top-level fields (such as the [metrics] object older
    reports embedded) are ignored on read.

    [bench/main.ml --json] emits these; [bin/benchdiff.exe] compares a
    current report against the checked-in [bench/baseline.json] and
    fails CI on a regression. *)

type kernel = {
  name : string;
  ns_per_run : float;  (** OLS estimate from bechamel. *)
}

type t = {
  date : string;
  fast : bool;
  kernels : kernel list;
}

val make : date:string -> fast:bool -> kernels:kernel list -> t
val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val write_file : string -> t -> unit
val read_file : string -> (t, string) result

(** {1 Regression gate} *)

type comparison_entry = {
  kernel : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;  (** current / baseline. *)
  normalized_ratio : float;
      (** [ratio] divided by the median ratio across kernels — cancels
          uniform machine-speed differences between the baseline host
          and the CI runner, so only {e relative} regressions (one
          kernel slowing down against the others) trip the gate. *)
  regressed : bool;
}

type comparison = {
  entries : comparison_entry list;
  missing : string list;  (** Baseline kernels absent from current. *)
  ok : bool;  (** No regression and nothing missing. *)
}

val compare_kernels :
  ?tolerance:float -> ?absolute:bool -> baseline:t -> current:t -> unit ->
  comparison
(** [tolerance] defaults to [0.25] (25%). With [absolute:true] the raw
    [ratio] is gated instead of [normalized_ratio] — meaningful only
    when baseline and current ran on the same hardware. *)

val pp_comparison : Format.formatter -> comparison -> unit
