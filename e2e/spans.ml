(* In-memory span recorder for traced runs.

   Deliberately not Obs.Trace: enabling that also opens a span on every
   BCP call inside the solver, which would change what is measured.
   Spans here wrap calls into a layer's public functions from the
   benchmark's side, are kept in memory, and are written out as JSONL
   when the run ends. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root span. *)
  req : int;  (** Request or instance index; -1 when none. *)
  start : float;
  dur : float;  (** Seconds. *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

let reset () =
  recorded := [];
  next_id := 0;
  open_spans := []

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !open_spans with p :: _ -> p | [] -> 0 in
    open_spans := id :: !open_spans;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. start in
        open_spans := List.tl !open_spans;
        recorded := { name; id; parent; req; start; dur } :: !recorded)
      f
  end

let spans () = List.rev !recorded
let named name = List.filter (fun s -> s.name = name) (spans ())

(* Mean duration of the named spans, in milliseconds. *)
let mean_ms name =
  match named name with
  | [] -> 0.0
  | ss -> 1000.0 *. Stats.mean (List.map (fun s -> s.dur) ss)

let total name = List.fold_left (fun acc s -> acc +. s.dur) 0.0 (named name)

(* Seconds covered by the direct children of spans named [parent]:
   the time attributed to a named layer call. *)
let covered ~parent =
  let all = spans () in
  let ids = Hashtbl.create 256 in
  List.iter (fun s -> if s.name = parent then Hashtbl.replace ids s.id ()) all;
  List.fold_left
    (fun acc s -> if Hashtbl.mem ids s.parent then acc +. s.dur else acc)
    0.0 all

(* The recorder's own cost per span, measured on empty spans that are
   then dropped again. *)
let cost_per_span () =
  let saved = !recorded and saved_id = !next_id and was = !enabled in
  enabled := true;
  let n = 20_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    with_span "calibrate" ignore
  done;
  let per = (Unix.gettimeofday () -. t0) /. float_of_int n in
  recorded := saved;
  next_id := saved_id;
  enabled := was;
  per

(* Append this run's spans to [path], one JSON object per line. *)
let write_jsonl ~workload path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun s ->
      output_string oc
        (Runtime.Journal.encode
           [
             ("workload", Runtime.Journal.String workload);
             ("name", Runtime.Journal.String s.name);
             ("id", Runtime.Journal.Int s.id);
             ("parent", Runtime.Journal.Int s.parent);
             ("req", Runtime.Journal.Int s.req);
             ("start", Runtime.Journal.Float s.start);
             ("dur_ms", Runtime.Journal.Float (1000.0 *. s.dur));
           ]);
      output_char oc '\n')
    (spans ());
  close_out oc
