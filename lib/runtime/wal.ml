(* Segmented, CRC-framed write-ahead log.

   On disk a log directory holds:

     wal-<lsn12>.seg    segments of records; the filename is the LSN
                        of the segment's first record
     snap-<lsn12>.snap  snapshots written atomically (temp + rename)

   A record is one [Record] frame with magic NSWAL1 and seq = its LSN,
   followed by a newline; a snapshot file is one NSSNAP1 frame whose
   seq is the LSN it covers. Recovery validates every frame: magic,
   consecutive LSNs, exact payload length, CRC-32 of the payload. The
   first invalid frame is where the durable prefix ends — everything
   from there on is a torn tail (crash mid-write) or trailing garbage,
   and is truncated. *)

let record_magic = "NSWAL1"
let snap_magic = "NSSNAP1"

type recovery = {
  snapshot : (int * string) option;
  records : (int * string) list;
  truncated_bytes : int;
  dropped_segments : int;
  corrupt_snapshots : int;
}

type t = {
  dir : string;
  segment_bytes : int;
  mutable fd : Unix.file_descr;
  mutable seg_size : int; (* bytes in the current segment *)
  mutable seg_records : int; (* records in the current segment *)
  mutable segs : (int * string) list; (* (start lsn, path), ascending *)
  mutable next_lsn : int;
  mutable snap_lsn : int;
  mutable dirty : bool; (* written but not yet fsynced *)
  mutable broken : bool; (* poisoned by a torn append *)
  mutable closed : bool;
}

(* --- small helpers ------------------------------------------------------ *)

let io ~dir ~op message = Error.Io { path = dir; op; message }

let rec ensure_dir d =
  if d <> Filename.dirname d && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let seg_name lsn = Printf.sprintf "wal-%012d.seg" lsn
let snap_name lsn = Printf.sprintf "snap-%012d.snap" lsn

(* "wal-000000000017.seg" -> Some 17 (and the snap equivalent). *)
let parse_numbered ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length name in
  if
    n = pl + 12 + sl
    && String.sub name 0 pl = prefix
    && String.sub name (n - sl) sl = suffix
  then
    let digits = String.sub name pl 12 in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

let frame_record ~lsn payload =
  Record.encode ~magic:record_magic ~seq:lsn payload ^ "\n"

(* --- segment scanning --------------------------------------------------- *)

(* Validate frames sequentially from [text]. Returns the records in
   order, the byte offset of the end of the last valid frame, and the
   next expected LSN. Stops (without raising) at the first invalid
   frame: any [Record] error, a non-consecutive LSN, or a missing
   terminator. *)
let scan_segment ~expected_lsn text =
  let rec go records off expected =
    match Record.decode ~magic:record_magic ~off text with
    | Ok (lsn, payload, next)
      when lsn = expected && next < String.length text && text.[next] = '\n' ->
      go ((lsn, payload) :: records) (next + 1) (expected + 1)
    | _ -> (List.rev records, off, expected)
  in
  go [] 0 expected_lsn

(* The file's one frame, whose LSN must be the one in its name. *)
let load_snapshot ~lsn path =
  match Atomic_file.read path with
  | Error _ -> None
  | Ok text -> (
    match Record.decode ~magic:snap_magic text with
    | Ok (seq, payload, next) when seq = lsn && next = String.length text ->
      Some (lsn, payload)
    | _ -> None)

(* --- open + recovery ---------------------------------------------------- *)

let open_dir ?(segment_bytes = 4 * 1024 * 1024) dir =
  match
    ensure_dir dir;
    ignore (Atomic_file.sweep_stale dir);
    let entries = Sys.readdir dir in
    let segs = ref [] and snaps = ref [] in
    Array.iter
      (fun name ->
        match parse_numbered ~prefix:"wal-" ~suffix:".seg" name with
        | Some lsn -> segs := (lsn, Filename.concat dir name) :: !segs
        | None -> (
          match parse_numbered ~prefix:"snap-" ~suffix:".snap" name with
          | Some lsn -> snaps := (lsn, Filename.concat dir name) :: !snaps
          | None -> ()))
      entries;
    let segs = List.sort compare !segs in
    let snaps = List.sort (fun (a, _) (b, _) -> compare b a) !snaps in
    (* Newest CRC-valid snapshot wins; corrupt ones are counted and
       skipped (a crash mid-snapshot leaves exactly this debris). *)
    let corrupt_snapshots = ref 0 in
    let snapshot =
      List.fold_left
        (fun acc (lsn, path) ->
          match acc with
          | Some _ -> acc
          | None -> (
            match load_snapshot ~lsn path with
            | Some s -> Some s
            | None ->
              incr corrupt_snapshots;
              None))
        None snaps
    in
    let snap_lsn = match snapshot with Some (l, _) -> l | None -> 0 in
    (* Scan segments in order; the first invalid frame ends the durable
       prefix. The segment holding it is truncated there and every
       later segment is dropped. *)
    let records = ref [] in
    let truncated_bytes = ref 0 in
    let dropped_segments = ref 0 in
    let live_segs = ref [] in
    let expected = ref (-1) in
    let torn = ref false in
    List.iter
      (fun (start, path) ->
        if !torn then begin
          incr dropped_segments;
          try Sys.remove path with Sys_error _ -> ()
        end
        else begin
          (* Across a segment boundary the LSNs must stay consecutive;
             the first surviving segment anchors the sequence. *)
          if !expected >= 0 && start <> !expected then torn := true;
          if !torn then begin
            incr dropped_segments;
            try Sys.remove path with Sys_error _ -> ()
          end
          else
            let text =
              match Atomic_file.read path with Ok t -> t | Error _ -> ""
            in
            let recs, good, next = scan_segment ~expected_lsn:start text in
            records := List.rev_append recs !records;
            expected := next;
            if good < String.length text then begin
              torn := true;
              truncated_bytes := !truncated_bytes + (String.length text - good);
              if good = 0 && recs = [] then (
                try Sys.remove path with Sys_error _ -> ())
              else begin
                Unix.truncate path good;
                live_segs := (start, path) :: !live_segs
              end
            end
            else if String.length text = 0 && recs = [] then (
              (* An empty leftover segment (rotation then crash)
                 carries no records; drop it. *)
              try Sys.remove path with Sys_error _ -> ())
            else live_segs := (start, path) :: !live_segs
        end)
      segs;
    let records = List.rev !records in
    let last_record_lsn =
      match records with [] -> 0 | _ -> fst (List.nth records (List.length records - 1))
    in
    let next_lsn = 1 + max snap_lsn last_record_lsn in
    let live_segs = List.rev !live_segs in
    (* A surviving-segment chain that starts above snap_lsn + 1 means
       records between the snapshot and the chain were deleted — e.g.
       the newer snapshot that justified compacting them is itself the
       corrupt one we just skipped. Replaying across that hole would
       silently lose acked state: refuse loudly instead. (With no valid
       snapshot at all, snap_lsn is 0 and the same test catches
       segments that no longer reach back to LSN 1.) *)
    (match live_segs with
    | (first_start, _) :: _ when first_start > snap_lsn + 1 ->
      Error.raise_
        (Error.Corrupt
           {
             path = dir;
             detail =
               Printf.sprintf
                 "wal: records %d..%d missing between snapshot and first \
                  surviving segment"
                 (snap_lsn + 1) (first_start - 1);
           })
    | _ -> ());
    (* Open the tail segment for appending (creating a fresh one when
       nothing survived recovery). *)
    let seg_start, seg_path, seg_size, seg_records, segs =
      match List.rev live_segs with
      | (start, path) :: _ ->
        let size = (Unix.stat path).Unix.st_size in
        let count =
          List.length (List.filter (fun (l, _) -> l >= start) records)
        in
        (start, path, size, count, live_segs)
      | [] ->
        let path = Filename.concat dir (seg_name next_lsn) in
        (next_lsn, path, 0, 0, [ (next_lsn, path) ])
    in
    ignore seg_start;
    let fd =
      Unix.openfile seg_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let t =
      {
        dir;
        segment_bytes = max 4096 segment_bytes;
        fd;
        seg_size;
        seg_records;
        segs;
        next_lsn;
        snap_lsn;
        dirty = false;
        broken = false;
        closed = false;
      }
    in
    let replay = List.filter (fun (l, _) -> l > snap_lsn) records in
    ( t,
      {
        snapshot;
        records = replay;
        truncated_bytes = !truncated_bytes;
        dropped_segments = !dropped_segments;
        corrupt_snapshots = !corrupt_snapshots;
      } )
  with
  | v -> Ok v
  | exception Error.Runtime_error err -> Error err
  | exception e ->
    Error (io ~dir ~op:"wal-open" (Printexc.to_string e))

(* --- appending ---------------------------------------------------------- *)

(* Every successful append fsyncs before it returns, so the log is
   dirty only after an injected crash between write and fsync; the
   next append, rotation, snapshot or close fsyncs that record too. *)
let do_fsync t =
  Unix.fsync t.fd;
  t.dirty <- false

let rotate_if_full t =
  if t.seg_records > 0 && t.seg_size >= t.segment_bytes then begin
    if t.dirty then do_fsync t;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    let path = Filename.concat t.dir (seg_name t.next_lsn) in
    t.fd <-
      Unix.openfile path
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
        0o644;
    t.seg_size <- 0;
    t.seg_records <- 0;
    t.segs <- t.segs @ [ (t.next_lsn, path) ]
  end

let append t payload =
  if t.closed then Error (io ~dir:t.dir ~op:"wal-append" "log closed")
  else if t.broken then
    Error (io ~dir:t.dir ~op:"wal-append" "log poisoned by a torn append")
  else
    match
      rotate_if_full t;
      let lsn = t.next_lsn in
      let record = frame_record ~lsn payload in
      if Fault.fires Fault.Wal_torn_append then begin
        (* Crash mid-write: a prefix of the frame reaches the file and
           the handle is unusable, exactly like a process death. *)
        let torn = max 1 (String.length record / 2) in
        (try Fd.write_all t.fd (String.sub record 0 torn) with _ -> ());
        t.broken <- true;
        Error (Error.Injected_fault { point = Fault.name Fault.Wal_torn_append })
      end
      else begin
        Fd.write_all t.fd record;
        t.dirty <- true;
        t.seg_size <- t.seg_size + String.length record;
        t.seg_records <- t.seg_records + 1;
        t.next_lsn <- lsn + 1;
        if Fault.fires Fault.Wal_crash_before_fsync then
          (* The record is complete in the file but not fsynced: the
             caller must treat the op as un-acked. *)
          Error
            (Error.Injected_fault
               { point = Fault.name Fault.Wal_crash_before_fsync })
        else begin
          do_fsync t;
          Ok lsn
        end
      end
    with
    | r -> r
    | exception e -> Error (io ~dir:t.dir ~op:"wal-append" (Printexc.to_string e))

(* --- snapshots + compaction --------------------------------------------- *)

(* Compaction must leave the log recoverable from the OLDEST retained
   snapshot: the newest one can still be lost to bit rot, and falling
   back to the older one is only sound if every record after its LSN
   survives in segments. So: keep the two newest snapshots, then
   delete only segments wholly covered by the older of the two.
   Segment i's last record is (start of segment i+1) - 1, so it can go
   once that is at or below the retention LSN; the tail segment always
   stays. *)
let compact t =
  let snaps =
    Sys.readdir t.dir |> Array.to_list
    |> List.filter_map (fun n -> parse_numbered ~prefix:"snap-" ~suffix:".snap" n)
    |> List.sort (fun a b -> compare b a)
  in
  List.iteri
    (fun i lsn ->
      if i >= 2 then
        try Sys.remove (Filename.concat t.dir (snap_name lsn))
        with Sys_error _ -> ())
    snaps;
  let retain_lsn =
    match snaps with
    | _newest :: older :: _ -> min older t.snap_lsn
    | _ -> t.snap_lsn
  in
  let rec go = function
    | (_, p1) :: ((s2, _) :: _ as rest) when s2 - 1 <= retain_lsn ->
      (try Sys.remove p1 with Sys_error _ -> ());
      go rest
    | segs -> segs
  in
  t.segs <- go t.segs

(* The payload is never held whole: its pieces go straight into the
   temp file behind a placeholder header of the same width, counted and
   CRC-ed as they pass, and the real header is written over the
   placeholder before the fsync and rename. *)
let write_snapshot ~lsn path emit =
  Atomic_file.write_with path (fun oc ->
      let header ~len ~crc = Record.header ~magic:snap_magic ~seq:lsn ~len ~crc in
      output_string oc (header ~len:0 ~crc:0);
      let len = ref 0 and crc = ref 0 in
      emit (fun piece ->
          output_string oc piece;
          len := !len + String.length piece;
          crc := Crc32.update !crc piece);
      seek_out oc 0;
      output_string oc (header ~len:!len ~crc:!crc))

let snapshot t emit =
  if t.closed then Error (io ~dir:t.dir ~op:"wal-snapshot" "log closed")
  else begin
    let lsn = t.next_lsn - 1 in
    let path = Filename.concat t.dir (snap_name lsn) in
    if Fault.fires Fault.Wal_snapshot_crash then begin
      (* Crash mid-snapshot: a torn file lands at the destination
         without the atomic rename. Recovery must reject it. *)
      let payload = Buffer.create 4096 in
      emit (Buffer.add_string payload);
      let content =
        Record.encode ~magic:snap_magic ~seq:lsn (Buffer.contents payload)
      in
      ignore
        (Atomic_file.write_raw path
           (String.sub content 0 (String.length content / 2)));
      Error (Error.Injected_fault { point = Fault.name Fault.Wal_snapshot_crash })
    end
    else
      (* The snapshot must never claim more than is durable in the
         segments it is about to replace. *)
      match if t.dirty then do_fsync t with
      | exception e -> Error (io ~dir:t.dir ~op:"wal-sync" (Printexc.to_string e))
      | () -> (
        match write_snapshot ~lsn path emit with
        | Error e -> Error e
        | Ok () ->
          t.snap_lsn <- lsn;
          (match compact t with () -> () | exception _ -> ());
          Ok ())
  end

(* --- accessors ---------------------------------------------------------- *)

let last_lsn t = t.next_lsn - 1
let snapshot_lsn t = t.snap_lsn
let segment_count t = List.length t.segs

let close t =
  if not t.closed then begin
    (try if t.dirty then do_fsync t with _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    t.closed <- true
  end
