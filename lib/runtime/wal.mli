(** Segmented, CRC-framed append-only write-ahead log.

    The log is a directory of segment files ([wal-<lsn>.seg], named by
    the log sequence number of their first record) plus optional
    snapshot files ([snap-<lsn>.snap]). Every record is one
    {!Record} frame (magic [NSWAL1], seq = its LSN: the magic, the LSN,
    the payload length and a CRC-32 of the payload) followed by a
    newline, so recovery can tell a complete record from the torn tail
    a crash (or power loss) leaves behind. A snapshot file is one
    [NSSNAP1] frame whose seq is the LSN it covers.

    Durability contract: every {!append} fsyncs its record before it
    returns [Ok], so a record is durable once its append has returned.
    "Acked implies durable" at a higher layer means: do not acknowledge
    an operation to a client before the corresponding append has
    returned.

    Recovery ({!open_dir}) loads the newest CRC-valid snapshot whose
    LSN matches its file name (corrupt snapshots fall back to older
    ones), then scans segments in LSN
    order validating every frame. The first invalid frame marks the end
    of the durable prefix: the segment is truncated there and any later
    segments are dropped. Records with LSNs at or below the snapshot
    are skipped during replay; {!snapshot} deletes segments wholly
    covered by the snapshot (compaction) using {!Atomic_file} so a
    crash mid-snapshot never loses the previous one. *)

type t

type recovery = {
  snapshot : (int * string) option;
      (** Newest valid snapshot: (covered LSN, payload). *)
  records : (int * string) list;
      (** Durable records after the snapshot, in LSN order. *)
  truncated_bytes : int;
      (** Torn-tail bytes discarded from the last valid segment. *)
  dropped_segments : int;
      (** Whole segments discarded after a mid-log corruption. *)
  corrupt_snapshots : int;
      (** Snapshot files that failed CRC/format validation or named
          another LSN than their header. *)
}

val open_dir : ?segment_bytes:int -> string -> (t * recovery, Error.t) result
(** Open (creating if needed) the log directory, run recovery, and
    position the log for appending after the durable prefix.
    [segment_bytes] (default 4 MiB) bounds a segment before rotation.
    Fails with [Error.Corrupt] when the surviving segments do not
    reach back to the chosen snapshot's LSN + 1 — an LSN hole means
    acked records were lost, and replaying across it would silently
    diverge. *)

val append : t -> string -> (int, Error.t) result
(** Append one record, fsync it, and return its LSN: the record is
    durable on [Ok]. *)

val snapshot : t -> ((string -> unit) -> unit) -> (unit, Error.t) result
(** [snapshot t emit] atomically persists a snapshot covering every
    record appended so far, then compacts. Its payload is the pieces
    [emit] passes to the function it is given, joined in order; they
    stream through {!Atomic_file.write_with} behind a placeholder
    header, counted and CRC-ed ({!Crc32.update}) as they go out, and the
    real header replaces the placeholder before the fsync and rename.
    The file holds exactly the bytes {!Record.encode} gives for the
    joined payload, and no string of the whole payload is built. [emit]
    must not use the log; if it raises, the snapshot fails and the
    previous one stays. All but the two newest snapshot
    files are deleted; segments are deleted only when wholly covered
    by the {e older} retained snapshot, so a fallback from a newest
    snapshot later found corrupt never meets an LSN hole. The log
    stays open for appending. *)

val last_lsn : t -> int
(** LSN of the most recent record (0 when the log is empty). *)

val snapshot_lsn : t -> int
(** LSN covered by the newest valid snapshot (0 when none). *)

val segment_count : t -> int
(** Live segment files, including the one being appended to. *)

val close : t -> unit
(** Sync and close. Appending after [close] is an error. *)
