(** Crash-safe whole-file IO.

    [write_with] lands the full content or leaves the destination
    untouched: bytes go to a process-unique temp file in the same
    directory, are fsynced, and are renamed over the destination
    (atomic on POSIX). [write] is [write_with] of one string; it is the
    one atomic-write path. *)

val read : string -> (string, Error.t) result
(** Whole file contents, or a typed [Io] error. *)

val write_with :
  ?fsync:bool -> string -> (out_channel -> unit) -> (unit, Error.t) result
(** Atomic replace, streamed: the function writes the content into a
    buffered channel on the temp file, in as many pieces as it likes,
    and may [seek_out] back to overwrite bytes it already wrote (a
    header it could only fill in at the end). It must not close the
    channel. Then the channel is flushed, the temp file fsynced and
    closed and renamed over the destination. [fsync] (default true)
    forces the data to disk before the rename so a crash cannot leave a
    renamed-but-empty file, and fsyncs the parent directory after the
    rename so a crash immediately afterwards cannot lose the new
    directory entry. If the function or any step raises, the temp file
    is removed, the destination is untouched and the result is a typed
    [Io] error. *)

val write : ?fsync:bool -> string -> string -> (unit, Error.t) result
(** [write path content] is [write_with path] writing [content]. *)

val sweep_stale : string -> int
(** Remove [*.tmp.<pid>] files in the directory whose writing process
    is no longer alive (crashed before its rename); returns how many
    were removed. Safe to call concurrently with live writers — their
    pid is alive, so their tmp files are kept. *)

val write_raw : string -> string -> (unit, Error.t) result
(** Non-atomic direct write, used only by fault injection to simulate
    a torn (power-loss) write. *)
