(** Length-prefixed framing for the solve-service wire protocol.

    A frame is an ASCII decimal byte count, a newline, then exactly
    that many payload bytes (one JSON object, see {!Journal}).
    Length prefixes make the stream self-synchronising without
    escaping, and let a reader with a partial frame wait for the rest
    instead of guessing. *)

val write : Unix.file_descr -> string -> unit
(** Write one complete frame (blocking; loops over short writes and
    retries EINTR so a signal mid-write cannot tear the frame). Raises
    [Unix.Unix_error] on a broken pipe — callers own the connection
    lifecycle. *)

type reader
(** Buffered inbound bytes for one connection. *)

val create_reader : unit -> reader

val feed : reader -> bytes -> len:int -> unit
(** Append [len] bytes from the chunk. *)

val next : reader -> string option
(** Pop the next complete frame payload, or [None] when more bytes are
    needed. The length prefix is parsed once, as strict decimal digits
    (an optional trailing CR is tolerated): hostile spellings like
    "0x10" or "1_000" are malformed rather than silently accepted.
    After a malformed prefix (non-digit, empty, zero, over nine digits
    or no newline within eleven bytes, or over the 64 MiB sanity cap)
    the reader is poisoned: [next] returns [None] forever and
    {!malformed} turns true. Reading costs time and allocation linear
    in the bytes fed: each payload is copied once, when complete, and
    consuming a frame does not copy the bytes after it. *)

val malformed : reader -> bool

val read_into : reader -> Unix.file_descr -> [ `Data | `Eof | `Blocked ]
(** One [read] of up to 64 KiB fed into the reader. The bytes land in
    one 64 KiB chunk that every reader of the process shares, so a read
    allocates nothing itself; the reader's buffer grows only to hold the
    frames it has not yet returned. The chunk makes [read_into] unsafe
    to call from two domains or threads at once. [`Blocked] covers
    EAGAIN/EWOULDBLOCK on non-blocking descriptors and EINTR (a signal
    before any bytes moved); any other error reports as [`Eof]. *)
