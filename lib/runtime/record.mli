(** The one CRC-framed record on disk: WAL records, WAL snapshots and
    checkpoints are all

    {v <magic> <seq:12 hex> <len:8 hex> <crc32:8 hex>\n<payload> v}

    with lowercase hex fields, [len] the payload's byte count and the
    CRC-32 taken over the payload. The seq is outside the CRC, so its
    user checks it against what it expects: the WAL wants consecutive
    LSNs and a snapshot's LSN in its file name. *)

type error =
  | Truncated  (** The input ends inside the frame: a torn write. *)
  | Bad_magic  (** The frame does not start with the magic. *)
  | Bad_crc  (** The payload is whole but fails its CRC-32. *)
  | Malformed  (** A header field has the wrong character. *)

val error_to_string : error -> string

val header : magic:string -> seq:int -> len:int -> crc:int -> string
(** The header of a frame whose payload has [len] bytes and CRC-32
    [crc]: always [String.length magic + 32] bytes, so a writer that
    streams a payload can put a placeholder header first and write the
    real one over it once the payload is out. Raises [Invalid_argument]
    unless [seq] lies in [0, 2{^48}) and [len] and [crc] in
    [0, 2{^32}). *)

val encode : magic:string -> seq:int -> string -> string
(** One frame: [header] of the payload's length and CRC-32, then the
    payload. [seq] must lie in [0, 2{^48}). *)

val decode :
  magic:string -> ?off:int -> string -> (int * string * int, error) result
(** The frame that starts at byte [off] (default 0) of the text:
    [(seq, payload, offset just past the payload)]. Every proper prefix
    of a frame is [Truncated]. The length field is checked against the
    bytes left before the payload is copied, so a hostile length costs
    nothing. Never raises for [off] in [0, String.length text]. *)
