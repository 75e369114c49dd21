(** Parameter (de)serialisation, hardened against corruption.

    The payload is a plain text format — one [name rows cols] header
    line per parameter followed by its row-major values — so
    checkpoints diff cleanly and survive compiler upgrades (no
    Marshal). On disk the payload is one {!Runtime.Record} frame

    {v NSCKPT3 <epochs:12 hex> <payload-bytes:8 hex> <crc32:8 hex> v}

    whose seq is the number of completed training epochs (0 for a
    checkpoint written outside training) and whose CRC-32 is verified
    before any parameter is mutated, so bit flips and truncation
    surface as typed errors rather than silently corrupted weights.
    A record's seq sits outside its CRC, so the payload opens with the
    line [epochs <n>], the same count inside the CRC; a file whose two
    counts differ is [Corrupt]. An [NSCKPT3] payload without that line
    (the first writer of this format) still loads, under its seq.
    Writes are atomic (temp file + rename) and promote the previous
    intact checkpoint to a [.bak] sibling; [load_result] falls back to
    the [.bak] automatically when the primary is damaged.

    Files in the earlier [NSCKPT 2 <crc32-hex> <payload-bytes>] format
    still load, as 0 epochs; nothing writes it. A headerless payload
    (the format before that) has no CRC and is [Corrupt]. *)

type source =
  | Primary  (** The requested path itself. *)
  | Backup  (** The [.bak] last-good copy; the primary was damaged. *)

val backup_path : string -> string
(** [path ^ ".bak"]. *)

val save : epochs:int -> string -> Param.t list -> unit
(** Atomic write of a checkpoint after [epochs] completed training
    epochs; promotes an intact existing file to [.bak].
    @raise Runtime.Error.Runtime_error on IO failure. *)

val load : string -> Param.t list -> unit
(** Restore values into an existing parameter list, matched by name,
    falling back to the [.bak] copy if the primary is corrupt.
    @raise Runtime.Error.Runtime_error when neither copy is usable
    (IO failure, corruption, missing parameter, shape mismatch,
    duplicate parameter block). *)

val load_result :
  string -> Param.t list -> (source * int, Runtime.Error.t) result
(** Like [load] but reports which copy was used, and the epoch count
    it was saved with, instead of raising. Parameters are only mutated
    after the chosen copy fully validates. *)

val encode : epochs:int -> Param.t list -> string
(** The checkpoint record, exactly as written to disk. *)

val of_string_result :
  ?source:string -> string -> Param.t list -> (int, Runtime.Error.t) result
(** Restore from a checkpoint's bytes and return its epoch count;
    [source] names it in errors. *)
