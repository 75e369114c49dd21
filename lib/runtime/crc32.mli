(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over strings.

    {!Record} checksums every payload it frames with it (WAL records,
    snapshots, checkpoints), so bit flips and truncation are detected
    before anything is replayed or restored. *)

val string : string -> int
(** Checksum of a whole string, in [0, 2^32). *)

val update : int -> string -> int
(** Incrementally extend a checksum ([update 0 s = string s] holds
    only for the empty prefix; use [string] for one-shot use). *)

val to_hex : int -> string
(** Fixed-width lowercase 8-digit hex. *)
