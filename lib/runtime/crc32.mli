(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over strings.

    {!Record} checksums every payload it frames with it (WAL records,
    snapshots, checkpoints), so bit flips and truncation are detected
    before anything is replayed or restored. *)

val string : string -> int
(** Checksum of a whole string, in [0, 2^32). *)

val update : int -> string -> int
(** [update (string a) b = string (a ^ b)]: a checksum extended piece
    by piece equals the checksum of the pieces joined, so a payload
    streamed out in pieces can be checksummed as it goes. [string s]
    is [update 0 s]. *)

val to_hex : int -> string
(** Fixed-width lowercase 8-digit hex. *)
