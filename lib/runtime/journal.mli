(** Append-only JSONL persistence for partial experiment results.

    One JSON object per line, written and read through {!Obs.Json};
    appends are flushed and fsynced so a killed campaign loses at most
    the line being written. [load] tolerates a torn final line (the
    normal signature of a SIGKILL) by dropping it and reporting the
    count, so resuming is always possible. *)

type value = Obs.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Non-finite floats encode as [null]. *)
  | String of string
  | List of value list
  | Obj of (string * value) list

type record = (string * value) list

val append : string -> record -> (unit, Error.t) result
(** Append one record as a single line, creating the file if needed. *)

val load : string -> (record list * int, Error.t) result
(** All parseable records plus the number of dropped (malformed)
    lines. A missing file is an empty journal, not an error. *)

val encode : record -> string
(** One JSON object, no trailing newline. *)

val parse_line : string -> record option
(** [None] unless the line is one JSON object. *)

(** Field accessors; [None] when absent or of the wrong kind. The
    first of duplicate keys wins. *)

val find_string : record -> string -> string option
val find_float : record -> string -> float option
(** Accepts [Int], [Float], and [Null] (as [nan]). *)

val find_int : record -> string -> int option
val find_bool : record -> string -> bool option
