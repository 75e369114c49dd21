(** Minimal JSON tree with a deterministic printer: the one JSON codec.

    Metric reports, bench results and trace spans, and through
    {!Runtime.Journal} the campaign journal, the session WAL and the
    ns-serve wire, all read and write JSON here. Their bytes must be
    stable across runs for golden tests and CI diffing, so the printer
    guarantees: object keys in the order given by the caller, floats
    through one canonical format, no whitespace variation. The parser
    accepts standard JSON (objects, arrays, strings with escapes,
    numbers, booleans, null), and since it reads the wire it answers
    hostile input with [Error], never an exception or unbounded
    recursion. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** An integral value below 1e17 prints as ["%.1f"] ([3.0]); any
          other finite value as the shortest of ["%.15g"], ["%.16g"]
          and ["%.17g"] that reads back as the same double, so [parse]
          returns exactly the [Float] that was printed. Non-finite
          floats print as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no trailing newline. *)

val parse : string -> (t, string) result
(** Parse one JSON document, surrounded by any JSON whitespace; [Error]
    carries a position-tagged message. Numbers without ['.'], ['e'] or
    ['E'] that fit an OCaml [int] parse as [Int], everything else as
    [Float] (out-of-range ones as infinities). A [\u] escape takes
    four hex digits and decodes to UTF-8; a surrogate pair decodes to
    one code point and a lone surrogate is an [Error]. Arrays and
    objects nested more than 512 deep are an [Error]. *)

(** {1 Accessors} — [None] on kind mismatch or missing member. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
(** Accepts [Int] and [Float]. *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
