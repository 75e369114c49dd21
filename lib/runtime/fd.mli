(** Writes to raw descriptors. *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string: loops over short writes and
    retries EINTR, so a signal cannot tear the write. Raises
    [Unix.Unix_error] on any other failure. *)
