let max_frame = 64 * 1024 * 1024

(* A frame torn by a signal would desynchronise every later message on
   the connection; [Fd.write_all] retries EINTR. *)
let write fd payload =
  Fd.write_all fd (Printf.sprintf "%d\n%s" (String.length payload) payload)

(* Buffered bytes live in [data] from [start] to [stop]. Once a
   frame's prefix is parsed, [start] is its payload and [len] its
   length; before, [len] is -1. A frame is consumed by moving [start]
   past it, so the rest of the buffer is never copied per frame. *)
type reader = {
  mutable data : bytes;
  mutable start : int;
  mutable stop : int;
  mutable len : int;
  mutable bad : bool;
}

let create_reader () =
  { data = Bytes.create 256; start = 0; stop = 0; len = -1; bad = false }

(* Room for [n] bytes from [start]. The unread bytes slide to the front
   when at least as many were consumed, else move to a buffer at least
   twice as large, so each byte is copied a bounded number of times. *)
let reserve r n =
  let cap = Bytes.length r.data in
  if r.start + n > cap then begin
    let live = r.stop - r.start in
    let data =
      if n <= cap && r.start >= live then r.data
      else Bytes.create (max n (2 * cap))
    in
    Bytes.blit r.data r.start data 0 live;
    r.data <- data;
    r.start <- 0;
    r.stop <- live
  end

let feed r chunk ~len =
  if not r.bad then begin
    reserve r (r.stop - r.start + len);
    Bytes.blit chunk 0 r.data r.stop len;
    r.stop <- r.stop + len
  end

(* Strict decimal length prefix: ASCII digits only (an optional
   trailing CR tolerates CRLF clients). [int_of_string_opt] would also
   accept hostile prefixes like "0x10", "1_000", "+5", or "- 3" — all
   of which desynchronise the framing between a lenient reader and any
   spec-faithful peer. Nine digits comfortably covers the 64 MiB cap
   without overflow. *)
let parse_length s =
  let s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
  in
  let n = String.length s in
  if n = 0 || n > 9 then None
  else if String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

(* Nine digits and an optional CR: a prefix with no newline in its
   first [max_prefix + 1] bytes is malformed. *)
let max_prefix = 10

let rec newline r i =
  if i >= r.stop || i > r.start + max_prefix then None
  else if Bytes.get r.data i = '\n' then Some i
  else newline r (i + 1)

(* Parse the length prefix once; the payload is then copied once, when
   all of it has arrived. *)
let next r =
  if (not r.bad) && r.len < 0 then begin
    match newline r r.start with
    | None -> if r.stop - r.start > max_prefix then r.bad <- true
    | Some nl -> (
      match parse_length (Bytes.sub_string r.data r.start (nl - r.start)) with
      | Some len when len > 0 && len <= max_frame ->
        r.start <- nl + 1;
        r.len <- len;
        reserve r len
      | _ -> r.bad <- true)
  end;
  if r.bad || r.len < 0 || r.stop - r.start < r.len then None
  else begin
    let payload = Bytes.sub_string r.data r.start r.len in
    r.start <- r.start + r.len;
    r.len <- -1;
    Some payload
  end

let malformed r = r.bad

(* Readers run on the process's one thread, so one chunk serves every
   read: a 64 KiB buffer is too large for the minor heap, and a fresh
   one per read was most of a sessions op's major-heap allocation. *)
let chunk = Bytes.create 65536

let read_into r fd =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
    feed r chunk ~len:n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    `Blocked
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    (* Interrupted before any bytes moved: nothing read, not EOF — the
       caller's select loop will come back. *)
    `Blocked
  | exception Unix.Unix_error _ -> `Eof
