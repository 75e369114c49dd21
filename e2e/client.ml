(* Load-generator side of the ns-serve wire protocol: framed socket
   connections, spawn-until-pong, request/response matching, and the
   shadow state that mirrors what a durable session must hold. *)

let now = Unix.gettimeofday

module J = Runtime.Journal

type conn = {
  fd : Unix.file_descr;
  reader : Runtime.Frame.reader;
  mutable closed : bool;
}

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; reader = Runtime.Frame.create_reader (); closed = false }
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

(* Connections stay blocking: reads only happen after [select] reports
   the descriptor readable, and a blocking write never tears a frame. *)
let send c record =
  try Runtime.Frame.write c.fd (J.encode record)
  with Unix.Unix_error _ -> close c

(* Read whatever is available on the readable connections, waiting at
   most [timeout] seconds, and return the decoded responses. *)
let poll conns timeout =
  let live = List.filter (fun c -> not c.closed) conns in
  let fds = List.map (fun c -> c.fd) live in
  let readable =
    if fds = [] then (
      Unix.sleepf (Float.max 0.0 timeout);
      [])
    else
      match Unix.select fds [] [] (Float.max 0.0 timeout) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  List.concat_map
    (fun c ->
      if not (List.mem c.fd readable) then []
      else begin
        (match Runtime.Frame.read_into c.reader c.fd with
        | `Eof -> close c
        | `Data | `Blocked -> ());
        let rec drain acc =
          match Runtime.Frame.next c.reader with
          | None -> List.rev acc
          | Some payload -> (
            match J.parse_line payload with
            | Some fields -> drain ((c, fields) :: acc)
            | None -> drain acc)
        in
        drain []
      end)
    live

let field_id fields = Option.value (J.find_string fields "id") ~default:""

(* Send one request and wait for the response carrying its id. A
   timeout closes the connection, so a hung server costs one wait. *)
let rpc ?(timeout = 30.0) c ~id fields =
  send c (("id", J.String id) :: fields);
  let deadline = now () +. timeout in
  let rec wait () =
    if c.closed then None
    else if now () >= deadline then (
      close c;
      None)
    else
      match
        List.find_opt (fun (_, f) -> field_id f = id) (poll [ c ] 0.05)
      with
      | Some (_, f) -> Some f
      | None -> wait ()
  in
  wait ()

(* --- server process ----------------------------------------------------- *)

type server = {
  pid : int;
  socket : string;
}

(* Servers still running; [kill_all] stops them when the run ends early. *)
let spawned = ref []

let reap pid = spawned := List.filter (( <> ) pid) !spawned

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !spawned;
  spawned := []

(* TMPDIR points into the run's scratch directory, so the server and its
   workers write nowhere else. *)
let spawn ~exe ~socket ~tmpdir args =
  let env =
    Array.append
      [| "TMPDIR=" ^ tmpdir |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let argv = Array.of_list (exe :: "--socket" :: socket :: args) in
  let pid =
    Unix.create_process_env exe argv env Unix.stdin Unix.stderr Unix.stderr
  in
  spawned := pid :: !spawned;
  { pid; socket }

(* Connect and ping until the freshly spawned server answers. *)
let connect_ready ?(timeout = 10.0) srv =
  let deadline = now () +. timeout in
  let rec go () =
    if now () >= deadline then None
    else
      match connect srv.socket with
      | None ->
        Unix.sleepf 0.005;
        go ()
      | Some c -> (
        match rpc ~timeout:2.0 c ~id:"ping" [ ("op", J.String "ping") ] with
        | Some _ -> Some c
        | None ->
          close c;
          go ())
  in
  go ()

(* Peak resident set size of a live process, from /proc (Linux). *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status"
      (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* SIGTERM and reap; the drain contract says the server exits 0. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = Unix.waitpid [] srv.pid in
  reap srv.pid;
  match status with
  | _, Unix.WEXITED 0 -> Ok ()
  | _, Unix.WEXITED c -> Error (Printf.sprintf "server exited %d" c)
  | _, Unix.WSIGNALED s -> Error (Printf.sprintf "server killed by signal %d" s)
  | _, Unix.WSTOPPED _ -> Error "server stopped"

(* --- shadow session state ------------------------------------------------ *)

(* What a durable session must still know, updated only on acks. *)
type shadow = {
  sid : string;
  mutable vars : int;
  mutable clauses : Cnf.Lit.t list list; (* newest first *)
  mutable count : int;
}

let shadow_new sid vars = { sid; vars; clauses = []; count = 0 }

let shadow_add sh clause =
  List.iter (fun l -> sh.vars <- max sh.vars (Cnf.Lit.var l)) clause;
  sh.clauses <- clause :: sh.clauses;
  sh.count <- sh.count + 1

(* A fresh solver over the acked clauses plus [units]: the oracle a
   session's incremental answers must agree with. *)
let oracle_verdict ~vars ~clauses ~units =
  let f =
    Cnf.Formula.create ~num_vars:vars
      (Array.of_list (List.map Array.of_list (units @ clauses)))
  in
  fst (Cdcl.Solver.solve_formula f)

let model_of_string ~num_vars s =
  let m = Array.make (num_vars + 1) false in
  List.iter
    (fun tok ->
      match int_of_string_opt tok with
      | Some d when d <> 0 && abs d <= num_vars -> m.(abs d) <- d > 0
      | _ -> ())
    (String.split_on_char ' ' s);
  m
