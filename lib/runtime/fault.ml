type point =
  | Torn_checkpoint_write
  | Checkpoint_bit_flip
  | Poisoned_gradient
  | Inference_failure
  | Instance_crash
  | Worker_crash
  | Worker_hang
  | Reap_delay
  | Inprocess_abort
  | Wal_torn_append
  | Wal_crash_before_fsync
  | Wal_snapshot_crash

let all =
  [
    Torn_checkpoint_write;
    Checkpoint_bit_flip;
    Poisoned_gradient;
    Inference_failure;
    Instance_crash;
    Worker_crash;
    Worker_hang;
    Reap_delay;
    Inprocess_abort;
    Wal_torn_append;
    Wal_crash_before_fsync;
    Wal_snapshot_crash;
  ]

let name = function
  | Torn_checkpoint_write -> "torn-checkpoint-write"
  | Checkpoint_bit_flip -> "checkpoint-bit-flip"
  | Poisoned_gradient -> "poisoned-gradient"
  | Inference_failure -> "inference-failure"
  | Instance_crash -> "instance-crash"
  | Worker_crash -> "worker-crash"
  | Worker_hang -> "worker-hang"
  | Reap_delay -> "reap-delay"
  | Inprocess_abort -> "inprocess-abort"
  | Wal_torn_append -> "wal-torn-append"
  | Wal_crash_before_fsync -> "wal-crash-before-fsync"
  | Wal_snapshot_crash -> "wal-snapshot-crash"

let of_name s = List.find_opt (fun p -> name p = s) all

let index p =
  let rec go i = function
    | [] -> assert false
    | q :: _ when q = p -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 all

type slot = {
  rng : Util.Rng.t;
  rate : float;
  limit : int option;
  mutable fired : int;
}

(* One slot per armed point; [None] when disarmed. *)
let state : (point * slot) list ref = ref []

let arm ~seed ?(rate = 1.0) ?limit points =
  state :=
    List.map
      (fun p ->
        ( p,
          {
            rng = Util.Rng.create ((seed * 9_176_167) + index p);
            rate;
            limit;
            fired = 0;
          } ))
      points

let disarm () = state := []

let slot p = List.assoc_opt p !state

let armed p = slot p <> None

let fires p =
  match slot p with
  | None -> false
  | Some s ->
    let exhausted = match s.limit with Some l -> s.fired >= l | None -> false in
    if exhausted then false
    else begin
      let fire = s.rate >= 1.0 || Util.Rng.uniform s.rng 0.0 1.0 < s.rate in
      if fire then s.fired <- s.fired + 1;
      fire
    end

let fired_count p = match slot p with None -> 0 | Some s -> s.fired
