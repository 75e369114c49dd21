type t = {
  mutable prev : int array; (* var -> predecessor (towards front), 0 = none *)
  mutable next : int array; (* var -> successor (towards back), 0 = none *)
  mutable stamp : int array; (* var -> enqueue timestamp *)
  mutable num_vars : int;
  mutable head : int;
  mutable counter : int;
  mutable search : int; (* start point for pick; 0 = use head *)
  mutable tail_hint : int; (* where grow starts its walk to the tail *)
}

let create ~num_vars =
  let prev = Array.make (num_vars + 1) 0 in
  let next = Array.make (num_vars + 1) 0 in
  let stamp = Array.make (num_vars + 1) 0 in
  for v = 1 to num_vars do
    prev.(v) <- (if v = 1 then 0 else v - 1);
    next.(v) <- (if v = num_vars then 0 else v + 1);
    stamp.(v) <- num_vars - v + 1
  done;
  {
    prev;
    next;
    stamp;
    num_vars;
    head = (if num_vars >= 1 then 1 else 0);
    counter = num_vars;
    search = 0;
    tail_hint = num_vars;
  }

let unlink t v =
  let p = t.prev.(v) and n = t.next.(v) in
  if p <> 0 then t.next.(p) <- n else t.head <- n;
  if n <> 0 then t.prev.(n) <- p

let bump t v =
  if t.head <> v then begin
    if t.search = v then t.search <- t.next.(v);
    unlink t v;
    t.prev.(v) <- 0;
    t.next.(v) <- t.head;
    if t.head <> 0 then t.prev.(t.head) <- v;
    t.head <- v
  end;
  t.counter <- t.counter + 1;
  t.stamp.(v) <- t.counter;
  (* A freshly bumped variable is the best pick if unassigned. *)
  t.search <- 0

let pick t ~assigned =
  let start = if t.search <> 0 then t.search else t.head in
  let rec walk v =
    if v = 0 then None
    else if not (assigned v) then begin
      t.search <- v;
      Some v
    end
    else walk t.next.(v)
  in
  match walk start with
  | Some v -> Some v
  | None -> if start = t.head then None else walk t.head

let on_unassign t v =
  (* If the unassigned variable sits ahead of the cached pointer (has a
     newer stamp), restart the search from it. *)
  if t.search = 0 || t.stamp.(v) > t.stamp.(t.search) then t.search <- v

let front t = t.head

(* Incremental variable introduction: fresh variables join at the back
   of the queue (least recently used), mirroring the initial order.
   Capacity doubles, and the walk to the tail starts from the last
   variable the previous [grow] appended: every variable stays in the
   queue, so the walk from it reaches the tail, at once when no bump
   moved it since. A run of one-variable [grow]s is amortised O(1),
   and [bump] does no extra work. *)
let grow t ~num_vars =
  if num_vars > t.num_vars then begin
    if num_vars >= Array.length t.next then begin
      let cap = max (num_vars + 1) (2 * Array.length t.next) in
      let grown src =
        let dst = Array.make cap 0 in
        Array.blit src 0 dst 0 (Array.length src);
        dst
      in
      t.prev <- grown t.prev;
      t.next <- grown t.next;
      t.stamp <- grown t.stamp
    end;
    let tail = ref (if t.tail_hint <> 0 then t.tail_hint else t.head) in
    while !tail <> 0 && t.next.(!tail) <> 0 do
      tail := t.next.(!tail)
    done;
    for v = t.num_vars + 1 to num_vars do
      t.prev.(v) <- !tail;
      t.next.(v) <- 0;
      t.stamp.(v) <- 0;
      if !tail = 0 then t.head <- v else t.next.(!tail) <- v;
      tail := v
    done;
    t.tail_hint <- num_vars;
    t.num_vars <- num_vars
  end
