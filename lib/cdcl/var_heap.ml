type t = {
  mutable heap : int array;  (* heap slots -> variable *)
  mutable pos : int array;   (* variable -> heap slot, -1 if absent *)
  mutable act : float array; (* variable -> activity *)
  mutable num_vars : int;
  mutable len : int;
  mutable max_act : float;
}

let create ~num_vars =
  let heap = Array.init num_vars (fun i -> i + 1) in
  let pos = Array.make (num_vars + 1) (-1) in
  for i = 0 to num_vars - 1 do
    pos.(i + 1) <- i
  done;
  {
    heap;
    pos;
    act = Array.make (num_vars + 1) 0.0;
    num_vars;
    len = num_vars;
    max_act = 0.0;
  }

let mem t v = t.pos.(v) >= 0
let is_empty t = t.len = 0
let size t = t.len
let activity t v = t.act.(v)

let better t a b =
  (* Tie-break on the smaller variable index for determinism. *)
  t.act.(a) > t.act.(b) || (t.act.(a) = t.act.(b) && a < b)

let swap t i j =
  let vi = t.heap.(i) and vj = t.heap.(j) in
  t.heap.(i) <- vj;
  t.heap.(j) <- vi;
  t.pos.(vj) <- i;
  t.pos.(vi) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better t t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let best = ref i in
  if left < t.len && better t t.heap.(left) t.heap.(!best) then best := left;
  if right < t.len && better t t.heap.(right) t.heap.(!best) then best := right;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let insert t v =
  if not (mem t v) then begin
    t.heap.(t.len) <- v;
    t.pos.(v) <- t.len;
    t.len <- t.len + 1;
    sift_up t (t.len - 1)
  end

let remove_max t =
  if t.len = 0 then raise Not_found;
  let v = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    t.pos.(t.heap.(0)) <- 0;
    sift_down t 0
  end;
  t.pos.(v) <- -1;
  v

let bump t v inc =
  t.act.(v) <- t.act.(v) +. inc;
  if t.act.(v) > t.max_act then t.max_act <- t.act.(v);
  if mem t v then sift_up t t.pos.(v)

let rescale t factor =
  for v = 1 to t.num_vars do
    t.act.(v) <- t.act.(v) *. factor
  done;
  t.max_act <- t.max_act *. factor

let decay_check t = t.max_act

(* Incremental variable introduction: extend the index range and insert
   every fresh variable at activity 0 so it is immediately decidable.
   Capacity doubles, like the solver's own per-variable arrays, so a
   run of one-variable [grow]s is amortised O(1). *)
let grow t ~num_vars =
  if num_vars > t.num_vars then begin
    if num_vars >= Array.length t.pos then begin
      let cap = max (num_vars + 1) (2 * Array.length t.pos) in
      let grown src fill =
        let dst = Array.make cap fill in
        Array.blit src 0 dst 0 (Array.length src);
        dst
      in
      t.heap <- grown t.heap 0 (* slots beyond len are scratch *);
      t.pos <- grown t.pos (-1);
      t.act <- grown t.act 0.0
    end;
    for v = t.num_vars + 1 to num_vars do
      insert t v
    done;
    t.num_vars <- num_vars
  end
