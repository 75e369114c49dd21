(* Record-based reference CDCL solver for differential testing of the
   arena clause database.

   This solver implements exactly the same search semantics as
   [Cdcl.Solver] — blocking-literal watchers (binary clauses inlined in
   the watcher, never literal-swapped), first-UIP learning that skips
   the resolved variable by name, activity values quantised through the
   arena's integer encoding, the same reduce ranking and schedule — but
   stores clauses as ordinary OCaml records with boxed literal arrays
   and relies on the runtime GC instead of arena compaction.

   Because only the memory layout differs, a correct arena solver must
   produce bit-for-bit identical verdicts, statistics, and
   learned/deleted clause traces. Any divergence localises a bug in the
   arena, the watcher encoding, the packed ranking key, or the
   compaction pass. Kept deliberately slow and boxed: clarity over
   speed. *)

module Lit = Cnf.Lit
module Vec = Util.Vec
module Config = Cdcl.Config
module Policy = Cdcl.Policy
module Solver_stats = Cdcl.Solver_stats

type result = Cdcl.Solver.result =
  | Sat of bool array
  | Unsat
  | Unknown

type clause = {
  cid : int;
  lits : Lit.t array; (* mutable order (watch swaps), fixed multiset *)
  learned : bool;
  mutable activity : float; (* always quantised, see [quantise] *)
  mutable glue : int;
  mutable used : bool;
  mutable deleted : bool;
}

(* A watcher mirrors one stride-2 (tag, cref) pair of the arena solver:
   [blocker] is the cached blocking literal (for [binary] clauses, the
   other literal of the clause). *)
type watcher = {
  mutable blocker : Lit.t;
  binary : bool;
  wc : clause;
}

type restart_state =
  | R_none
  | R_luby of Util.Luby.t * int ref
  | R_glucose of Util.Ema.t * Util.Ema.t * float

type t = {
  cfg : Config.t;
  n : int;
  stats : Solver_stats.t;
  assigns : int array;
  level : int array;
  reason : clause option array;
  phase : bool array;
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  watches : watcher Vec.t array;
  learnts : clause Vec.t;
  mutable next_cid : int;
  order : Cdcl.Var_heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  restart : restart_state;
  mutable conflicts_since_restart : int;
  mutable next_reduce : int;
  prop_counts : int array;
  seen : int array;
  learnt : Lit.t Vec.t;
  analyze_toclear : Lit.t Vec.t;
  analyze_stack : Lit.t Vec.t;
  level_stamp : int array;
  mutable stamp_gen : int;
  mutable answer : result option;
  mutable trace : (Cdcl.Solver.trace_event -> unit) option;
}

(* The arena stores activities as a 63-bit order-preserving encoding
   that drops the lowest mantissa bit; mirror that quantisation after
   every activity mutation so ranking keys agree exactly. *)
let quantise x = Cdcl.Arena.decode_activity (Cdcl.Arena.encode_activity x)

let[@inline] lit_value t l =
  let v = t.assigns.(Lit.var l) in
  if Lit.is_pos l then v else -v

let decision_level t = Vec.length t.trail_lim

let make_restart_state (cfg : Config.t) =
  match cfg.restart_mode with
  | Config.No_restarts -> R_none
  | Config.Luby unit ->
    let it = Util.Luby.create ~unit in
    R_luby (it, ref (Util.Luby.next it))
  | Config.Glucose { fast_alpha; slow_alpha; margin } ->
    R_glucose
      (Util.Ema.create ~alpha:fast_alpha, Util.Ema.create ~alpha:slow_alpha, margin)

let[@inline] watch_list t l = t.watches.(Lit.to_index l)

let attach t c =
  let l0 = c.lits.(0) and l1 = c.lits.(1) in
  let binary = Array.length c.lits = 2 in
  Vec.push (watch_list t l0) { blocker = l1; binary; wc = c };
  Vec.push (watch_list t l1) { blocker = l0; binary; wc = c }

let enqueue t l reason =
  let v = Lit.var l in
  if t.assigns.(v) <> 0 then lit_value t l > 0
  else begin
    t.assigns.(v) <- (if Lit.is_pos l then 1 else -1);
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    Vec.push t.trail l;
    true
  end

(* Mirrors the arena solver's propagate loop watcher for watcher. *)
let propagate t =
  let conflict = ref None in
  while !conflict = None && t.qhead < Vec.length t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let p_var = Lit.var p in
    let false_lit = Lit.negate p in
    let ws = t.watches.(Lit.to_index false_lit) in
    let n = Vec.length ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let w = Vec.get ws !i in
      incr i;
      if w.binary then begin
        Vec.set ws !j w;
        incr j;
        let other = w.blocker in
        let v = lit_value t other in
        if v > 0 then ()
        else if v < 0 then begin
          conflict := Some w.wc;
          t.qhead <- Vec.length t.trail;
          while !i < n do
            Vec.set ws !j (Vec.get ws !i);
            incr i;
            incr j
          done
        end
        else begin
          ignore (enqueue t other (Some w.wc));
          t.stats.propagations <- t.stats.propagations + 1;
          t.prop_counts.(p_var) <- t.prop_counts.(p_var) + 1
        end
      end
      else if lit_value t w.blocker > 0 then begin
        Vec.set ws !j w;
        incr j
      end
      else begin
        let c = w.wc in
        if Lit.equal c.lits.(0) false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if (not (Lit.equal first w.blocker)) && lit_value t first > 0 then begin
          w.blocker <- first;
          Vec.set ws !j w;
          incr j
        end
        else begin
          let size = Array.length c.lits in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < size do
            let lk = c.lits.(!k) in
            if lit_value t lk >= 0 then begin
              c.lits.(1) <- lk;
              c.lits.(!k) <- false_lit;
              Vec.push t.watches.(Lit.to_index lk) { blocker = first; binary = false; wc = c };
              found := true
            end
            else incr k
          done;
          if not !found then begin
            w.blocker <- first;
            Vec.set ws !j w;
            incr j;
            if lit_value t first < 0 then begin
              conflict := Some c;
              t.qhead <- Vec.length t.trail;
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr i;
                incr j
              done
            end
            else begin
              ignore (enqueue t first (Some c));
              t.stats.propagations <- t.stats.propagations + 1;
              t.prop_counts.(p_var) <- t.prop_counts.(p_var) + 1
            end
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* --- activity management --- *)

let var_bump t v =
  Cdcl.Var_heap.bump t.order v t.var_inc;
  if Cdcl.Var_heap.decay_check t.order > 1e100 then begin
    Cdcl.Var_heap.rescale t.order 1e-100;
    t.var_inc <- t.var_inc *. 1e-100
  end

let var_decay t = t.var_inc <- t.var_inc /. Config.var_decay

let cla_bump t c =
  c.activity <- quantise (c.activity +. t.cla_inc);
  if c.activity > 1e20 then begin
    for idx = 0 to Vec.length t.learnts - 1 do
      let cr = Vec.get t.learnts idx in
      cr.activity <- quantise (cr.activity *. 1e-20)
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. Config.clause_decay

(* --- LBD --- *)

let compute_glue_lits t lits len getl =
  t.stamp_gen <- t.stamp_gen + 1;
  let g = ref 0 in
  for k = 0 to len - 1 do
    let lv = t.level.(Lit.var (getl lits k)) in
    if lv > 0 && t.level_stamp.(lv) <> t.stamp_gen then begin
      t.level_stamp.(lv) <- t.stamp_gen;
      incr g
    end
  done;
  !g

let compute_glue_clause t c =
  compute_glue_lits t c.lits (Array.length c.lits) (fun a k -> a.(k))

let compute_glue_vec t vec =
  compute_glue_lits t vec (Vec.length vec) (fun v k -> Vec.get v k)

(* --- backtracking --- *)

let backtrack t target_level =
  if decision_level t > target_level then begin
    let bound = Vec.get t.trail_lim target_level in
    for i = Vec.length t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.phase.(v) <- t.assigns.(v) > 0;
      t.assigns.(v) <- 0;
      t.reason.(v) <- None;
      Cdcl.Var_heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim target_level;
    t.qhead <- bound
  end

(* --- conflict analysis --- *)

let abstract_level t v = 1 lsl (t.level.(v) land 31)

let lit_redundant t p abstract_levels =
  Vec.clear t.analyze_stack;
  Vec.push t.analyze_stack p;
  let top = Vec.length t.analyze_toclear in
  let ok = ref true in
  while !ok && not (Vec.is_empty t.analyze_stack) do
    let x = Vec.pop t.analyze_stack in
    let xv = Lit.var x in
    let c = Option.get t.reason.(xv) in
    let size = Array.length c.lits in
    let k = ref 0 in
    while !ok && !k < size do
      let q = c.lits.(!k) in
      incr k;
      let v = Lit.var q in
      if v <> xv && t.seen.(v) = 0 && t.level.(v) > 0 then begin
        if t.reason.(v) <> None && abstract_level t v land abstract_levels <> 0
        then begin
          t.seen.(v) <- 1;
          Vec.push t.analyze_stack q;
          Vec.push t.analyze_toclear q
        end
        else begin
          for j = Vec.length t.analyze_toclear - 1 downto top do
            t.seen.(Lit.var (Vec.get t.analyze_toclear j)) <- 0
          done;
          Vec.shrink t.analyze_toclear top;
          ok := false
        end
      end
    done
  done;
  !ok

let analyze t confl =
  let learnt = t.learnt in
  Vec.clear learnt;
  Vec.push learnt (Lit.pos 1);
  let path_count = ref 0 in
  let p_var = ref (-1) in
  let p_lit = ref (Lit.pos 1) in
  let index = ref (Vec.length t.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let cl = !c in
    if cl.learned then begin
      cla_bump t cl;
      cl.used <- true;
      let g = compute_glue_clause t cl in
      if g < cl.glue then cl.glue <- g
    end;
    let skip_var = !p_var in
    for k = 0 to Array.length cl.lits - 1 do
      let q = cl.lits.(k) in
      let v = Lit.var q in
      if v <> skip_var && t.seen.(v) = 0 && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- 1;
        if t.level.(v) >= decision_level t then incr path_count
        else Vec.push learnt q
      end
    done;
    while t.seen.(Lit.var (Vec.get t.trail !index)) = 0 do
      decr index
    done;
    let pl = Vec.get t.trail !index in
    decr index;
    p_var := Lit.var pl;
    p_lit := pl;
    t.seen.(!p_var) <- 0;
    decr path_count;
    if !path_count <= 0 then continue := false
    else c := Option.get t.reason.(!p_var)
  done;
  let asserting = Lit.negate !p_lit in
  Vec.set learnt 0 asserting;
  Vec.clear t.analyze_toclear;
  Vec.iter (fun l -> Vec.push t.analyze_toclear l) learnt;
  let before = Vec.length learnt in
  let abstract_levels =
    Vec.fold (fun acc l -> acc lor abstract_level t (Lit.var l)) 0 learnt
  in
  let keep l =
    Lit.equal l asserting
    || t.reason.(Lit.var l) = None
    || not (lit_redundant t l abstract_levels)
  in
  Vec.filter_in_place keep learnt;
  t.stats.minimized_literals <-
    t.stats.minimized_literals + (before - Vec.length learnt);
  Vec.iter (fun l -> t.seen.(Lit.var l) <- 0) t.analyze_toclear;
  let bt_level =
    if Vec.length learnt = 1 then 0
    else begin
      let max_i = ref 1 in
      for k = 2 to Vec.length learnt - 1 do
        if t.level.(Lit.var (Vec.get learnt k)) > t.level.(Lit.var (Vec.get learnt !max_i))
        then max_i := k
      done;
      let tmp = Vec.get learnt 1 in
      Vec.set learnt 1 (Vec.get learnt !max_i);
      Vec.set learnt !max_i tmp;
      t.level.(Lit.var (Vec.get learnt 1))
    end
  in
  let glue = compute_glue_vec t learnt in
  (bt_level, glue)

(* --- reduce --- *)

let locked t c =
  let is_reason v =
    t.assigns.(v) <> 0
    && match t.reason.(v) with Some r -> r == c | None -> false
  in
  is_reason (Lit.var c.lits.(0))
  || (Array.length c.lits = 2 && is_reason (Lit.var c.lits.(1)))

let flush_watches t =
  Array.iter (fun ws -> Vec.filter_in_place (fun w -> not w.wc.deleted) ws) t.watches

let reduce t =
  t.stats.reduces <- t.stats.reduces + 1;
  let pc = t.prop_counts in
  let f_max = Array.fold_left max 0 pc in
  let alpha = Policy.alpha_of t.cfg.policy in
  (* Candidates in learnt order, ranked ascending by (key, cid) — the
     same total order as the arena solver's packed-key sort. *)
  let candidates = ref [] in
  for idx = Vec.length t.learnts - 1 downto 0 do
    let c = Vec.get t.learnts idx in
    if c.glue <= t.cfg.tier1_glue || locked t c then ()
    else begin
      let frequency =
        match alpha with
        | Some alpha -> Policy.clause_frequency ~alpha ~f_max ~counts:pc ~lits:c.lits
        | None -> 0
      in
      let info =
        { Policy.id = c.cid; glue = c.glue; size = Array.length c.lits;
          activity = c.activity; frequency }
      in
      candidates := (c, info) :: !candidates
    end
  done;
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> Policy.compare_clauses t.cfg.policy a b)
      !candidates
  in
  let n = List.length ranked in
  let to_delete = int_of_float (t.cfg.reduce_fraction *. float_of_int n) in
  List.iteri
    (fun i (c, _) ->
      if i < to_delete then begin
        c.deleted <- true;
        t.stats.deleted_total <- t.stats.deleted_total + 1;
        match t.trace with
        | Some f -> f (Cdcl.Solver.Deleted (Array.copy c.lits))
        | None -> ()
      end)
    ranked;
  if to_delete > 0 then begin
    Vec.filter_in_place (fun c -> not c.deleted) t.learnts;
    flush_watches t
  end;
  Array.fill pc 0 (Array.length pc) 0

(* --- restarts --- *)

let note_conflict_for_restart t glue =
  t.conflicts_since_restart <- t.conflicts_since_restart + 1;
  match t.restart with
  | R_none | R_luby _ -> ()
  | R_glucose (fast, slow, _) ->
    let g = float_of_int glue in
    Util.Ema.update fast g;
    Util.Ema.update slow g

let should_restart t =
  match t.restart with
  | R_none -> false
  | R_luby (_, limit) -> t.conflicts_since_restart >= !limit
  | R_glucose (fast, slow, margin) ->
    t.conflicts_since_restart >= 50
    && Util.Ema.count slow > 100
    && Util.Ema.value fast > margin *. Util.Ema.value slow

let do_restart t =
  t.stats.restarts <- t.stats.restarts + 1;
  t.conflicts_since_restart <- 0;
  (match t.restart with
  | R_luby (it, limit) -> limit := Util.Luby.next it
  | R_none | R_glucose _ -> ());
  backtrack t 0

(* --- creation --- *)

exception Trivially_unsat

let add_original t lits =
  let sorted = List.sort_uniq Lit.compare (Array.to_list lits) in
  let rec tautology = function
    | a :: (b :: _ as rest) ->
      Lit.equal (Lit.negate a) b || tautology rest
    | _ -> false
  in
  if not (tautology sorted) then begin
    match sorted with
    | [] -> raise Trivially_unsat
    | [ l ] -> if not (enqueue t l None) then raise Trivially_unsat
    | _ ->
      let c =
        { cid = t.next_cid; lits = Array.of_list sorted; learned = false;
          activity = 0.0; glue = 0; used = false; deleted = false }
      in
      t.next_cid <- t.next_cid + 1;
      attach t c
  end

let dummy_clause =
  { cid = -1; lits = [||]; learned = false; activity = 0.0; glue = 0;
    used = false; deleted = false }

let create ?(config = Config.default) formula =
  let n = Cnf.Formula.num_vars formula in
  let dummy_watcher = { blocker = Lit.pos 1; binary = false; wc = dummy_clause } in
  let t =
    {
      cfg = config;
      n;
      stats = Solver_stats.create ();
      assigns = Array.make (n + 1) 0;
      level = Array.make (n + 1) 0;
      reason = Array.make (n + 1) None;
      phase = Array.make (n + 1) false;
      trail = Vec.create ~dummy:(Lit.pos 1) ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      watches = Array.init ((2 * (n + 1)) + 2) (fun _ -> Vec.create ~dummy:dummy_watcher ());
      learnts = Vec.create ~dummy:dummy_clause ();
      next_cid = 0;
      order = Cdcl.Var_heap.create ~num_vars:n;
      var_inc = 1.0;
      cla_inc = 1.0;
      restart = make_restart_state config;
      conflicts_since_restart = 0;
      next_reduce = config.reduce_first;
      prop_counts = Array.make (n + 1) 0;
      seen = Array.make (n + 1) 0;
      learnt = Vec.create ~dummy:(Lit.pos 1) ();
      analyze_toclear = Vec.create ~dummy:(Lit.pos 1) ();
      analyze_stack = Vec.create ~dummy:(Lit.pos 1) ();
      level_stamp = Array.make (n + 2) 0;
      stamp_gen = 0;
      answer = None;
      trace = None;
    }
  in
  (try Cnf.Formula.iter_clauses (fun c -> add_original t c) formula
   with Trivially_unsat -> t.answer <- Some Unsat);
  t

let install_learnt t glue =
  t.stats.learned_total <- t.stats.learned_total + 1;
  (match t.trace with
  | Some f -> f (Cdcl.Solver.Learned (Vec.to_array t.learnt))
  | None -> ());
  let learnt = t.learnt in
  if Vec.length learnt = 1 then begin
    backtrack t 0;
    ignore (enqueue t (Vec.get learnt 0) None)
  end
  else begin
    let c =
      { cid = t.next_cid; lits = Vec.to_array learnt; learned = true;
        activity = 0.0; glue; used = false; deleted = false }
    in
    t.next_cid <- t.next_cid + 1;
    Vec.push t.learnts c;
    attach t c;
    ignore (enqueue t (Vec.get learnt 0) (Some c))
  end

(* --- decisions --- *)

let rec pick_branch_var t =
  if Cdcl.Var_heap.is_empty t.order then None
  else begin
    let v = Cdcl.Var_heap.remove_max t.order in
    if t.assigns.(v) = 0 then Some v else pick_branch_var t
  end

let decide t v =
  t.stats.decisions <- t.stats.decisions + 1;
  Vec.push t.trail_lim (Vec.length t.trail);
  let l = Lit.make v t.phase.(v) in
  ignore (enqueue t l None);
  let dl = decision_level t in
  if dl > t.stats.max_decision_level then t.stats.max_decision_level <- dl

(* --- main search --- *)

let model t = Array.init (t.n + 1) (fun v -> v > 0 && t.assigns.(v) > 0)

let budget_exhausted t ~conflicts0 ~propagations0 ~deadline =
  (match t.cfg.max_conflicts with
  | Some m -> t.stats.conflicts - conflicts0 >= m
  | None -> false)
  || (match t.cfg.max_propagations with
     | Some m -> t.stats.propagations - propagations0 >= m
     | None -> false)
  ||
  match deadline with
  | Some d -> Runtime.Clock.now () >= d
  | None -> false

let search t =
  let conflicts0 = t.stats.conflicts and propagations0 = t.stats.propagations in
  let deadline =
    Option.map (fun s -> Runtime.Clock.now () +. s) t.cfg.max_wall_seconds
  in
  let result = ref None in
  while !result = None do
    match propagate t with
    | Some confl ->
      t.stats.conflicts <- t.stats.conflicts + 1;
      if decision_level t = 0 then result := Some Unsat
      else begin
        let bt_level, glue = analyze t confl in
        backtrack t bt_level;
        install_learnt t glue;
        var_decay t;
        cla_decay t;
        note_conflict_for_restart t glue;
        if t.stats.conflicts >= t.next_reduce then begin
          reduce t;
          t.next_reduce <-
            t.next_reduce + t.cfg.reduce_first + (t.stats.reduces * t.cfg.reduce_inc)
        end;
        if budget_exhausted t ~conflicts0 ~propagations0 ~deadline then
          result := Some Unknown
      end
    | None ->
      if budget_exhausted t ~conflicts0 ~propagations0 ~deadline then
        result := Some Unknown
      else if should_restart t && decision_level t > 0 then do_restart t
      else begin
        match pick_branch_var t with
        | Some v -> decide t v
        | None -> result := Some (Sat (model t))
      end
  done;
  Option.get !result

let solve t =
  match t.answer with
  | Some (Sat _ | Unsat) -> Option.get t.answer
  | Some Unknown | None ->
    let r = search t in
    t.answer <- Some r;
    r

let stats t = t.stats
let num_vars t = t.n
let learned_clause_count t = Vec.length t.learnts
let propagation_counts t = Array.copy t.prop_counts
let set_trace t f = t.trace <- Some f

let solve_formula ?config formula =
  let t = create ?config formula in
  let r = solve t in
  (r, Solver_stats.copy (stats t))
