module Lit = Cnf.Lit
module Vec = Util.Vec

(* Process-wide observability handles, registered once at load. The
   hot-path operations on them are plain field stores (no allocation);
   see Obs.Metrics. *)
let m_propagations = Obs.Metrics.counter "cdcl.propagations"
let m_conflicts = Obs.Metrics.counter "cdcl.conflicts"
let m_decisions = Obs.Metrics.counter "cdcl.decisions"
let m_restarts = Obs.Metrics.counter "cdcl.restarts"
let m_reduce_passes = Obs.Metrics.counter "cdcl.reduce_passes"
let m_clauses_learned = Obs.Metrics.counter "cdcl.clauses_learned"
let m_clauses_deleted = Obs.Metrics.counter "cdcl.clauses_deleted"
let m_clauses_kept = Obs.Metrics.counter "cdcl.clauses_kept"
let m_frequency_recomputes = Obs.Metrics.counter "cdcl.frequency_recomputes"
let m_arena_gcs = Obs.Metrics.counter "cdcl.arena_gcs"
let h_reduce_seconds = Obs.Metrics.histogram "cdcl.reduce_seconds"
let m_inprocess_passes = Obs.Metrics.counter "cdcl.inprocess_passes"
let m_vivified = Obs.Metrics.counter "cdcl.clauses_vivified"
let m_vivify_deleted = Obs.Metrics.counter "cdcl.clauses_vivify_deleted"
let m_subsumed = Obs.Metrics.counter "cdcl.clauses_subsumed"
let m_strengthened = Obs.Metrics.counter "cdcl.clauses_strengthened"
let g_tier_core = Obs.Metrics.gauge "cdcl.tier_core_clauses"
let g_tier_mid = Obs.Metrics.gauge "cdcl.tier_mid_clauses"
let g_tier_local = Obs.Metrics.gauge "cdcl.tier_local_clauses"
let h_inprocess_seconds = Obs.Metrics.histogram "cdcl.inprocess_seconds"

(* Clauses live in a flat int arena (see Arena); a clause is an integer
   cref. Watcher lists are stride-2 int vectors of (tag, cref) pairs:

     tag = lit_index lsl 1          long clause, cached blocking literal
     tag = lit_index lsl 1 lor 1    binary clause, the OTHER literal

   BCP consults only the tag in the common case: a satisfied blocking
   literal means the clause is satisfied without touching its memory,
   and for binary clauses the watcher pair is the whole clause — the
   arena is never dereferenced on the binary path.

   Binary clauses are consequently never literal-swapped, so the
   implied literal of a binary reason is at position 0 *or* 1. Every
   reason-side traversal (analyze, lit_redundant, analyze_final)
   therefore skips the resolved variable by name instead of assuming
   it sits at index 0, and [locked] checks both watched literals of a
   binary clause.

   Assignments are stored per *literal index* ([values]): assigning a
   literal writes 1 at its own slot and -1 at its negation's, so BCP
   evaluates tags and arena words with a single unsafe load — no
   var/sign decomposition. This leans on the literal encoding
   ([Lit.to_index (Lit.negate l) = Lit.to_index l lxor 1], positive
   literal of var v at index 2v), which the BCP loop uses directly. *)

type result =
  | Sat of bool array
  | Unsat
  | Unknown

type restart_state =
  | R_none
  | R_luby of Util.Luby.t * int ref (* iterator, current limit *)
  | R_glucose of Util.Ema.t * Util.Ema.t * float (* fast, slow, margin *)

(* Per-variable arrays are mutable fields so {!new_var} can grow them
   between solves (they are reallocated with geometric slack; hot loops
   re-hoist them on every call, so a swap between calls is safe). *)
type t = {
  mutable cfg : Config.t; (* its policy is replaced once, by [policy_hook] *)
  mutable n : int;
  stats : Solver_stats.t;
  (* assignment state *)
  mutable values : int array; (* lit index -> 1 true / -1 false / 0 unassigned *)
  mutable level : int array; (* var -> decision level *)
  mutable reason : int array; (* var -> implying cref, or -1 *)
  mutable phase : bool array; (* var -> saved phase *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* clause database *)
  arena : Arena.t;
  mutable watches : int Vec.t array; (* lit index -> stride-2 (tag, cref) *)
  originals : int Vec.t; (* crefs *)
  learnts : int Vec.t; (* crefs *)
  mutable next_cid : int;
  mutable arena_gcs : int;
  (* heuristics *)
  order : Var_heap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  restart : restart_state;
  mutable conflicts_since_restart : int;
  mutable next_reduce : int;
  (* inprocessing *)
  mutable restarts_since_inprocess : int;
  mutable root_units_emitted : int; (* trail prefix already in the proof *)
  mutable lit_stamp : int array; (* lit index -> generation (subsumption) *)
  mutable lit_stamp_gen : int;
  mutable subsume_cursor : int; (* rotation point over the clause DB *)
  mutable last_subsume_db : int; (* live clause count at the last pass *)
  (* propagation-frequency counters (since last reduce), Section 3 *)
  mutable prop_counts : int array;
  (* analyze scratch, hoisted into solver state and reused *)
  mutable seen : int array;
  learnt : Lit.t Vec.t; (* the clause under construction *)
  analyze_toclear : Lit.t Vec.t;
  analyze_stack : Lit.t Vec.t;
  mutable simp : int array; (* simplify_clause scratch (lit indices) *)
  (* reduce ranking scratch: parallel (key, cid, cref) arrays *)
  mutable rk_keys : int array;
  mutable rk_tie : int array;
  mutable rk_refs : int array;
  mutable level_stamp : int array;
  mutable stamp_gen : int;
  mutable in_solve : bool; (* re-entrancy guard for the state machine *)
  mutable answer : result option;
  mutable trace : (trace_event -> unit) option;
  mutable policy_hook : (unit -> Policy.t) option; (* one-shot, see [reduce] *)
  mutable assumptions : Lit.t array;
  mutable core : Lit.t list option;
}

and trace_event =
  | Learned of Cnf.Lit.t array
  | Deleted of Cnf.Lit.t array

(* Trace payload arrays are only materialised when a trace callback is
   installed; the hot path pays one branch. *)
let trace_deleted t c =
  match t.trace with
  | Some f -> f (Deleted (Arena.lits_array t.arena c))
  | None -> ()

let trace_learned t =
  match t.trace with
  | Some f -> f (Learned (Vec.to_array t.learnt))
  | None -> ()

(* Inprocessing rewrites snapshot clause literals before mutating the
   arena, so the trace payload cannot alias surgered memory. *)
let trace_learned_lits t lits =
  match t.trace with Some f -> f (Learned lits) | None -> ()

let trace_deleted_lits t lits =
  match t.trace with Some f -> f (Deleted lits) | None -> ()

let[@inline] lit_value t l = Array.unsafe_get t.values (Lit.to_index l)

let[@inline] var_assigned t v = Array.unsafe_get t.values (v + v) <> 0

let decision_level t = Vec.length t.trail_lim

let make_restart_state (cfg : Config.t) =
  match cfg.restart_mode with
  | Config.No_restarts -> R_none
  | Config.Luby unit ->
    let it = Util.Luby.create ~unit in
    R_luby (it, ref (Util.Luby.next it))
  | Config.Glucose { fast_alpha; slow_alpha; margin } ->
    R_glucose (Util.Ema.create ~alpha:fast_alpha, Util.Ema.create ~alpha:slow_alpha, margin)

let[@inline] watch_list t l = t.watches.(Lit.to_index l)

let[@inline] tag_long l = Lit.to_index l lsl 1
let[@inline] tag_binary l = (Lit.to_index l lsl 1) lor 1

let attach t c =
  let a = t.arena in
  assert (Arena.size a c >= 2);
  let l0 = Arena.lit a c 0 and l1 = Arena.lit a c 1 in
  if Arena.size a c = 2 then begin
    Vec.push2 (watch_list t l0) (tag_binary l1) c;
    Vec.push2 (watch_list t l1) (tag_binary l0) c
  end
  else begin
    Vec.push2 (watch_list t l0) (tag_long l1) c;
    Vec.push2 (watch_list t l1) (tag_long l0) c
  end

let enqueue t l reason =
  let idx = Lit.to_index l in
  let v0 = Array.unsafe_get t.values idx in
  if v0 <> 0 then v0 > 0
  else begin
    t.values.(idx) <- 1;
    t.values.(idx lxor 1) <- -1;
    let v = Lit.var l in
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    Vec.push t.trail l;
    true
  end

(* BCP-internal enqueue by literal index; the caller has already
   established the literal is unassigned. *)
let[@inline] enqueue_unchecked t idx reason =
  Array.unsafe_set t.values idx 1;
  Array.unsafe_set t.values (idx lxor 1) (-1);
  let v = idx lsr 1 in
  t.level.(v) <- Vec.length t.trail_lim;
  t.reason.(v) <- reason;
  Vec.push t.trail (Lit.of_index idx)

(* Two-watched-literal Boolean constraint propagation over the arena.
   Returns the conflicting cref, or -1. Increments the
   propagation-trigger counter of the variable whose assignment is
   being consumed, once per implication it produces (Section 3.1).

   The loop works entirely on literal indices and raw arrays: the
   arena buffer, the literal-value array and each watch list's backing
   array are hoisted into locals. Nothing in here allocates arena
   words, so [adata] stays valid; replacement watches go to some other
   literal's list, never back onto [ws], so [wd]/[n] stay valid too. *)
let propagate_body t =
  let adata = Arena.raw t.arena in
  let values = t.values in
  let watches = t.watches in
  let pc = t.prop_counts in
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < Vec.length t.trail do
    let p = Vec.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let p_idx = Lit.to_index p in
    let p_var = p_idx lsr 1 in
    let false_lit = p_idx lxor 1 in
    let ws = Array.unsafe_get watches false_lit in
    let n = Vec.length ws in
    let wd = Vec.unsafe_data ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let tag = Array.unsafe_get wd !i in
      let cr = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      if tag land 1 <> 0 then begin
        (* Binary clause: the other literal is inline in the watcher. *)
        Array.unsafe_set wd !j tag;
        Array.unsafe_set wd (!j + 1) cr;
        j := !j + 2;
        let other = tag lsr 1 in
        let v = Array.unsafe_get values other in
        if v > 0 then ()
        else if v < 0 then begin
          conflict := cr;
          t.qhead <- Vec.length t.trail;
          while !i < n do
            Array.unsafe_set wd !j (Array.unsafe_get wd !i);
            Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
            i := !i + 2;
            j := !j + 2
          done
        end
        else begin
          enqueue_unchecked t other cr;
          t.stats.propagations <- t.stats.propagations + 1;
          Obs.Metrics.incr m_propagations;
          Array.unsafe_set pc p_var (Array.unsafe_get pc p_var + 1)
        end
      end
      else if Array.unsafe_get values (tag lsr 1) > 0 then begin
        (* Satisfied via the cached blocking literal: the clause's
           memory is never touched. *)
        Array.unsafe_set wd !j tag;
        Array.unsafe_set wd (!j + 1) cr;
        j := !j + 2
      end
      else begin
        (* Ensure the falsified literal sits at position 1. *)
        let base = cr + Arena.lit_offset in
        let l0 = Array.unsafe_get adata base in
        if l0 = false_lit then begin
          Array.unsafe_set adata base (Array.unsafe_get adata (base + 1));
          Array.unsafe_set adata (base + 1) false_lit
        end;
        let first = Array.unsafe_get adata base in
        let new_tag = first lsl 1 in
        if first <> tag lsr 1 && Array.unsafe_get values first > 0 then begin
          (* Clause already satisfied: keep the watch, cache [first]. *)
          Array.unsafe_set wd !j new_tag;
          Array.unsafe_set wd (!j + 1) cr;
          j := !j + 2
        end
        else begin
          (* Look for a replacement watch. *)
          let stop = base + (Array.unsafe_get adata cr lsr Arena.size_shift) in
          let k = ref (base + 2) in
          let found = ref false in
          while (not !found) && !k < stop do
            let lk = Array.unsafe_get adata !k in
            if Array.unsafe_get values lk >= 0 then begin
              Array.unsafe_set adata (base + 1) lk;
              Array.unsafe_set adata !k false_lit;
              Vec.push2 (Array.unsafe_get watches lk) new_tag cr;
              found := true
            end
            else incr k
          done;
          if not !found then begin
            (* Unit or conflicting. *)
            Array.unsafe_set wd !j new_tag;
            Array.unsafe_set wd (!j + 1) cr;
            j := !j + 2;
            if Array.unsafe_get values first < 0 then begin
              conflict := cr;
              t.qhead <- Vec.length t.trail;
              (* Copy back the untouched suffix before bailing out. *)
              while !i < n do
                Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
                i := !i + 2;
                j := !j + 2
              done
            end
            else begin
              enqueue_unchecked t first cr;
              t.stats.propagations <- t.stats.propagations + 1;
              Obs.Metrics.incr m_propagations;
              Array.unsafe_set pc p_var (Array.unsafe_get pc p_var + 1)
            end
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* The closure for the span is only allocated when tracing is live, so
   the disabled path costs one branch. *)
let propagate t =
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "solver.propagate" (fun () -> propagate_body t)
  else propagate_body t

(* --- activity management ------------------------------------------- *)

let var_bump t v =
  Var_heap.bump t.order v t.var_inc;
  if Var_heap.decay_check t.order > 1e100 then begin
    Var_heap.rescale t.order 1e-100;
    t.var_inc <- t.var_inc *. 1e-100
  end

let var_decay t = t.var_inc <- t.var_inc /. Config.var_decay

let cla_bump t c =
  let a = t.arena in
  Arena.set_activity a c (Arena.activity a c +. t.cla_inc);
  if Arena.activity a c > 1e20 then begin
    for idx = 0 to Vec.length t.learnts - 1 do
      let cr = Vec.unsafe_get t.learnts idx in
      Arena.set_activity a cr (Arena.activity a cr *. 1e-20)
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay t = t.cla_inc <- t.cla_inc /. Config.clause_decay

(* --- LBD ------------------------------------------------------------ *)

let compute_glue_cref t c =
  t.stamp_gen <- t.stamp_gen + 1;
  let adata = Arena.raw t.arena in
  let level = t.level and stamp = t.level_stamp in
  let gen = t.stamp_gen in
  let g = ref 0 in
  let base = c + Arena.lit_offset in
  let stop = base + (Array.unsafe_get adata c lsr Arena.size_shift) in
  for w = base to stop - 1 do
    let lv = Array.unsafe_get level (Array.unsafe_get adata w lsr 1) in
    if lv > 0 && Array.unsafe_get stamp lv <> gen then begin
      Array.unsafe_set stamp lv gen;
      incr g
    end
  done;
  !g

let compute_glue_vec t lits =
  t.stamp_gen <- t.stamp_gen + 1;
  let level = t.level and stamp = t.level_stamp in
  let gen = t.stamp_gen in
  let g = ref 0 in
  for k = 0 to Vec.length lits - 1 do
    let lv = Array.unsafe_get level (Lit.var (Vec.unsafe_get lits k)) in
    if lv > 0 && Array.unsafe_get stamp lv <> gen then begin
      Array.unsafe_set stamp lv gen;
      incr g
    end
  done;
  !g

(* --- backtracking ---------------------------------------------------- *)

let backtrack_gen t ~save_phase target_level =
  if decision_level t > target_level then begin
    let bound = Vec.get t.trail_lim target_level in
    let tdata = Vec.unsafe_data t.trail in
    let values = t.values and reason = t.reason and phase = t.phase in
    for i = Vec.length t.trail - 1 downto bound do
      let l = Array.unsafe_get tdata i in
      let v = Lit.var l in
      (* The trail literal is the true one, so it carries the phase. *)
      if save_phase then Array.unsafe_set phase v (Lit.is_pos l);
      let idx = Lit.to_index l in
      Array.unsafe_set values idx 0;
      Array.unsafe_set values (idx lxor 1) 0;
      Array.unsafe_set reason v (-1);
      Var_heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim target_level;
    t.qhead <- bound
  end

let backtrack t target_level = backtrack_gen t ~save_phase:true target_level

(* Vivification probes must not pollute the saved phases that guide
   search decisions. *)
let backtrack_probe t target_level = backtrack_gen t ~save_phase:false target_level

(* --- conflict analysis ----------------------------------------------- *)

let abstract_level t v = 1 lsl (t.level.(v) land 31)

(* MiniSat-style recursive redundancy check for clause minimisation.
   Reason clauses are scanned skipping the resolved variable by name
   (see the watcher-layout comment at the top of the file). *)
let lit_redundant t p abstract_levels =
  Vec.clear t.analyze_stack;
  Vec.push t.analyze_stack p;
  let adata = Arena.raw t.arena in
  let seen = t.seen and level = t.level and reason = t.reason in
  let top = Vec.length t.analyze_toclear in
  let ok = ref true in
  while !ok && not (Vec.is_empty t.analyze_stack) do
    let x = Vec.pop t.analyze_stack in
    let xv = Lit.var x in
    let c = reason.(xv) in
    assert (c >= 0);
    let base = c + Arena.lit_offset in
    let stop = base + (Array.unsafe_get adata c lsr Arena.size_shift) in
    let k = ref base in
    while !ok && !k < stop do
      let q_idx = Array.unsafe_get adata !k in
      incr k;
      let v = q_idx lsr 1 in
      if v <> xv && Array.unsafe_get seen v = 0 && Array.unsafe_get level v > 0
      then begin
        if reason.(v) >= 0 && abstract_level t v land abstract_levels <> 0 then begin
          seen.(v) <- 1;
          let q = Lit.of_index q_idx in
          Vec.push t.analyze_stack q;
          Vec.push t.analyze_toclear q
        end
        else begin
          (* Not redundant: undo the speculative marks. *)
          for j = Vec.length t.analyze_toclear - 1 downto top do
            seen.(Lit.var (Vec.get t.analyze_toclear j)) <- 0
          done;
          Vec.shrink t.analyze_toclear top;
          ok := false
        end
      end
    done
  done;
  !ok

(* Usage-driven tier promotion (inprocessing only). A clause touched as
   an antecedent in conflict analysis bumps its saturating usage
   counter and climbs one tier when the counter reaches
   [promote_uses]; a dynamic glue improvement below the tier
   thresholds promotes immediately. The counter resets on promotion so
   the next climb needs fresh evidence. *)
let promote_on_use t c =
  let a = t.arena in
  Arena.bump_usage a c;
  let tier = Arena.tier a c in
  if tier < Arena.tier_core then begin
    let by_use =
      Policy.promoted_tier ~promote_uses:t.cfg.promote_uses
        ~usage:(Arena.usage a c) ~tier
    in
    let by_glue =
      Policy.initial_tier ~tier1_glue:t.cfg.tier1_glue
        ~tier2_glue:t.cfg.tier2_glue ~glue:(Arena.glue a c)
    in
    let tier' = max by_use by_glue in
    if tier' > tier then begin
      Arena.set_tier a c tier';
      Arena.set_usage a c 0
    end
  end

(* First-UIP learning into the reusable [t.learnt] scratch vector
   (asserting literal at index 0). Returns (backjump level, glue). *)
let analyze t confl =
  let a = t.arena in
  let adata = Arena.raw a in
  let seen = t.seen and level = t.level in
  let dl = decision_level t in
  let learnt = t.learnt in
  Vec.clear learnt;
  Vec.push learnt (Lit.pos 1) (* slot 0 reserved for the asserting literal *);
  let path_count = ref 0 in
  let p_var = ref (-1) in
  let p_lit = ref (Lit.pos 1) in
  let index = ref (Vec.length t.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let cr = !c in
    if Arena.learned a cr then begin
      cla_bump t cr;
      Arena.set_used a cr;
      (* Glucose-style dynamic glue update. *)
      let g = compute_glue_cref t cr in
      if g < Arena.glue a cr then Arena.set_glue a cr g;
      if t.cfg.inprocess then promote_on_use t cr
    end;
    let skip_var = !p_var in
    let base = cr + Arena.lit_offset in
    let stop = base + (Array.unsafe_get adata cr lsr Arena.size_shift) in
    for w = base to stop - 1 do
      let q_idx = Array.unsafe_get adata w in
      let v = q_idx lsr 1 in
      if v <> skip_var
         && Array.unsafe_get seen v = 0
         && Array.unsafe_get level v > 0
      then begin
        var_bump t v;
        Array.unsafe_set seen v 1;
        if Array.unsafe_get level v >= dl then incr path_count
        else Vec.push learnt (Lit.of_index q_idx)
      end
    done;
    (* Select the next literal to resolve on. *)
    while Array.unsafe_get seen (Lit.var (Vec.unsafe_get t.trail !index)) = 0 do
      decr index
    done;
    let pl = Vec.unsafe_get t.trail !index in
    decr index;
    p_var := Lit.var pl;
    p_lit := pl;
    seen.(!p_var) <- 0;
    decr path_count;
    if !path_count <= 0 then continue := false
    else begin
      let r = t.reason.(!p_var) in
      assert (r >= 0);
      c := r
    end
  done;
  let asserting = Lit.negate !p_lit in
  Vec.set learnt 0 asserting;
  (* Minimisation. *)
  Vec.clear t.analyze_toclear;
  Vec.iter (fun l -> Vec.push t.analyze_toclear l) learnt;
  let before = Vec.length learnt in
  let abstract_levels =
    Vec.fold (fun acc l -> acc lor abstract_level t (Lit.var l)) 0 learnt
  in
  let keep l =
    Lit.equal l asserting
    || t.reason.(Lit.var l) < 0
    || not (lit_redundant t l abstract_levels)
  in
  Vec.filter_in_place keep learnt;
  t.stats.minimized_literals <- t.stats.minimized_literals + (before - Vec.length learnt);
  (* Clear all seen marks. *)
  Vec.iter (fun l -> t.seen.(Lit.var l) <- 0) t.analyze_toclear;
  (* Find the backjump level and place a literal of that level at 1. *)
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

(* --- reduce ----------------------------------------------------------- *)

(* A clause is locked while it is the reason of one of its watched
   literals. Binary clauses are never literal-swapped, so the implied
   literal can sit at either position. *)
let locked t c =
  let a = t.arena in
  let v0 = Lit.var (Arena.lit a c 0) in
  (var_assigned t v0 && t.reason.(v0) = c)
  || (Arena.size a c = 2
     &&
     let v1 = Lit.var (Arena.lit a c 1) in
     var_assigned t v1 && t.reason.(v1) = c)

(* Drop watchers of deleted clauses in one pass over the watch lists
   (the stride-2 analogue of the seed solver's [rebuild_watches]; BCP
   itself never checks the deleted flag). *)
let flush_watches t =
  let a = t.arena in
  let watches = t.watches in
  for w = 0 to Array.length watches - 1 do
    let ws = watches.(w) in
    let n = Vec.length ws in
    if n > 0 then begin
      let i = ref 0 and j = ref 0 in
      while !i < n do
        let cr = Vec.unsafe_get ws (!i + 1) in
        if not (Arena.deleted a cr) then begin
          Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
          Vec.unsafe_set ws (!j + 1) cr;
          j := !j + 2
        end;
        i := !i + 2
      done;
      Vec.shrink ws !j
    end
  done

(* Copying arena compaction: relocate every live root (clause vectors
   first for allocation-order locality, then watchers and reasons,
   which find forwarding pointers), then adopt the to-space. Callers
   must have flushed dead references first — relocating a deleted
   clause raises. *)
let arena_gc t =
  let from_ = t.arena in
  let into = Arena.gc_target from_ in
  for idx = 0 to Vec.length t.originals - 1 do
    Vec.unsafe_set t.originals idx (Arena.reloc ~from_ ~into (Vec.unsafe_get t.originals idx))
  done;
  for idx = 0 to Vec.length t.learnts - 1 do
    Vec.unsafe_set t.learnts idx (Arena.reloc ~from_ ~into (Vec.unsafe_get t.learnts idx))
  done;
  for w = 0 to Array.length t.watches - 1 do
    let ws = t.watches.(w) in
    let n = Vec.length ws in
    let i = ref 1 in
    while !i < n do
      Vec.unsafe_set ws !i (Arena.reloc ~from_ ~into (Vec.unsafe_get ws !i));
      i := !i + 2
    done
  done;
  for i = 0 to Vec.length t.trail - 1 do
    let v = Lit.var (Vec.get t.trail i) in
    let r = t.reason.(v) in
    if r >= 0 then t.reason.(v) <- Arena.reloc ~from_ ~into r
  done;
  Arena.adopt t.arena into;
  t.arena_gcs <- t.arena_gcs + 1;
  Obs.Metrics.incr m_arena_gcs

(* Compact once a quarter of the arena is garbage. *)
let maybe_gc t =
  let g = Arena.garbage t.arena in
  if g > 0 && g * 4 >= Arena.total_words t.arena then arena_gc t

let ensure_rank_scratch t n =
  if Array.length t.rk_keys < n then begin
    let cap = ref (max 16 (Array.length t.rk_keys)) in
    while !cap < n do cap := 2 * !cap done;
    t.rk_keys <- Array.make !cap 0;
    t.rk_tie <- Array.make !cap 0;
    t.rk_refs <- Array.make !cap 0
  end

(* Delete the lowest-ranked fraction of reducible learned clauses
   according to the configured policy, then reset the propagation
   counters ("since the last clause deletion", Eq. 2). Candidate
   ranking fills preallocated parallel (packed key, cid, cref) arrays
   and sorts them in place — no per-candidate allocation. *)
let reduce_body t =
  t.stats.reduces <- t.stats.reduces + 1;
  Obs.Metrics.incr m_reduce_passes;
  let arena = t.arena in
  let pc = t.prop_counts in
  let f_max = ref 0 in
  for v = 0 to Array.length pc - 1 do
    if Array.unsafe_get pc v > !f_max then f_max := Array.unsafe_get pc v
  done;
  let has_alpha, alpha =
    match Policy.alpha_of t.cfg.policy with
    | Some alpha -> (true, alpha)
    | None -> (false, 0.0)
  in
  let threshold = alpha *. float_of_int !f_max in
  let nl = Vec.length t.learnts in
  ensure_rank_scratch t nl;
  let keys = t.rk_keys and tie = t.rk_tie and refs = t.rk_refs in
  let inpro = t.cfg.inprocess in
  let n = ref 0 in
  for idx = 0 to nl - 1 do
    let c = Vec.unsafe_get t.learnts idx in
    let glue = Arena.glue arena c in
    (* With the tiered DB the core tier replaces the flat glue
       exemption: promotion decides what is untouchable. *)
    let skip =
      if inpro then Arena.tier arena c = Arena.tier_core || locked t c
      else glue <= t.cfg.tier1_glue || locked t c
    in
    if skip then ()
    else begin
      if inpro then begin
        (* Age the usage counter; an idle mid clause falls back to
           local so it competes with the aggressive tier again. *)
        let u = Arena.usage arena c in
        if u = 0 && Arena.tier arena c = Arena.tier_mid then
          Arena.set_tier arena c Arena.tier_local
        else if u > 0 then Arena.set_usage arena c (u - 1)
      end;
      let size = Arena.size arena c in
      let frequency =
        if has_alpha then begin
          Obs.Metrics.incr m_frequency_recomputes;
          if !f_max = 0 then 0
          else begin
            let fr = ref 0 in
            for k = 0 to size - 1 do
              let v = Lit.var (Arena.lit arena c k) in
              if float_of_int (Array.unsafe_get pc v) > threshold then incr fr
            done;
            !fr
          end
        end
        else 0
      in
      let cid = Arena.cid arena c in
      keys.(!n) <-
        (if inpro then
           Policy.tiered_key t.cfg.policy ~tier:(Arena.tier arena c) ~id:cid
             ~glue ~size ~activity_bits:(Arena.activity_bits arena c)
             ~frequency
         else
           Policy.packed_key t.cfg.policy ~id:cid ~glue ~size
             ~activity_bits:(Arena.activity_bits arena c) ~frequency);
      tie.(!n) <- cid;
      refs.(!n) <- c;
      incr n
    end
  done;
  Keysort.sort ~keys ~tie ~refs ~len:!n;
  let to_delete = int_of_float (t.cfg.reduce_fraction *. float_of_int !n) in
  for i = 0 to to_delete - 1 do
    let c = refs.(i) in
    Arena.mark_deleted arena c;
    t.stats.deleted_total <- t.stats.deleted_total + 1;
    trace_deleted t c
  done;
  Obs.Metrics.add m_clauses_deleted to_delete;
  Obs.Metrics.add m_clauses_kept (!n - to_delete);
  if to_delete > 0 then begin
    (* Drop deleted crefs from the learnt vector, preserving order. *)
    let keep = ref 0 in
    for idx = 0 to nl - 1 do
      let c = Vec.unsafe_get t.learnts idx in
      if not (Arena.deleted arena c) then begin
        Vec.unsafe_set t.learnts !keep c;
        incr keep
      end
    done;
    Vec.shrink t.learnts !keep;
    flush_watches t;
    maybe_gc t
  end;
  Array.fill pc 0 (Array.length pc) 0

(* A pending policy hook fixes the policy just before this pass. The
   policy is read only by [reduce_body]'s ranking key, so the search up
   to here is the same whatever the hook returns. *)
let reduce t =
  (match t.policy_hook with
  | Some hook ->
    t.policy_hook <- None;
    t.cfg <- Config.with_policy (hook ()) t.cfg
  | None -> ());
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "solver.reduce" (fun () ->
        Obs.Metrics.time h_reduce_seconds (fun () -> reduce_body t))
  else Obs.Metrics.time h_reduce_seconds (fun () -> reduce_body t)

let reduce_now t = reduce t

(* --- restarts --------------------------------------------------------- *)

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
  Obs.Metrics.incr m_restarts;
  t.conflicts_since_restart <- 0;
  (match t.restart with
  | R_luby (it, limit) -> limit := Util.Luby.next it
  | R_none | R_glucose _ -> ());
  backtrack t 0

(* --- inprocessing ------------------------------------------------------ *)

(* In-search simplification at decision level 0, scheduled every
   [inprocess_interval] restarts: clause vivification (re-propagate a
   candidate's literals under fresh decision levels and shrink or drop
   it) followed by backward subsumption / self-subsuming resolution
   over the arena with occurrence lists and literal stamps. Every
   rewrite emits a DRUP add-then-delete pair; DESIGN.md §9 states the
   soundness rules the code below follows:

   - locked clauses (reasons of root assignments) are never deleted or
     rewritten, so every root unit stays UP-derivable forever;
   - all root-level trail literals are emitted as learned unit lines
     before anything is deleted (a root-satisfied clause may be the
     only support of a later RUP check);
   - an added clause line always precedes the deletion of the clause it
     replaces, so the replaced clause participates in the RUP check;
   - a learned clause that subsumes an irredundant one is promoted to
     irredundant before the subsumee dies, keeping reduce from ever
     deleting the last cover of an original clause. *)

(* Emit every root-level trail literal not yet in the proof. Each is
   RUP: its reason chain consists of locked (hence live) clauses. *)
let emit_root_units t =
  assert (decision_level t = 0);
  while t.root_units_emitted < Vec.length t.trail do
    trace_learned_lits t [| Vec.get t.trail t.root_units_emitted |];
    t.root_units_emitted <- t.root_units_emitted + 1
  done

(* Remove [c]'s two watcher entries (cref match, so it works for both
   binary and long tags). *)
let detach t c =
  let remove_watch l =
    let ws = watch_list t l in
    let n = Vec.length ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let tag = Vec.unsafe_get ws !i and cr = Vec.unsafe_get ws (!i + 1) in
      if cr <> c then begin
        Vec.unsafe_set ws !j tag;
        Vec.unsafe_set ws (!j + 1) cr;
        j := !j + 2
      end;
      i := !i + 2
    done;
    Vec.shrink ws !j
  in
  remove_watch (Arena.lit t.arena c 0);
  remove_watch (Arena.lit t.arena c 1)

let probe_assume t l =
  Vec.push t.trail_lim (Vec.length t.trail);
  ignore (enqueue t l (-1))

(* Rewrite [c] in place to exactly [lits] (a strict subset of its
   current literals, in order). Caller detaches/reattaches. *)
let commit_rewrite t c lits =
  let a = t.arena in
  let n = Array.length lits in
  for k = 0 to n - 1 do
    Arena.set_lit a c k lits.(k)
  done;
  Arena.shrink_size a c n;
  if Arena.glue a c > n - 1 then Arena.set_glue a c (n - 1);
  if t.cfg.inprocess && Arena.learned a c then begin
    let tier' =
      Policy.initial_tier ~tier1_glue:t.cfg.tier1_glue
        ~tier2_glue:t.cfg.tier2_glue ~glue:(Arena.glue a c)
    in
    if tier' > Arena.tier a c then Arena.set_tier a c tier'
  end

(* Assert a derived unit at the root and propagate it to fixpoint,
   emitting it (and its consequences) into the proof. Returns false
   when the unit contradicts the root state — the formula is
   unsatisfiable and the empty clause has been emitted. *)
let assert_root_unit t l =
  let v = lit_value t l in
  if v > 0 then true (* already a root unit, already emitted *)
  else if v < 0 then begin
    trace_learned_lits t [| l |];
    trace_learned_lits t [||];
    false
  end
  else begin
    ignore (enqueue t l (-1));
    let confl = propagate t in
    emit_root_units t;
    if confl >= 0 then begin
      trace_learned_lits t [||];
      false
    end
    else true
  end

(* Vivify one attached, unlocked, live clause at level 0. For each
   literal in turn: a literal already implied true closes the clause at
   the kept prefix plus that literal; an implied-false literal is
   dropped; otherwise its negation is assumed at a fresh decision level
   and propagated, a conflict again closing the clause at the prefix.
   [kept] is caller-provided scratch. *)
let vivify_clause t c kept =
  let a = t.arena in
  let ls = Arena.lits_array a c in
  if Array.exists (fun l -> lit_value t l > 0) ls then begin
    (* Root-satisfied: the clause is redundant outright. *)
    detach t c;
    trace_deleted_lits t ls;
    Arena.mark_deleted a c;
    `Deleted
  end
  else begin
    detach t c (* the clause must not propagate in its own probe *);
    Vec.clear kept;
    let n = Array.length ls in
    let stopped = ref false in
    let i = ref 0 in
    while (not !stopped) && !i < n do
      let l = ls.(!i) in
      incr i;
      let v = lit_value t l in
      if v > 0 then begin
        Vec.push kept l;
        stopped := true
      end
      else if v < 0 then () (* falsified by the prefix: drop *)
      else begin
        if Runtime.Fault.fires Runtime.Fault.Inprocess_abort then
          Runtime.Error.raise_
            (Runtime.Error.Injected_fault { point = "inprocess-abort" });
        probe_assume t (Lit.negate l);
        let confl = propagate t in
        Vec.push kept l;
        if confl >= 0 then stopped := true
      end
    done;
    backtrack_probe t 0;
    let n' = Vec.length kept in
    if n' = n then begin
      attach t c;
      `Kept
    end
    else if n' = 0 then begin
      (* Every literal was false at the root: direct conflict. *)
      trace_learned_lits t [||];
      `Unsat
    end
    else if n' = 1 then begin
      let ok = assert_root_unit t (Vec.get kept 0) in
      trace_deleted_lits t ls;
      Arena.mark_deleted a c;
      if ok then `Deleted else `Unsat
    end
    else begin
      let lits' = Vec.to_array kept in
      trace_learned_lits t lits';
      commit_rewrite t c lits';
      trace_deleted_lits t ls;
      attach t c;
      `Rewritten
    end
  end

(* Drop deleted crefs from [vec], returning [idx] adjusted for the
   removals before it (used to resume an interrupted iteration). *)
let prune_vec_deleted t vec idx =
  let a = t.arena in
  let n = Vec.length vec in
  let keep = ref 0 and idx' = ref idx in
  for i = 0 to n - 1 do
    let c = Vec.unsafe_get vec i in
    if Arena.deleted a c then begin
      if i < idx then decr idx'
    end
    else begin
      Vec.unsafe_set vec !keep c;
      incr keep
    end
  done;
  Vec.shrink vec !keep;
  !idx'

(* Mid-vivification compaction: every deleted clause was detached
   before deletion, so the watch lists hold only live crefs; pruning
   the clause vectors makes every root live and [arena_gc] safe. *)
let gc_during_inprocess t vec idx =
  let idx' = prune_vec_deleted t vec idx in
  let other = if vec == t.learnts then t.originals else t.learnts in
  ignore (prune_vec_deleted t other 0);
  arena_gc t;
  idx'

let vivify_pass t =
  let start = t.stats.propagations in
  let kept = Vec.create ~dummy:(Lit.pos 1) () in
  let ok = ref true in
  (* The budget charges every probed literal, not just propagations: a
     probe that derives nothing still walks the assumed literal's watch
     list, so a propagation-only budget would let a pass sweep the
     whole database at full traversal cost. *)
  let ticks = ref 0 in
  let process vec =
    let idx = ref 0 in
    while
      !ok && !idx < Vec.length vec
      && t.stats.propagations - start + !ticks <= t.cfg.vivify_budget
    do
      let c = Vec.unsafe_get vec !idx in
      if
        (not (Arena.deleted t.arena c))
        && (not (locked t c))
        && Arena.size t.arena c >= 2
        && (* Local-tier learnts are deletion fodder: probing them costs
              more than the next reduce will ever save. *)
        ((not (Arena.learned t.arena c))
        || Arena.tier t.arena c > Arena.tier_local)
      then begin
        ticks := !ticks + Arena.size t.arena c;
        match vivify_clause t c kept with
        | `Kept -> ()
        | `Rewritten ->
          t.stats.vivified <- t.stats.vivified + 1;
          Obs.Metrics.incr m_vivified
        | `Deleted ->
          t.stats.vivify_deleted <- t.stats.vivify_deleted + 1;
          t.stats.deleted_total <- t.stats.deleted_total + 1;
          Obs.Metrics.incr m_vivify_deleted
        | `Unsat -> ok := false
      end;
      incr idx;
      if !ok && Arena.garbage t.arena * 4 >= Arena.total_words t.arena then
        idx := gc_during_inprocess t vec !idx
    done
  in
  process t.learnts;
  if !ok then process t.originals;
  !ok

(* Backward subsumption and self-subsuming resolution. Occurrence
   lists and the crefs inside them are raw arena offsets, so no
   compaction may run during this pass. *)
let subsume_pass t =
  let a = t.arena in
  let occ = Array.make (Array.length t.values) [] in
  let occ_len = Array.make (Array.length t.values) 0 in
  let add_occ c =
    if not (Arena.deleted a c) then
      for k = 0 to Arena.size a c - 1 do
        let i = Lit.to_index (Arena.lit a c k) in
        occ.(i) <- c :: occ.(i);
        occ_len.(i) <- occ_len.(i) + 1
      done
  in
  Vec.iter add_occ t.originals;
  Vec.iter add_occ t.learnts;
  let budget = ref t.cfg.subsume_budget in
  let ok = ref true in
  let strengthen d k_drop =
    let old = Arena.lits_array a d in
    let dn = Array.length old in
    let lits' = Array.make (dn - 1) old.(0) in
    let j = ref 0 in
    Array.iteri
      (fun i l ->
        if i <> k_drop then begin
          lits'.(!j) <- l;
          incr j
        end)
      old;
    detach t d;
    if dn - 1 = 1 then begin
      let keep_going = assert_root_unit t lits'.(0) in
      trace_deleted_lits t old;
      Arena.mark_deleted a d;
      if not keep_going then ok := false
    end
    else begin
      trace_learned_lits t lits';
      commit_rewrite t d lits';
      trace_deleted_lits t old;
      attach t d
    end;
    t.stats.strengthened <- t.stats.strengthened + 1;
    Obs.Metrics.incr m_strengthened
  in
  let try_subsume_with c =
    if (not (Arena.deleted a c)) && !budget > 0 then begin
      let sz = Arena.size a c in
      (* Stamping is charged too: with a free setup, a pass over a big
         database costs O(DB) even when the budget stops every scan. *)
      budget := !budget - sz;
      t.lit_stamp_gen <- t.lit_stamp_gen + 1;
      let gen = t.lit_stamp_gen in
      let stamp = t.lit_stamp in
      (* Stamp the subsumer's literals; scan the shortest occurrence
         list among them. *)
      let best = ref (-1) and best_len = ref max_int in
      for k = 0 to sz - 1 do
        let i = Lit.to_index (Arena.lit a c k) in
        stamp.(i) <- gen;
        if occ_len.(i) < !best_len then begin
          best_len := occ_len.(i);
          best := i
        end
      done;
      List.iter
        (fun d ->
          if
            !ok && !budget > 0 && d <> c
            && (not (Arena.deleted a d))
            && Arena.size a d >= sz
            && not (locked t d)
          then begin
            decr budget;
            let dn = Arena.size a d in
            let pos = ref 0 and negc = ref 0 and negi = ref (-1) in
            for k = 0 to dn - 1 do
              let i = Lit.to_index (Arena.lit a d k) in
              if stamp.(i) = gen then incr pos
              else if stamp.(i lxor 1) = gen then begin
                incr negc;
                negi := k
              end
            done;
            if !pos = sz then begin
              (* [d] is a (not necessarily strict) superset of [c]. *)
              if Arena.learned a c && not (Arena.learned a d) then begin
                (* The survivor must outlive every reduce. *)
                Arena.clear_learned a c;
                Vec.push t.originals c
              end;
              detach t d;
              trace_deleted_lits t (Arena.lits_array a d);
              Arena.mark_deleted a d;
              t.stats.subsumed <- t.stats.subsumed + 1;
              t.stats.deleted_total <- t.stats.deleted_total + 1;
              Obs.Metrics.incr m_subsumed
            end
            else if !pos = sz - 1 && !negc = 1 then
              (* Self-subsuming resolution: neither clause is a
                 tautology, so the flipped literal is exactly the
                 subsumer literal missing from [d]. *)
              strengthen d !negi
          end)
        occ.(!best)
    end
  in
  (* Round-robin over originals then learnts, resuming where the last
     pass ran out of budget so successive passes cover the whole
     database instead of re-scanning the same prefix. *)
  let n_orig = Vec.length t.originals in
  let total = n_orig + Vec.length t.learnts in
  if total > 0 then begin
    let i = ref (t.subsume_cursor mod total) in
    let processed = ref 0 in
    while !ok && !budget > 0 && !processed < total do
      let c =
        if !i < n_orig then Vec.unsafe_get t.originals !i
        else Vec.unsafe_get t.learnts (!i - n_orig)
      in
      try_subsume_with c;
      incr processed;
      i := if !i + 1 = total then 0 else !i + 1
    done;
    t.subsume_cursor <- !i
  end;
  !ok

let update_tier_gauges t =
  let a = t.arena in
  let core = ref 0 and mid = ref 0 and local = ref 0 in
  Vec.iter
    (fun c ->
      if not (Arena.deleted a c) then begin
        let tr = Arena.tier a c in
        if tr = Arena.tier_core then incr core
        else if tr = Arena.tier_mid then incr mid
        else incr local
      end)
    t.learnts;
  Obs.Metrics.set g_tier_core (float_of_int !core);
  Obs.Metrics.set g_tier_mid (float_of_int !mid);
  Obs.Metrics.set g_tier_local (float_of_int !local)

(* One full inprocessing pass at level 0. Returns false when the pass
   derived unsatisfiability (empty clause already emitted). *)
let inprocess_body t =
  t.stats.inprocess_passes <- t.stats.inprocess_passes + 1;
  Obs.Metrics.incr m_inprocess_passes;
  emit_root_units t;
  let ok = ref true in
  if t.cfg.inprocess_vivify then ok := vivify_pass t;
  (* Building occurrence lists costs O(database) regardless of the
     inspection budget, so subsumption waits until the database grew
     enough (12.5%) since its last pass to offer new subsumees. *)
  let db_size = Vec.length t.originals + Vec.length t.learnts in
  if
    !ok && t.cfg.inprocess_subsume
    && db_size * 8 >= t.last_subsume_db * 9
  then begin
    ok := subsume_pass t;
    t.last_subsume_db <- db_size
  end;
  (* Drop dead crefs (and learnts promoted to irredundant by
     subsumption) before compaction; watch lists are already clean
     because deletion always follows detachment. *)
  ignore (prune_vec_deleted t t.originals 0);
  let keep = ref 0 in
  for i = 0 to Vec.length t.learnts - 1 do
    let c = Vec.unsafe_get t.learnts i in
    if (not (Arena.deleted t.arena c)) && Arena.learned t.arena c then begin
      Vec.unsafe_set t.learnts !keep c;
      incr keep
    end
  done;
  Vec.shrink t.learnts !keep;
  maybe_gc t;
  update_tier_gauges t;
  !ok

let inprocess t =
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "solver.inprocess" (fun () ->
        Obs.Metrics.time h_inprocess_seconds (fun () -> inprocess_body t))
  else Obs.Metrics.time h_inprocess_seconds (fun () -> inprocess_body t)

(* --- creation --------------------------------------------------------- *)

exception Trivially_unsat

(* Sort, deduplicate, and drop tautologies, into the [t.simp] scratch
   array (as literal indices, ascending). Returns the simplified
   length, or -1 for a tautological clause. Insertion sort: input
   clauses are short, and nothing is allocated beyond scratch growth. *)
let simplify_into t lits =
  let n = Array.length lits in
  if Array.length t.simp < n then t.simp <- Array.make (max 16 (2 * n)) 0;
  let s = t.simp in
  for k = 0 to n - 1 do
    s.(k) <- Lit.to_index lits.(k)
  done;
  for k = 1 to n - 1 do
    let x = s.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && s.(!j) > x do
      s.(!j + 1) <- s.(!j);
      decr j
    done;
    s.(!j + 1) <- x
  done;
  (* Dedup in place; a complementary pair is adjacent after sorting
     (indices 2v and 2v+1). *)
  let out = ref 0 in
  let taut = ref false in
  for k = 0 to n - 1 do
    if !taut then ()
    else if !out > 0 && s.(!out - 1) = s.(k) then ()
    else if !out > 0 && s.(!out - 1) lxor 1 = s.(k) then taut := true
    else begin
      s.(!out) <- s.(k);
      incr out
    end
  done;
  if !taut then -1 else !out

let add_original t lits =
  let n = simplify_into t lits in
  if n = 0 then raise Trivially_unsat
  else if n = 1 then begin
    if not (enqueue t (Lit.of_index t.simp.(0)) (-1)) then raise Trivially_unsat
  end
  else if n >= 2 then begin
    let c =
      Arena.alloc t.arena ~learned:false ~glue:0 ~cid:t.next_cid ~size:n
    in
    t.next_cid <- t.next_cid + 1;
    for k = 0 to n - 1 do
      Arena.set_lit t.arena c k (Lit.of_index t.simp.(k))
    done;
    Vec.push t.originals c;
    attach t c
  end

let create ?(config = Config.default) formula =
  let n = Cnf.Formula.num_vars formula in
  let t =
    {
      cfg = config;
      n;
      stats = Solver_stats.create ();
      values = Array.make ((2 * (n + 1)) + 2) 0;
      level = Array.make (n + 1) 0;
      reason = Array.make (n + 1) (-1);
      phase = Array.make (n + 1) false;
      trail = Vec.create ~dummy:(Lit.pos 1) ();
      trail_lim = Vec.create ~dummy:0 ();
      qhead = 0;
      arena = Arena.create ~capacity:4096 ();
      watches = Array.init ((2 * (n + 1)) + 2) (fun _ -> Vec.create ~dummy:0 ());
      originals = Vec.create ~dummy:0 ();
      learnts = Vec.create ~dummy:0 ();
      next_cid = 0;
      arena_gcs = 0;
      order = Var_heap.create ~num_vars:n;
      var_inc = 1.0;
      cla_inc = 1.0;
      restart = make_restart_state config;
      conflicts_since_restart = 0;
      next_reduce = config.reduce_first;
      restarts_since_inprocess = 0;
      root_units_emitted = 0;
      lit_stamp = Array.make ((2 * (n + 1)) + 2) 0;
      lit_stamp_gen = 0;
      subsume_cursor = 0;
      last_subsume_db = 0;
      prop_counts = Array.make (n + 1) 0;
      seen = Array.make (n + 1) 0;
      learnt = Vec.create ~dummy:(Lit.pos 1) ();
      analyze_toclear = Vec.create ~dummy:(Lit.pos 1) ();
      analyze_stack = Vec.create ~dummy:(Lit.pos 1) ();
      simp = Array.make 16 0;
      rk_keys = [||];
      rk_tie = [||];
      rk_refs = [||];
      level_stamp = Array.make (n + 2) 0;
      stamp_gen = 0;
      in_solve = false;
      answer = None;
      trace = None;
      policy_hook = None;
      assumptions = [||];
      core = None;
    }
  in
  (try Cnf.Formula.iter_clauses (fun c -> add_original t c) formula
   with Trivially_unsat -> t.answer <- Some Unsat);
  t

(* --- incremental API (IPASIR-style state machine) ----------------------- *)

type state = [ `Ready | `Solving | `Sat | `Unsat | `Unknown ]

let state t : state =
  if t.in_solve then `Solving
  else
    match t.answer with
    | None -> `Ready
    | Some (Sat _) -> `Sat
    | Some Unsat -> `Unsat
    | Some Unknown -> `Unknown

let state_name t =
  match state t with
  | `Ready -> "ready"
  | `Solving -> "solving"
  | `Sat -> "sat"
  | `Unsat -> "unsat"
  | `Unknown -> "unknown"

let guard t op =
  if t.in_solve then
    Runtime.Error.raise_
      (Runtime.Error.Invalid_state
         {
           op;
           state = "solving";
           detail = "mutating or re-entrant calls are only legal between solves";
         })

let with_solving t f =
  t.in_solve <- true;
  Fun.protect ~finally:(fun () -> t.in_solve <- false) f

(* Grow every per-variable array to cover variables [1..v], with
   geometric slack so a burst of [new_var] calls is amortised O(1).
   Extra capacity beyond [t.n] is benign everywhere: scans that walk
   whole arrays ([reduce]'s frequency pass, watch flushing) see zeros
   and empty vectors. *)
let grow_var_arrays t v =
  if v + 1 > Array.length t.level then begin
    let cap = max (v + 1) (2 * Array.length t.level) in
    let grown src fill =
      let dst = Array.make cap fill in
      Array.blit src 0 dst 0 (Array.length src);
      dst
    in
    t.level <- grown t.level 0;
    t.reason <- grown t.reason (-1);
    t.phase <- grown t.phase false;
    t.prop_counts <- grown t.prop_counts 0;
    t.seen <- grown t.seen 0;
    t.level_stamp <-
      (let dst = Array.make (cap + 1) 0 in
       Array.blit t.level_stamp 0 dst 0 (Array.length t.level_stamp);
       dst);
    let lcap = (2 * cap) + 2 in
    t.values <-
      (let dst = Array.make lcap 0 in
       Array.blit t.values 0 dst 0 (Array.length t.values);
       dst);
    t.lit_stamp <-
      (let dst = Array.make lcap 0 in
       Array.blit t.lit_stamp 0 dst 0 (Array.length t.lit_stamp);
       dst);
    t.watches <-
      (let old = t.watches in
       Array.init lcap (fun i ->
           if i < Array.length old then old.(i) else Vec.create ~dummy:0 ()))
  end

let new_var t =
  guard t "new_var";
  let v = t.n + 1 in
  grow_var_arrays t v;
  t.n <- v;
  Var_heap.grow t.order ~num_vars:v;
  (* Unsat is monotone under variable introduction; a cached model does
     not cover the fresh variable, so it is dropped. *)
  (match t.answer with
  | Some Unsat -> ()
  | Some (Sat _ | Unknown) | None -> t.answer <- None);
  v

let add_clause t lits =
  guard t "add_clause";
  let lits = Array.of_list lits in
  Array.iter
    (fun l ->
      let v = Lit.var l in
      if v < 1 || v > t.n then
        Runtime.Error.raise_
          (Runtime.Error.Invalid_state
             {
               op = "add_clause";
               state = state_name t;
               detail =
                 Printf.sprintf
                   "variable %d has not been introduced (num_vars = %d); call \
                    new_var first"
                   v t.n;
             }))
    lits;
  match t.answer with
  | Some Unsat -> () (* Unsat is sticky: adding clauses cannot undo it. *)
  | Some (Sat _ | Unknown) | None ->
    backtrack t 0;
    let n = simplify_into t lits in
    if n < 0 then () (* tautology: a no-op, any cached answer survives *)
    else begin
      t.core <- None;
      if n = 0 then t.answer <- Some Unsat
      else if n = 1 then begin
        (* Root unit: enqueue now; the next solve's propagation pass
           picks it up because qhead trails the new literal. *)
        if enqueue t (Lit.of_index t.simp.(0)) (-1) then t.answer <- None
        else t.answer <- Some Unsat
      end
      else begin
        (* Attachment invariant: the two watched slots must not hold
           literals already false at the root, so partition non-false
           literals to the front. *)
        let arr = Array.make n 0 in
        let nonfalse = ref 0 in
        for k = 0 to n - 1 do
          if t.values.(t.simp.(k)) >= 0 then begin
            arr.(!nonfalse) <- t.simp.(k);
            incr nonfalse
          end
        done;
        let back = ref !nonfalse in
        for k = 0 to n - 1 do
          if t.values.(t.simp.(k)) < 0 then begin
            arr.(!back) <- t.simp.(k);
            incr back
          end
        done;
        if !nonfalse = 0 then t.answer <- Some Unsat
        else begin
          let c =
            Arena.alloc t.arena ~learned:false ~glue:0 ~cid:t.next_cid ~size:n
          in
          t.next_cid <- t.next_cid + 1;
          for k = 0 to n - 1 do
            Arena.set_lit t.arena c k (Lit.of_index arr.(k))
          done;
          Vec.push t.originals c;
          attach t c;
          (if !nonfalse = 1 then
             (* Unit under the root assignment: propagate its single
                non-false literal with the new clause as reason. *)
             let l = Lit.of_index arr.(0) in
             if t.values.(arr.(0)) = 0 then ignore (enqueue t l c));
          t.answer <- None
        end
      end
    end

(* --- learned clause installation -------------------------------------- *)

let install_learnt t glue =
  t.stats.learned_total <- t.stats.learned_total + 1;
  Obs.Metrics.incr m_clauses_learned;
  trace_learned t;
  let learnt = t.learnt in
  if Vec.length learnt = 1 then begin
    backtrack t 0;
    ignore (enqueue t (Vec.get learnt 0) (-1))
  end
  else begin
    let size = Vec.length learnt in
    let c = Arena.alloc t.arena ~learned:true ~glue ~cid:t.next_cid ~size in
    t.next_cid <- t.next_cid + 1;
    if t.cfg.inprocess then
      Arena.set_tier t.arena c
        (Policy.initial_tier ~tier1_glue:t.cfg.tier1_glue
           ~tier2_glue:t.cfg.tier2_glue ~glue);
    for k = 0 to size - 1 do
      Arena.set_lit t.arena c k (Vec.get learnt k)
    done;
    Vec.push t.learnts c;
    attach t c;
    ignore (enqueue t (Vec.get learnt 0) c)
  end

(* --- decisions --------------------------------------------------------- *)

let rec pick_branch_var t =
  if Var_heap.is_empty t.order then None
  else begin
    let v = Var_heap.remove_max t.order in
    if not (var_assigned t v) then Some v else pick_branch_var t
  end

let decide t v =
  t.stats.decisions <- t.stats.decisions + 1;
  Obs.Metrics.incr m_decisions;
  Vec.push t.trail_lim (Vec.length t.trail);
  let l = Lit.make v t.phase.(v) in
  ignore (enqueue t l (-1));
  let dl = decision_level t in
  if dl > t.stats.max_decision_level then t.stats.max_decision_level <- dl

(* MiniSat's analyzeFinal: the failed assumption [p] is false under the
   current (all-assumption) trail; walk implication chains back to the
   assumption decisions responsible and return them (with [p]) as the
   unsatisfiable core. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let a = t.arena in
    t.seen.(Lit.var p) <- 1;
    let bound = Vec.get t.trail_lim 0 in
    for i = Vec.length t.trail - 1 downto bound do
      let q = Vec.get t.trail i in
      let v = Lit.var q in
      if t.seen.(v) = 1 then begin
        let r = t.reason.(v) in
        if r < 0 then core := q :: !core
        else
          for k = 0 to Arena.size a r - 1 do
            let u = Lit.var (Arena.lit a r k) in
            if u <> v && t.level.(u) > 0 then t.seen.(u) <- 1
          done;
        t.seen.(v) <- 0
      end
    done;
    t.seen.(Lit.var p) <- 0
  end;
  !core

(* --- main search -------------------------------------------------------- *)

let model t =
  Array.init (t.n + 1) (fun v -> v > 0 && t.values.(v + v) > 0)

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

(* Open the next decision: install pending assumption literals first
   (one decision level each, as in MiniSat), then branch normally. A
   conflicting assumption terminates with Unsat and a failed-assumption
   core. *)
let next_decision t result =
  let dl = decision_level t in
  if dl < Array.length t.assumptions then begin
    let p = t.assumptions.(dl) in
    if lit_value t p > 0 then
      (* Already implied: open an empty level for it. *)
      Vec.push t.trail_lim (Vec.length t.trail)
    else if lit_value t p < 0 then begin
      t.core <- Some (analyze_final t p);
      result := Some Unsat
    end
    else begin
      t.stats.decisions <- t.stats.decisions + 1;
      Vec.push t.trail_lim (Vec.length t.trail);
      ignore (enqueue t p (-1))
    end
  end
  else begin
    match pick_branch_var t with
    | Some v -> decide t v
    | None -> result := Some (Sat (model t))
  end

let search_body t =
  let conflicts0 = t.stats.conflicts and propagations0 = t.stats.propagations in
  let deadline =
    Option.map (fun s -> Runtime.Clock.now () +. s) t.cfg.max_wall_seconds
  in
  let assumption_depth = Array.length t.assumptions in
  let result = ref None in
  while !result = None do
    let confl = propagate t in
    if confl >= 0 then begin
      t.stats.conflicts <- t.stats.conflicts + 1;
      Obs.Metrics.incr m_conflicts;
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
    end
    else if budget_exhausted t ~conflicts0 ~propagations0 ~deadline then
      result := Some Unknown
    else if should_restart t && decision_level t > assumption_depth then begin
      do_restart t;
      if t.cfg.inprocess then begin
        t.restarts_since_inprocess <- t.restarts_since_inprocess + 1;
        if t.restarts_since_inprocess >= max 1 t.cfg.inprocess_interval
        then begin
          t.restarts_since_inprocess <- 0;
          if not (inprocess t) then result := Some Unsat
        end
      end
    end
    else next_decision t result
  done;
  Option.get !result

let search t = Obs.Trace.with_span "solver.solve" (fun () -> search_body t)

let solve t =
  guard t "solve";
  (* A plain solve is assumption-free: stale assumptions and cores left
     behind by an earlier [solve_with_assumptions] must not leak into
     this call's answer, even when the answer itself is cached. *)
  t.assumptions <- [||];
  t.core <- None;
  match t.answer with
  | Some (Sat _ | Unsat) -> Option.get t.answer
  | Some Unknown | None ->
    (* Drop any decisions left over from an interrupted assumption run. *)
    backtrack t 0;
    let r = with_solving t (fun () -> search t) in
    t.answer <- Some r;
    r

let solve_with_assumptions t lits =
  guard t "solve_with_assumptions";
  match t.answer with
  | Some Unsat ->
    (* The formula is unsatisfiable outright: empty core. *)
    t.core <- Some [];
    Unsat
  | Some (Sat _ | Unknown) | None ->
    backtrack t 0;
    t.assumptions <- Array.of_list lits;
    t.core <- None;
    let r =
      with_solving t (fun () ->
          Fun.protect ~finally:(fun () -> t.assumptions <- [||]) (fun () ->
              search t))
    in
    (match r with
    | Unsat when t.core = None ->
      (* Level-0 conflict: unsat independent of assumptions. *)
      t.core <- Some [];
      t.answer <- Some Unsat
    | Unsat | Unknown -> ()
    | Sat _ ->
      (* A model under assumptions is a model of the formula. *)
      t.answer <- Some r);
    r

let unsat_core t = t.core

(* --- accessors ---------------------------------------------------------- *)

let config t = t.cfg
let stats t = t.stats
let num_vars t = t.n
let propagation_counts t = Array.copy t.prop_counts

let value t v =
  if v < 1 || v > t.n then invalid_arg "Solver.value";
  match t.values.(v + v) with
  | 0 -> None
  | x -> Some (x > 0)

let learned_clause_count t = Vec.length t.learnts
let arena_gc_count t = t.arena_gcs
let arena_live_words t = Arena.live_words t.arena

let inprocess_now t =
  match t.answer with
  | Some (Sat _ | Unsat) -> ()
  | Some Unknown | None ->
    backtrack t 0;
    if propagate t >= 0 then begin
      emit_root_units t;
      trace_learned_lits t [||];
      t.answer <- Some Unsat
    end
    else if not (inprocess t) then t.answer <- Some Unsat

let tier_counts t =
  let a = t.arena in
  let core = ref 0 and mid = ref 0 and local = ref 0 in
  Vec.iter
    (fun c ->
      if not (Arena.deleted a c) then begin
        let tr = Arena.tier a c in
        if tr = Arena.tier_core then incr core
        else if tr = Arena.tier_mid then incr mid
        else incr local
      end)
    t.learnts;
  (!core, !mid, !local)

let on_first_reduce t hook = t.policy_hook <- Some hook
let set_trace t f = t.trace <- Some f
let clear_trace t = t.trace <- None

let check_model formula m = Cnf.Formula.eval formula m

let solve_formula ?config formula =
  let t = create ?config formula in
  let r = solve t in
  (r, Solver_stats.copy (stats t))
