let m_selections = Obs.Metrics.counter "selector.selections"
let m_fallbacks = Obs.Metrics.counter "selector.fallbacks"
let m_chose_frequency = Obs.Metrics.counter "selector.chose_frequency"
let h_inference = Obs.Metrics.histogram "selector.inference_seconds"
let m_cache_hits = Obs.Metrics.counter "selector.cache_hits"
let m_cache_misses = Obs.Metrics.counter "selector.cache_misses"
let m_cache_evictions = Obs.Metrics.counter "selector.cache_evictions"

type degradation =
  | Model_failure of string
  | Non_finite_probability of float

let pp_degradation ppf = function
  | Model_failure msg -> Format.fprintf ppf "model failure: %s" msg
  | Non_finite_probability p ->
    Format.fprintf ppf "non-finite probability %h" p

let degradation_to_string d = Format.asprintf "%a" pp_degradation d

type selection = {
  policy : Cdcl.Policy.t;
  probability : float;
  inference_seconds : float;
  degraded : degradation option;
  cached : bool;
  fingerprint : string option;
}

(* --- bounded LRU decision cache, keyed by canonical fingerprint --- *)

(* One process-wide cache (ns-evaluate's campaign is single-threaded;
   an ns-serve worker reads the copy it inherited at fork, and the
   server fills its own from the workers' results through [adopt]).
   Entries store the model probability, so any [alpha] can be applied
   on a hit. The cache is stamped with the (model uid, checkpoint
   generation) it was filled from: a different model — or the same
   model after a checkpoint reload, which bumps the generation —
   empties it before use, so a hot-swap can never serve stale
   decisions. *)
module Cache = struct
  type node = {
    key : string;
    prob : float;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    mutable capacity : int;
    tbl : (string, node) Hashtbl.t;
    mutable head : node option;  (* most recently used *)
    mutable tail : node option;
    mutable stamp : (int * int) option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create capacity =
    {
      capacity;
      tbl = Hashtbl.create 64;
      head = None;
      tail = None;
      stamp = None;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let clear_entries t =
    Hashtbl.reset t.tbl;
    t.head <- None;
    t.tail <- None

  let size t = Hashtbl.length t.tbl

  (* Make the cache valid for [model]: drop everything filled from a
     different model or an older checkpoint generation. *)
  let ensure_stamp t model =
    let stamp = (Model.uid model, Model.generation model) in
    if t.stamp <> Some stamp then begin
      let dropped = size t in
      if dropped > 0 then begin
        t.evictions <- t.evictions + dropped;
        Obs.Metrics.add m_cache_evictions dropped
      end;
      clear_entries t;
      t.stamp <- Some stamp
    end

  let count t ~hit =
    if hit then begin
      t.hits <- t.hits + 1;
      Obs.Metrics.incr m_cache_hits
    end
    else begin
      t.misses <- t.misses + 1;
      Obs.Metrics.incr m_cache_misses
    end

  let find t key =
    let found = Hashtbl.find_opt t.tbl key in
    count t ~hit:(found <> None);
    Option.map
      (fun n ->
        unlink t n;
        push_front t n;
        n.prob)
      found

  let add t key prob =
    if t.capacity > 0 then begin
      (match Hashtbl.find_opt t.tbl key with
      | Some old ->
          unlink t old;
          Hashtbl.remove t.tbl key
      | None -> ());
      let n = { key; prob; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front t n;
      while size t > t.capacity do
        match t.tail with
        | None -> assert false
        | Some lru ->
            unlink t lru;
            Hashtbl.remove t.tbl lru.key;
            t.evictions <- t.evictions + 1;
            Obs.Metrics.incr m_cache_evictions
      done
    end
end

let default_cache_capacity = 512
let cache = Cache.create default_cache_capacity

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let cache_stats () =
  {
    hits = cache.Cache.hits;
    misses = cache.Cache.misses;
    evictions = cache.Cache.evictions;
    size = Cache.size cache;
    capacity = cache.Cache.capacity;
  }

let set_cache_capacity n =
  if n <= 0 then invalid_arg "Selector.set_cache_capacity";
  cache.Cache.capacity <- n;
  while Cache.size cache > n do
    match cache.Cache.tail with
    | None -> assert false
    | Some lru ->
        Cache.unlink cache lru;
        Hashtbl.remove cache.Cache.tbl lru.Cache.key;
        cache.Cache.evictions <- cache.Cache.evictions + 1;
        Obs.Metrics.incr m_cache_evictions
  done

let clear_cache () =
  Cache.clear_entries cache;
  cache.Cache.stamp <- None

let policy_of_probability ~alpha probability =
  if probability > 0.5 then begin
    Obs.Metrics.incr m_chose_frequency;
    Cdcl.Policy.Frequency { alpha }
  end
  else Cdcl.Policy.Default

let degraded_selection ~inference_seconds ~fingerprint d =
  Obs.Metrics.incr m_fallbacks;
  {
    policy = Cdcl.Policy.Default;
    probability =
      (match d with Non_finite_probability p -> p | Model_failure _ -> Float.nan);
    inference_seconds;
    degraded = Some d;
    cached = false;
    fingerprint;
  }

let select_policy ?(alpha = Cdcl.Policy.default_alpha) ?(use_cache = false)
    model formula =
  Obs.Metrics.incr m_selections;
  let t0 = Runtime.Clock.now () in
  let fingerprint, hit =
    if not use_cache then (None, None)
    else begin
      Cache.ensure_stamp cache model;
      let key = Cnf.Fingerprint.compute_hex formula in
      (Some key, Cache.find cache key)
    end
  in
  match hit with
  | Some probability ->
      {
        policy = policy_of_probability ~alpha probability;
        probability;
        inference_seconds = Runtime.Clock.elapsed_since t0;
        degraded = None;
        cached = true;
        fingerprint;
      }
  | None -> (
      let outcome =
        (* Any failure of the learned component — a model that did not
           load, an overflow in the forward pass, an injected fault —
           degrades this one selection to the default deletion policy
           rather than aborting the sweep; the paper's baseline Kissat
           behaviour is always available. A failure is never cached and
           leaves no other state behind, so the next selection consults
           the model afresh. *)
        match
          Obs.Trace.with_span "selector.inference" (fun () ->
              if Runtime.Fault.fires Runtime.Fault.Inference_failure then
                Runtime.Error.raise_
                  (Runtime.Error.Injected_fault { point = "inference" });
              Model.predict model (Satgraph.Bigraph.of_formula formula))
        with
        | p when Float.is_finite p -> Ok p
        | p -> Error (Non_finite_probability p)
        | exception e -> Error (Model_failure (Printexc.to_string e))
      in
      let inference_seconds = Runtime.Clock.elapsed_since t0 in
      Obs.Metrics.observe h_inference inference_seconds;
      match outcome with
      | Ok probability ->
          Option.iter (fun key -> Cache.add cache key probability) fingerprint;
          {
            policy = policy_of_probability ~alpha probability;
            probability;
            inference_seconds;
            degraded = None;
            cached = false;
            fingerprint;
          }
      | Error d -> degraded_selection ~inference_seconds ~fingerprint d)

let adopt model ~fingerprint ~cached probability =
  Cache.ensure_stamp cache model;
  Cache.count cache ~hit:cached;
  Option.iter (Cache.add cache fingerprint) probability

let solve_adaptive ?(config = Cdcl.Config.default) ?alpha ?use_cache model
    formula =
  let solver = Cdcl.Solver.create ~config formula in
  let selection = ref None in
  Cdcl.Solver.on_first_reduce solver (fun () ->
      let s = select_policy ?alpha ?use_cache model formula in
      selection := Some s;
      s.policy);
  let result = Cdcl.Solver.solve solver in
  (!selection, result, Cdcl.Solver_stats.copy (Cdcl.Solver.stats solver))
