type restart_mode =
  | No_restarts
  | Luby of int
  | Glucose of { fast_alpha : float; slow_alpha : float; margin : float }

type t = {
  policy : Policy.t;
  restart_mode : restart_mode;
  reduce_first : int;
  reduce_inc : int;
  reduce_fraction : float;
  tier1_glue : int;
  max_conflicts : int option;
  max_propagations : int option;
  max_wall_seconds : float option;
  inprocess : bool;
  inprocess_interval : int;
  tier2_glue : int;
  promote_uses : int;
  vivify_budget : int;
  subsume_budget : int;
  inprocess_vivify : bool;
  inprocess_subsume : bool;
}

let default =
  {
    policy = Policy.Default;
    restart_mode = Luby 100;
    reduce_first = 100;
    reduce_inc = 50;
    reduce_fraction = 0.5;
    tier1_glue = 2;
    max_conflicts = None;
    max_propagations = None;
    max_wall_seconds = None;
    inprocess = false;
    inprocess_interval = 4;
    tier2_glue = 6;
    promote_uses = 2;
    vivify_budget = 2_000;
    subsume_budget = 20_000;
    inprocess_vivify = true;
    inprocess_subsume = true;
  }

let var_decay = 0.95
let clause_decay = 0.999

let with_policy policy t = { t with policy }

let with_inprocess ?interval enabled t =
  {
    t with
    inprocess = enabled;
    inprocess_interval =
      (match interval with Some i -> max 1 i | None -> t.inprocess_interval);
  }

let with_budget ?max_conflicts ?max_propagations ?max_wall_seconds t =
  let keep_or cur = function None -> cur | Some _ as v -> v in
  {
    t with
    max_conflicts = keep_or t.max_conflicts max_conflicts;
    max_propagations = keep_or t.max_propagations max_propagations;
    max_wall_seconds = keep_or t.max_wall_seconds max_wall_seconds;
  }
