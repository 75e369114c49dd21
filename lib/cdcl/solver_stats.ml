type t = {
  mutable decisions : int;
  mutable conflicts : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reduces : int;
  mutable learned_total : int;
  mutable deleted_total : int;
  mutable minimized_literals : int;
  mutable max_decision_level : int;
  (* Inprocessing (all zero when Config.inprocess is off). *)
  mutable inprocess_passes : int;
  mutable vivified : int;  (* clauses shrunk by vivification *)
  mutable vivify_deleted : int;  (* clauses deleted by vivification *)
  mutable subsumed : int;  (* clauses removed by backward subsumption *)
  mutable strengthened : int;  (* literals removed by self-subsumption *)
}

let create () =
  {
    decisions = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    reduces = 0;
    learned_total = 0;
    deleted_total = 0;
    minimized_literals = 0;
    max_decision_level = 0;
    inprocess_passes = 0;
    vivified = 0;
    vivify_deleted = 0;
    subsumed = 0;
    strengthened = 0;
  }

let copy t = { t with decisions = t.decisions }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>decisions    %d@,conflicts    %d@,propagations %d@,restarts     %d@,\
     reduces      %d@,learned      %d@,deleted      %d@,minimized    %d@,\
     max-level    %d@]"
    t.decisions t.conflicts t.propagations t.restarts t.reduces t.learned_total
    t.deleted_total t.minimized_literals t.max_decision_level;
  if t.inprocess_passes > 0 then
    Format.fprintf ppf
      "@,@[<v>inprocess    %d@,vivified     %d@,viv-deleted  %d@,\
       subsumed     %d@,strengthened %d@]"
      t.inprocess_passes t.vivified t.vivify_deleted t.subsumed t.strengthened
