(* The snapshot-and-diff revalidator that the rule journal replaced, kept
   verbatim as the reference the equivalence property in
   test_revalidator.ml compares the journal-driven tracker against. It
   re-snapshots every OpenFlow table on each sweep and diffs the sorted
   rule lists, so it sees only what changed between two sweeps' end
   points. *)

(** The flow-lifecycle subsystem: incremental megaflow revalidation.

    OVS's revalidator threads decide, on every flow-table change,
    which installed megaflows are still translating correctly. The
    classic answer — re-translate everything, or flush everything —
    costs work proportional to the *datapath table size*, which at
    production scale (hundreds of thousands of megaflows, steady rule
    churn from the controller) is exactly the wrong variable: churn
    touches a handful of rules per event.

    This module re-translates in proportion to *churn* instead.
    At translate time the datapath records, per megaflow, the rule
    dependency set: for every table the translation visited, either
    the rule that matched ([Matched]) or the fact that it fell
    through ([Missed]). On a sweep we diff a snapshot of the
    OpenFlow tables against the previous snapshot and mark dirty
    only megaflows whose dependencies could be affected:

    - a rule they matched was removed (or modified, which surfaces
      as remove+add because rule ids are never reused), or
    - a rule was added to a table they visited, overlaps the
      megaflow's match cube, and has priority at least that of the
      rule the megaflow matched there (a strictly-lower-priority
      add cannot steal the lookup; any add can steal a [Missed]).

    Only dirty megaflows are re-translated; those whose actions or
    mask changed are evicted through a caller-supplied callback (the
    datapath invalidates its caches there). The companion flush-all
    oracle ({!Dp_core.revalidate}) lets tests and the scale bench
    prove the incremental result identical on every churn event.

    The marking itself is not proportional to churn: each added rule
    is tested for overlap against every megaflow indexed under its
    table, so a round costs (megaflows that visited a churned table) ×
    (rules added there) cube tests — the bulk of a churn-heavy
    round. *)

module FK = Ovs_packet.Flow_key
module Table = Ovs_ofproto.Table
module Match_ = Ovs_ofproto.Match_
module Pipeline = Ovs_ofproto.Pipeline

type outcome = Matched of { rule : int; priority : int } | Missed

type dep = { dep_table : int; dep_outcome : outcome }
(** One table consulted during translation: which rule matched there
    (by process-global rule id), or a miss. *)

type sweep_stats = {
  sw_rules_added : int;
  sw_rules_removed : int;
  sw_dirty : int;  (** megaflows marked by the diff *)
  sw_retranslated : int;  (** = sw_dirty: every dirty flow re-translates *)
  sw_evicted : int;  (** re-translation changed actions or mask *)
}

type stats = {
  st_flows : int;  (** megaflows currently tracked *)
  st_sweeps : int;
  st_rules_added : int;
  st_rules_removed : int;
  st_dirty : int;
  st_retranslated : int;
  st_evicted : int;
}

(* Megaflows are keyed by (mask, masked key): the same identity dpcls
   uses, so the datapath can address entries it installed. *)
type mfid = FK.t * FK.t

(* The polymorphic hash samples only the first few words of a value —
   and megaflows from one pipeline are identical in the leading key
   fields, differing only late in the array (addresses, ports, ct
   state). Every mfid table must hash the whole key or it degenerates
   into one bucket and every operation goes linear in the flow count. *)
module Mfid_tbl = Hashtbl.Make (struct
  type t = mfid

  let equal (m1, k1) (m2, k2) = FK.equal m1 m2 && FK.equal k1 k2
  let hash (m, k) = Hashtbl.hash_param 256 256 (m, k)
end)

type 'a entry = {
  e_mask : FK.t;
  e_key : FK.t;  (** a full packet key that translates to this megaflow *)
  e_actions : 'a;
  mutable e_deps : dep list;
}

type 'a t = {
  pipeline : Pipeline.t;
  entries : 'a entry Mfid_tbl.t;
  by_rule : (int, unit Mfid_tbl.t) Hashtbl.t;
      (** rule id -> megaflows that matched it *)
  by_table : (int, unit Mfid_tbl.t) Hashtbl.t;
      (** table id -> megaflows whose translation visited it *)
  mutable snapshot : (int * int * Match_.t) list array;
      (** per table: (rule id, priority, match) at the last sweep *)
  mutable sweeps : int;
  mutable tot_added : int;
  mutable tot_removed : int;
  mutable tot_dirty : int;
  mutable tot_retranslated : int;
  mutable tot_evicted : int;
}

let snapshot_tables (p : Pipeline.t) =
  Array.map
    (fun tbl ->
      let rules = ref [] in
      Table.iter tbl (fun (r : _ Table.rule) ->
          rules := (r.Table.id, r.Table.priority, r.Table.match_) :: !rules);
      (* rule ids are monotone and unique, so sorting by id gives a
         canonical order for the diff *)
      List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rules)
    p.Pipeline.tables

let create ~pipeline () =
  {
    pipeline;
    entries = Mfid_tbl.create 4096;
    by_rule = Hashtbl.create 1024;
    by_table = Hashtbl.create 64;
    snapshot = snapshot_tables pipeline;
    sweeps = 0;
    tot_added = 0;
    tot_removed = 0;
    tot_dirty = 0;
    tot_retranslated = 0;
    tot_evicted = 0;
  }

let flows t = Mfid_tbl.length t.entries

let stats t =
  {
    st_flows = flows t;
    st_sweeps = t.sweeps;
    st_rules_added = t.tot_added;
    st_rules_removed = t.tot_removed;
    st_dirty = t.tot_dirty;
    st_retranslated = t.tot_retranslated;
    st_evicted = t.tot_evicted;
  }

let index tbl key id =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s = Mfid_tbl.create 8 in
        Hashtbl.replace tbl key s;
        s
  in
  Mfid_tbl.replace set id ()

let unindex tbl key id =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some s ->
      Mfid_tbl.remove s id;
      if Mfid_tbl.length s = 0 then Hashtbl.remove tbl key

let index_deps t id deps =
  List.iter
    (fun d ->
      index t.by_table d.dep_table id;
      match d.dep_outcome with
      | Matched { rule; _ } -> index t.by_rule rule id
      | Missed -> ())
    deps

let unindex_deps t id deps =
  List.iter
    (fun d ->
      unindex t.by_table d.dep_table id;
      match d.dep_outcome with
      | Matched { rule; _ } -> unindex t.by_rule rule id
      | Missed -> ())
    deps

let mfid_of ~mask ~key : mfid = (FK.copy mask, FK.apply_mask key mask)

let remove_entry t id =
  match Mfid_tbl.find_opt t.entries id with
  | None -> ()
  | Some e ->
      unindex_deps t id e.e_deps;
      Mfid_tbl.remove t.entries id

(** Start (or refresh) tracking a megaflow the datapath installed:
    [key] is the full packet key it was translated from, [deps] the
    dependency set collected during that translation. *)
let record t ~mask ~key ~actions deps =
  let id = mfid_of ~mask ~key in
  remove_entry t id;
  let e =
    { e_mask = fst id; e_key = FK.copy key; e_actions = actions; e_deps = deps }
  in
  Mfid_tbl.replace t.entries id e;
  index_deps t id deps

(** Stop tracking a megaflow (the datapath evicted it for its own
    reasons: flush, table pressure, fault). *)
let forget t ~mask ~key = remove_entry t (mfid_of ~mask ~key)

let clear t =
  Mfid_tbl.reset t.entries;
  Hashtbl.reset t.by_rule;
  Hashtbl.reset t.by_table;
  t.snapshot <- snapshot_tables t.pipeline

(* Do the match cube of [m] and the megaflow cube (mask, masked key)
   intersect? Per field: both constrain some bits; they are disjoint
   exactly when a commonly-constrained bit differs. *)
let cube_overlap (m : Match_.t) ~mask ~key =
  Array.for_all
    (fun f ->
      let common = FK.get m.Match_.mask f land FK.get mask f in
      FK.get m.Match_.key f land common = FK.get key f land common)
    FK.Field.all

(* Could adding rule (prio, match) to table [tid] change this entry's
   translation? Only if the entry visited [tid], the new rule's cube
   intersects the megaflow's cube, and the new rule can win the lookup
   there. *)
let add_affects e ~tid ~prio ~match_ =
  match List.find_opt (fun d -> d.dep_table = tid) e.e_deps with
  | None -> false
  | Some d ->
      cube_overlap match_ ~mask:e.e_mask ~key:e.e_key
      && (match d.dep_outcome with
         | Missed -> true
         | Matched { priority = p; _ } -> prio >= p)

(* A table's subtable profile: (mask, max rule priority) per distinct
   rule mask. Table.lookup, the one place the probing rule is defined,
   probes a subtable iff its max priority can still beat the best match,
   so a megaflow's wildcard mask is a function of exactly the profile
   entries whose max priority reaches its matched priority. Subtable
   counts are small; an assoc list with FK.equal keys is fine. *)
let profile rules =
  List.fold_left
    (fun acc (_, prio, (m : Match_.t)) ->
      let rec go = function
        | [] -> [ (m.Match_.mask, prio) ]
        | (mask, p) :: rest when FK.equal mask m.Match_.mask ->
            (mask, Int.max p prio) :: rest
        | e :: rest -> e :: go rest
      in
      go acc)
    [] rules

(* The max priorities of subtables whose existence or max priority
   changed between two rule lists. Any such change can grow or shrink
   the set of subtables a lookup probes — e.g. deleting the last rule
   of a mask drops the subtable and *widens* every fresh translation's
   mask — so megaflows whose matched priority is reachable from one of
   these must be re-translated even though their matched rule is
   untouched. *)
let profile_changes old_rules new_rules =
  let po = profile old_rules and pn = profile new_rules in
  let changed = ref [] in
  List.iter
    (fun (mask, p) ->
      match List.find_opt (fun (m, _) -> FK.equal m mask) pn with
      | Some (_, p') when p' = p -> ()
      | Some (_, p') -> changed := Int.max p p' :: !changed
      | None -> changed := p :: !changed)
    po;
  List.iter
    (fun (mask, p) ->
      if not (List.exists (fun (m, _) -> FK.equal m mask) po) then
        changed := p :: !changed)
    pn;
  !changed

(* Diff one table's rule list (both sorted by id) into removed ids and
   added rules. A modify surfaces as remove+add because ids are never
   reused. *)
let diff_rules old_rules new_rules =
  let removed = ref [] and added = ref [] in
  let rec go o n =
    match (o, n) with
    | [], [] -> ()
    | (id, _, _) :: o', [] ->
        removed := id :: !removed;
        go o' []
    | [], add :: n' ->
        added := add :: !added;
        go [] n'
    | ((oid, _, _) as _old) :: o', ((nid, _, _) as nw) :: n' ->
        if oid = nid then go o' n'
        else if oid < nid then begin
          removed := oid :: !removed;
          go o' n
        end
        else begin
          added := nw :: !added;
          go o n'
        end
  in
  go old_rules new_rules;
  (!removed, !added)

(** One revalidation pass. Diffs the pipeline's tables against the
    snapshot from the previous pass, marks dirty megaflows, and
    re-translates only those: [translate key] must return the fresh
    (actions, megaflow mask, dependency set) for a packet key; when
    the result no longer matches what was recorded, [evict] is called
    (the datapath removes the megaflow and invalidates caches there)
    and the entry is dropped. Re-translation is proportional to the
    dirty set, but marking is not: every megaflow indexed under a table
    that gained rules is tested against each added rule. *)
let sweep t ~translate ~evict : sweep_stats =
  let fresh = snapshot_tables t.pipeline in
  let n_added = ref 0 and n_removed = ref 0 in
  let dirty : unit Mfid_tbl.t = Mfid_tbl.create 64 in
  Array.iteri
    (fun tid old_rules ->
      let removed, added = diff_rules old_rules fresh.(tid) in
      n_removed := !n_removed + List.length removed;
      n_added := !n_added + List.length added;
      List.iter
        (fun rid ->
          match Hashtbl.find_opt t.by_rule rid with
          | None -> ()
          | Some set ->
              Mfid_tbl.iter (fun id () -> Mfid_tbl.replace dirty id ()) set)
        removed;
      (match added with
      | [] -> ()
      | adds -> (
          match Hashtbl.find_opt t.by_table tid with
          | None -> ()
          | Some set ->
              Mfid_tbl.iter
                (fun id () ->
                  if not (Mfid_tbl.mem dirty id) then
                    match Mfid_tbl.find_opt t.entries id with
                    | None -> ()
                    | Some e ->
                        if
                          List.exists
                            (fun (_, prio, match_) ->
                              add_affects e ~tid ~prio ~match_)
                            adds
                        then Mfid_tbl.replace dirty id ())
                set));
      (* subtable landscape changes alter which masks a lookup ORs into
         the megaflow even when the matched rule survives *)
      match profile_changes old_rules fresh.(tid) with
      | [] -> ()
      | thresholds -> (
          match Hashtbl.find_opt t.by_table tid with
          | None -> ()
          | Some set ->
              Mfid_tbl.iter
                (fun id () ->
                  if not (Mfid_tbl.mem dirty id) then
                    match Mfid_tbl.find_opt t.entries id with
                    | None -> ()
                    | Some e ->
                        let affected =
                          List.exists
                            (fun d ->
                              d.dep_table = tid
                              &&
                              match d.dep_outcome with
                              | Missed -> true
                              | Matched { priority; _ } ->
                                  List.exists
                                    (fun th -> th >= priority)
                                    thresholds)
                            e.e_deps
                        in
                        if affected then Mfid_tbl.replace dirty id ())
                set))
    t.snapshot;
  t.snapshot <- fresh;
  let n_dirty = Mfid_tbl.length dirty in
  let n_evicted = ref 0 in
  Mfid_tbl.iter
    (fun id () ->
      match Mfid_tbl.find_opt t.entries id with
      | None -> ()
      | Some e ->
          let actions', mask', deps' = translate e.e_key in
          if e.e_actions <> actions' || not (FK.equal e.e_mask mask') then begin
            evict ~mask:e.e_mask ~key:e.e_key;
            remove_entry t id;
            incr n_evicted
          end
          else begin
            unindex_deps t id e.e_deps;
            e.e_deps <- deps';
            index_deps t id deps'
          end)
    dirty;
  t.sweeps <- t.sweeps + 1;
  t.tot_added <- t.tot_added + !n_added;
  t.tot_removed <- t.tot_removed + !n_removed;
  t.tot_dirty <- t.tot_dirty + n_dirty;
  t.tot_retranslated <- t.tot_retranslated + n_dirty;
  t.tot_evicted <- t.tot_evicted + !n_evicted;
  {
    sw_rules_added = !n_added;
    sw_rules_removed = !n_removed;
    sw_dirty = n_dirty;
    sw_retranslated = n_dirty;
    sw_evicted = !n_evicted;
  }

(** Render the cumulative counters (the dpif/revalidator-show body). *)
let render t add =
  let s = stats t in
  add (Printf.sprintf "  megaflows tracked: %d" s.st_flows);
  add (Printf.sprintf "  sweeps: %d" s.st_sweeps);
  add
    (Printf.sprintf "  rules added: %d, removed: %d (diffed against snapshot)"
       s.st_rules_added s.st_rules_removed);
  add
    (Printf.sprintf "  dirty: %d, re-translated: %d, evicted: %d" s.st_dirty
       s.st_retranslated s.st_evicted)
