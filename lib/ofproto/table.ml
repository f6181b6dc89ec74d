(** One OpenFlow table: a priority-aware tuple-space classifier.

    Rules are grouped by wildcard mask into {!Ovs_flow.Subtable}s, the
    core the megaflow cache uses too; a slot holds the rules that share
    a masked key, by descending priority and newest first among equals.
    The subtables sit in an array in probe order, which [add] and
    [remove_where] keep, so a lookup never sorts. [lookup] is the one
    place the probing rule, and with it every megaflow's mask, is
    defined.

    A reader that calls [watch] gets its own journal of the table's
    changes, appended by [add] and [remove_where]; a table nobody
    watches records nothing. *)

module FK = Ovs_packet.Flow_key
module Subtable = Ovs_flow.Subtable

type 'a rule = {
  id : int;  (** unique per process; what ofproto/trace names rules by *)
  priority : int;
  match_ : Match_.t;
  value : 'a;
  cookie : int;
  mutable hits : int;
}

(* process-global so rule ids stay unique across tables and bridges *)
let next_rule_id = ref 0

type 'a change = Added of 'a rule | Removed of 'a rule | Threshold of int

type 'a subtable = {
  rules : 'a rule list Subtable.t;  (** emptied slots are deleted *)
  mutable max_priority : int;
  created : int;  (** creation order: larger for a newer subtable *)
}

type 'a t = {
  mutable subtables : 'a subtable array;  (** in probe order *)
  mutable rule_count : int;
  mutable created : int;  (** subtables made so far *)
  mutable probes : int;
  mutable journals : 'a change Queue.t list;  (** one per watching reader *)
}

let create () = { subtables = [||]; rule_count = 0; created = 0; probes = 0; journals = [] }

let watch t =
  let q = Queue.create () in
  t.journals <- q :: t.journals;
  q

let unwatch t q = t.journals <- List.filter (fun q' -> q' != q) t.journals
let note t c = List.iter (Queue.add c) t.journals

let rule_count t = t.rule_count

let probes t = t.probes

(* Probe order: descending max priority; among equals the newest first,
   which is where a new subtable goes. *)
let probe_order a b =
  match Int.compare b.max_priority a.max_priority with 0 -> Int.compare b.created a.created | c -> c

(* Move the [i]th subtable forward past every subtable it now precedes. *)
let rec move_up t i =
  if i > 0 && probe_order t.subtables.(i) t.subtables.(i - 1) < 0 then begin
    let st = t.subtables.(i) in
    t.subtables.(i) <- t.subtables.(i - 1);
    t.subtables.(i - 1) <- st;
    move_up t (i - 1)
  end

(* The index of the subtable for [mask] from the [i]th on, or -1. *)
let rec subtable_index t mask i =
  if i >= Array.length t.subtables then -1
  else if FK.equal t.subtables.(i).rules.Subtable.mask mask then i
  else subtable_index t mask (i + 1)

(* [r] into a slot's rules, ahead of every rule of no higher priority. *)
let rec insert_rule r = function
  | r' :: rest when r'.priority > r.priority -> r' :: insert_rule r rest
  | rules -> r :: rules

let add t ?(cookie = 0) ~priority (match_ : Match_.t) value =
  let mask = match_.Match_.mask in
  let old_max = ref min_int in
  let i =
    match subtable_index t mask 0 with
    | -1 ->
        let st =
          { rules = Subtable.create mask []; max_priority = min_int; created = t.created }
        in
        t.created <- t.created + 1;
        t.subtables <- Array.append t.subtables [| st |];
        Array.length t.subtables - 1
    | i ->
        old_max := t.subtables.(i).max_priority;
        i
  in
  let st = t.subtables.(i) in
  incr next_rule_id;
  let r = { id = !next_rule_id; priority; match_; value; cookie; hits = 0 } in
  (match Subtable.find st.rules match_.Match_.key with
  | -1 -> Subtable.add st.rules match_.Match_.key [ r ]
  | s -> Subtable.set_value st.rules s (insert_rule r (Subtable.value st.rules s)));
  st.max_priority <- Int.max st.max_priority priority;
  t.rule_count <- t.rule_count + 1;
  move_up t i;
  if t.journals <> [] then begin
    note t (Added r);
    if priority > !old_max then note t (Threshold priority)
  end

(* Probe the subtables from the [i]th while one can still beat [best],
   whose priority is [prio]. *)
let rec probe t (key : FK.t) wc i best prio =
  if i >= Array.length t.subtables then best
  else
    let st = Array.unsafe_get t.subtables i in
    if st.max_priority <= prio then best
    else begin
      FK.or_mask wc st.rules.Subtable.mask;
      t.probes <- t.probes + 1;
      let s = Subtable.find st.rules key in
      match if s < 0 then [] else Subtable.value st.rules s with
      | r :: _ when r.priority > prio -> probe t key wc (i + 1) (Some r) r.priority
      | _ -> probe t key wc (i + 1) best prio
    end

let lookup t (key : FK.t) ~(wc : FK.t) : 'a rule option =
  let best = probe t key wc 0 None min_int in
  (match best with Some r -> r.hits <- r.hits + 1 | None -> ());
  best

(** Remove rules matching a predicate; returns how many went away. *)
let remove_where t pred =
  let removed = ref 0 in
  Array.iter
    (fun (st : _ subtable) ->
      (* keep max_priority exact: a stale upper bound would make probe
         pruning — and thus megaflow masks — depend on deleted rules *)
      let old_max = st.max_priority in
      st.max_priority <- min_int;
      for s = st.rules.Subtable.count - 1 downto 0 do
        let gone, kept = List.partition pred (Subtable.value st.rules s) in
        removed := !removed + List.length gone;
        if t.journals <> [] then List.iter (fun r -> note t (Removed r)) gone;
        match kept with
        | [] -> Subtable.delete st.rules s
        | r :: _ ->
            Subtable.set_value st.rules s kept;
            st.max_priority <- Int.max st.max_priority r.priority
      done;
      if st.max_priority <> old_max then note t (Threshold old_max))
    t.subtables;
  t.subtables <-
    Array.of_seq (Seq.filter (fun st -> st.rules.Subtable.count > 0) (Array.to_seq t.subtables));
  Array.sort probe_order t.subtables;
  t.rule_count <- t.rule_count - !removed;
  !removed

(** Iterate every rule (statistics, dumps). *)
let iter t f =
  Array.iter (fun st -> Subtable.iter st.rules (List.iter f)) t.subtables
