(* The list-bucket OpenFlow table that Table's rebuild on the shared
   subtable core replaced, kept verbatim (but for the masked hash, which
   Flow_key no longer exports) as the reference the equivalence property
   in test_ofproto.ml compares against. *)

(** One OpenFlow table: a priority-aware tuple-space classifier.

    Rules are grouped into subtables by wildcard mask; a lookup probes every
    subtable (priorities interleave across masks, so none can be skipped
    once a lower-priority hit exists — we probe all and keep the best) and
    returns the highest-priority match. The set of subtable masks probed is
    reported so translation can accumulate the megaflow wildcards: every
    mask examined narrows the megaflow, which is exactly how OVS builds
    megaflow entries from the OpenFlow rule set. *)

module FK = Ovs_packet.Flow_key
module Match_ = Ovs_ofproto.Match_

let hash_masked = Dpcls_reference.hash_masked

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

type 'a subtable = {
  mask : FK.t;
  tbl : (int, 'a rule list ref) Hashtbl.t;
  mutable max_priority : int;
  mutable rule_count : int;
}

type 'a t = {
  mutable subtables : 'a subtable list;
  mutable rule_count : int;
}

let create () = { subtables = []; rule_count = 0 }

let rule_count t = t.rule_count

let add t ?(cookie = 0) ~priority (match_ : Match_.t) value =
  let mask = match_.Match_.mask in
  let st =
    match List.find_opt (fun st -> FK.equal st.mask mask) t.subtables with
    | Some st -> st
    | None ->
        let st =
          {
            mask = FK.copy mask;
            tbl = Hashtbl.create 64;
            max_priority = min_int;
            rule_count = 0;
          }
        in
        t.subtables <- st :: t.subtables;
        st
  in
  let h = hash_masked match_.Match_.key mask in
  let bucket =
    match Hashtbl.find_opt st.tbl h with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.replace st.tbl h b;
        b
  in
  incr next_rule_id;
  bucket := { id = !next_rule_id; priority; match_; value; cookie; hits = 0 } :: !bucket;
  st.max_priority <- Int.max st.max_priority priority;
  st.rule_count <- st.rule_count + 1;
  t.rule_count <- t.rule_count + 1

(** Find the highest-priority matching rule. Also returns the list of
    subtable masks probed (for megaflow wildcard accumulation) — a
    subtable whose max priority cannot beat the current best is still
    "probed" for wildcarding purposes only if it was examined; we follow
    OVS in skipping it entirely when the priority proves it irrelevant. *)
let lookup t (key : FK.t) : ('a rule option * FK.t list) =
  let best = ref None in
  let best_priority () =
    match !best with Some r -> r.priority | None -> min_int
  in
  let probed = ref [] in
  let ordered =
    List.sort (fun a b -> compare b.max_priority a.max_priority) t.subtables
  in
  List.iter
    (fun st ->
      if st.max_priority > best_priority () then begin
        probed := st.mask :: !probed;
        let h = hash_masked key st.mask in
        match Hashtbl.find_opt st.tbl h with
        | None -> ()
        | Some bucket ->
            List.iter
              (fun r ->
                if r.priority > best_priority () && Match_.matches r.match_ key
                then best := Some r)
              !bucket
      end)
    ordered;
  (match !best with Some r -> r.hits <- r.hits + 1 | None -> ());
  (!best, !probed)

(** Remove rules matching a predicate; returns how many went away. *)
let remove_where t pred =
  let removed = ref 0 in
  List.iter
    (fun (st : 'a subtable) ->
      let before_st = st.rule_count in
      Hashtbl.iter
        (fun _ bucket ->
          let before = List.length !bucket in
          bucket := List.filter (fun r -> not (pred r)) !bucket;
          let gone = before - List.length !bucket in
          removed := !removed + gone;
          st.rule_count <- st.rule_count - gone)
        st.tbl;
      (* keep max_priority exact: a stale upper bound would make probe
         pruning — and thus megaflow masks — depend on deleted rules *)
      if st.rule_count < before_st && st.rule_count > 0 then begin
        let m = ref min_int in
        Hashtbl.iter
          (fun _ bucket ->
            List.iter (fun r -> if r.priority > !m then m := r.priority) !bucket)
          st.tbl;
        st.max_priority <- !m
      end)
    t.subtables;
  t.subtables <-
    List.filter (fun (st : 'a subtable) -> st.rule_count > 0) t.subtables;
  t.rule_count <- t.rule_count - !removed;
  !removed

(** Iterate every rule (statistics, dumps). *)
let iter t f =
  List.iter
    (fun (st : 'a subtable) ->
      Hashtbl.iter (fun _ bucket -> List.iter f !bucket) st.tbl)
    t.subtables
