(** The megaflow cache: a tuple-space-search classifier (dpcls), the second
    level of the datapath lookup hierarchy — and the structure whose
    absence cripples the eBPF datapath (footnote 1 of the paper).

    Megaflows installed by the slow path are disjoint, so the classifier
    carries no priorities: one subtable per distinct wildcard mask, probed
    in descending hit-count order, first match wins. The number of
    subtables probed per lookup is reported to the caller because lookup
    cost is proportional to it.

    The subtables are {!Subtable}s, one megaflow entry per slot, so each
    hashes and compares only the key words its mask covers. A lookup
    allocates only its result. *)

module FK = Ovs_packet.Flow_key

(** A float accumulator in a record of its own, so adding to it stores
    the float in place instead of allocating a box. *)
type cycles = { mutable ns : float }

type 'a entry = {
  key : FK.t;  (** pre-masked key *)
  mutable value : 'a;
      (** mutable so a reinstall updates the record in place — outside
          references (the computational cache's iSet members) must never
          observe a stale value *)
  mutable hits : int;
  cycles : cycles;
      (** virtual ns spent on lookups that hit this entry (credited by the
          datapath, which knows the per-probe cost) — dpctl/dump-flows'
          per-megaflow cycle stats *)
}

type 'a t = {
  mutable subtables : 'a entry Subtable.t array;  (** in probe order *)
  mutable flows : int;  (** the subtables' [count]s summed *)
  mutable lookups : int;
  mutable total_probes : int;
  mutable resort_counter : int;
}

let create () =
  { subtables = [||]; flows = 0; lookups = 0; total_probes = 0; resort_counter = 0 }

let subtable_count t = Array.length t.subtables

let flow_count t = t.flows

(* The index of the subtable for [mask] from the [i]th on, or -1. *)
let rec subtable_index t mask i =
  if i >= Array.length t.subtables then -1
  else if FK.equal t.subtables.(i).Subtable.mask mask then i
  else subtable_index t mask (i + 1)

(** Install a megaflow. [key] needs not be pre-masked. *)
let insert t ~mask ~key value =
  let masked = FK.apply_mask key mask in
  let e = { key = masked; value; hits = 0; cycles = { ns = 0. } } in
  let st =
    match subtable_index t mask 0 with
    | -1 ->
        let st = Subtable.create mask e in
        t.subtables <- Array.append [| st |] t.subtables;
        st
    | i -> t.subtables.(i)
  in
  (* replace an existing entry with the same masked key, in place *)
  match Subtable.find st masked with
  | -1 ->
      Subtable.add st masked e;
      t.flows <- t.flows + 1
  | s -> (Subtable.value st s).value <- value

(* Probe the subtables in order from the [n]th. *)
let rec probe t key n =
  if n >= Array.length t.subtables then begin
    t.total_probes <- t.total_probes + n;
    None
  end
  else
    let st = Array.unsafe_get t.subtables n in
    let s = Subtable.find st key in
    if s < 0 then probe t key (n + 1)
    else begin
      let e = Subtable.value st s in
      e.hits <- e.hits + 1;
      st.Subtable.hits <- st.Subtable.hits + 1;
      t.total_probes <- t.total_probes + n + 1;
      Some (e, n + 1, st.Subtable.mask)
    end

let by_hits (a : _ Subtable.t) (b : _ Subtable.t) = Int.compare b.hits a.hits
let halve_hits (st : _ Subtable.t) = st.hits <- st.hits / 2

(** Look a packet's flow key up. Returns the entry, the number of
    subtables probed (the lookup's cost driver) and the matching
    subtable's mask (for installing into upper cache layers), or [None]
    after probing them all. Subtables are re-sorted by hit count
    periodically, as the real dpcls does. *)
let lookup_entry t (key : FK.t) : ('a entry * int * FK.t) option =
  t.lookups <- t.lookups + 1;
  t.resort_counter <- t.resort_counter + 1;
  if t.resort_counter >= 1024 then begin
    t.resort_counter <- 0;
    (* stable, so subtables with equal counts keep their order *)
    Array.stable_sort by_hits t.subtables;
    (* decay the counts after ranking: each resort period then weighs
       recent traffic against a halved history, so a workload shift
       reorders within a few periods. Sorting by all-time hits never
       reorders once an old hot subtable has banked a large lead. *)
    Array.iter halve_hits t.subtables
  end;
  probe t key 0

let rec peek_from t key n =
  if n >= Array.length t.subtables then None
  else
    let st = Array.unsafe_get t.subtables n in
    let s = Subtable.find st key in
    if s < 0 then peek_from t key (n + 1)
    else Some ((Subtable.value st s).value, st.Subtable.mask)

(** Look [key] up without mutating any statistic, hit count or the
    subtable order — for cross-checking other tiers against the
    classifier on live state. *)
let peek t (key : FK.t) : ('a * FK.t) option = peek_from t key 0

(** Remove the megaflow matching [key] under [mask]; empty subtables are
    garbage collected. Returns whether an entry was removed. *)
let remove t ~mask ~key =
  match subtable_index t mask 0 with
  | -1 -> false
  | i ->
      let st = t.subtables.(i) in
      let s = Subtable.find st key in
      if s < 0 then false
      else begin
        Subtable.delete st s;
        t.flows <- t.flows - 1;
        if st.Subtable.count = 0 then
          t.subtables <- Array.of_seq (Seq.filter (( != ) st) (Array.to_seq t.subtables));
        true
      end

let flush t =
  t.subtables <- [||];
  t.flows <- 0;
  t.lookups <- 0;
  t.total_probes <- 0

(** {!iter} with the full entry exposed (hit and cycle stats). *)
let iter_entries t f =
  Array.iter (fun st -> Subtable.iter st (fun e -> f ~mask:st.Subtable.mask e)) t.subtables

(** Iterate every installed megaflow as (mask, masked key, value, hits). *)
let iter t f = iter_entries t (fun ~mask e -> f ~mask ~key:e.key e.value e.hits)

(** Mean subtables probed per lookup so far. *)
let mean_probes t =
  if t.lookups = 0 then 0.
  else float_of_int t.total_probes /. float_of_int t.lookups
