(** The megaflow cache: a tuple-space-search classifier (dpcls), the second
    level of the datapath lookup hierarchy — and the structure whose
    absence cripples the eBPF datapath (footnote 1 of the paper).

    Megaflows installed by the slow path are disjoint, so the classifier
    carries no priorities: one subtable per distinct wildcard mask, probed
    in descending hit-count order, first match wins. The number of
    subtables probed per lookup is reported to the caller because lookup
    cost is proportional to it.

    Each subtable lists, at creation, the key words its mask covers, and
    hashes and compares only those (OVS's miniflow subtables do the same).
    Its megaflows sit in one open-addressed table: an [int array] of
    hashes (-1 when empty) beside an array of entries, probed linearly,
    doubled at half occupancy, and cleared by shifting the rest of a probe
    run back, so no tombstone is ever left. A lookup allocates only its
    result. *)

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

type 'a subtable = {
  mask : FK.t;
  fields : int array;  (** indices of the mask's nonzero words, ascending *)
  words : int array;  (** the mask's word at each of [fields] *)
  mutable hashes : int array;
      (** per position, the hash of the entry there; -1 when empty. The
          length is a power of two. *)
  mutable slots : 'a entry array;
      (** per position, its entry; an empty position holds [filler] *)
  mutable home : int;  (** positions - 1: a hash's home is [hash land home] *)
  filler : 'a entry;
      (** the subtable's first entry, a placeholder in empty positions so
          the array needs no option *)
  mutable count : int;
  mutable st_hits : int;
}

type 'a t = {
  mutable subtables : 'a subtable array;  (** in probe order *)
  mutable flows : int;  (** the subtables' [count]s summed *)
  mutable lookups : int;
  mutable total_probes : int;
  mutable resort_counter : int;
}

let create () =
  { subtables = [||]; flows = 0; lookups = 0; total_probes = 0; resort_counter = 0 }

let subtable_count t = Array.length t.subtables

let flow_count t = t.flows

(* A new subtable's positions: smaller than the 256-bucket hash table it
   replaces, so creating a subtable on an upcall costs less than it did. *)
let initial_positions = 16

let new_subtable mask filler =
  let mask = FK.copy mask in
  let fields, words = FK.sparse_of_mask mask in
  {
    mask;
    fields;
    words;
    hashes = Array.make initial_positions (-1);
    slots = Array.make initial_positions filler;
    home = initial_positions - 1;
    filler;
    count = 0;
    st_hits = 0;
  }

(** FNV-1a over the words [st]'s mask covers, each masked, then mixed:
    FNV's low bits depend only on the words' low bits, so without the mix
    keys that differ only in high bits (address prefixes) would share a
    home position. The result is never negative. [key] need not be
    masked. *)
let hash st (key : FK.t) =
  let h = FK.hash_sparse st.fields st.words key in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

(* The position of [key]'s entry in [st] searching from [pos], or -1; [h]
   is its hash. *)
let rec position st (key : FK.t) h pos =
  let e = Array.unsafe_get st.hashes pos in
  if e < 0 then -1
  else if e = h && FK.equal_sparse st.fields st.words (Array.unsafe_get st.slots pos).key key
  then pos
  else position st key h ((pos + 1) land st.home)

(* The position of [key]'s entry in [st], or -1. *)
let locate st (key : FK.t) h = position st key h (h land st.home)

(* Put entry [e] with hash [h] at the first free position from its home. *)
let place st h e =
  let pos = ref (h land st.home) in
  while st.hashes.(!pos) >= 0 do
    pos := (!pos + 1) land st.home
  done;
  st.hashes.(!pos) <- h;
  st.slots.(!pos) <- e

(* Add a new entry, doubling the table at half occupancy so probe runs
   stay short. *)
let add st h e =
  if 2 * (st.count + 1) > st.home + 1 then begin
    let hashes = st.hashes and slots = st.slots in
    let positions = 2 * Array.length hashes in
    st.hashes <- Array.make positions (-1);
    st.slots <- Array.make positions st.filler;
    st.home <- positions - 1;
    for p = 0 to Array.length hashes - 1 do
      if hashes.(p) >= 0 then place st hashes.(p) slots.(p)
    done
  end;
  place st h e;
  st.count <- st.count + 1

(* Empty position [pos], then shift each later entry of the probe run back
   into the hole unless that would move it before its home position:
   every remaining entry stays reachable from its home. *)
let delete st pos =
  let hashes = st.hashes and slots = st.slots and mask = st.home in
  let hole = ref pos and j = ref ((pos + 1) land mask) in
  while hashes.(!j) >= 0 do
    let home = hashes.(!j) land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      hashes.(!hole) <- hashes.(!j);
      slots.(!hole) <- slots.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  hashes.(!hole) <- -1;
  slots.(!hole) <- st.filler;
  st.count <- st.count - 1

(* The index of the subtable for [mask] from the [i]th on, or -1. *)
let rec subtable_index t mask i =
  if i >= Array.length t.subtables then -1
  else if FK.equal t.subtables.(i).mask mask then i
  else subtable_index t mask (i + 1)

(** Install a megaflow. [key] needs not be pre-masked. *)
let insert t ~mask ~key value =
  let masked = FK.apply_mask key mask in
  let entry () = { key = masked; value; hits = 0; cycles = { ns = 0. } } in
  match subtable_index t mask 0 with
  | -1 ->
      let e = entry () in
      let st = new_subtable mask e in
      t.subtables <- Array.append [| st |] t.subtables;
      add st (hash st masked) e;
      t.flows <- t.flows + 1
  | i -> (
      let st = t.subtables.(i) in
      let h = hash st masked in
      (* replace an existing entry with the same masked key, in place *)
      match locate st masked h with
      | -1 ->
          add st h (entry ());
          t.flows <- t.flows + 1
      | pos -> st.slots.(pos).value <- value)

(* Probe the subtables in order from the [n]th. *)
let rec probe t key n =
  if n >= Array.length t.subtables then begin
    t.total_probes <- t.total_probes + n;
    None
  end
  else
    let st = Array.unsafe_get t.subtables n in
    let pos = locate st key (hash st key) in
    if pos < 0 then probe t key (n + 1)
    else begin
      let e = Array.unsafe_get st.slots pos in
      e.hits <- e.hits + 1;
      st.st_hits <- st.st_hits + 1;
      t.total_probes <- t.total_probes + n + 1;
      Some (e, n + 1, st.mask)
    end

let by_hits a b = Int.compare b.st_hits a.st_hits
let halve_hits st = st.st_hits <- st.st_hits / 2

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
    let pos = locate st key (hash st key) in
    if pos < 0 then peek_from t key (n + 1)
    else Some ((Array.unsafe_get st.slots pos).value, st.mask)

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
      let masked = FK.apply_mask key mask in
      let pos = locate st masked (hash st masked) in
      if pos < 0 then false
      else begin
        delete st pos;
        t.flows <- t.flows - 1;
        if st.count = 0 then begin
          let n = Array.length t.subtables in
          t.subtables <-
            Array.append (Array.sub t.subtables 0 i) (Array.sub t.subtables (i + 1) (n - i - 1))
        end;
        true
      end

let flush t =
  t.subtables <- [||];
  t.flows <- 0;
  t.lookups <- 0;
  t.total_probes <- 0

(** {!iter} with the full entry exposed (hit and cycle stats). *)
let iter_entries t f =
  Array.iter
    (fun st -> Array.iteri (fun p e -> if st.hashes.(p) >= 0 then f ~mask:st.mask e) st.slots)
    t.subtables

(** Iterate every installed megaflow as (mask, masked key, value, hits). *)
let iter t f = iter_entries t (fun ~mask e -> f ~mask ~key:e.key e.value e.hits)

(** Mean subtables probed per lookup so far. *)
let mean_probes t =
  if t.lookups = 0 then 0.
  else float_of_int t.total_probes /. float_of_int t.lookups
