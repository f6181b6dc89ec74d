(* The list-bucket megaflow classifier that Dpcls's open-addressed
   subtables replaced, kept verbatim (but for a local copy of the masked
   hash it used from Flow_key, which has since been deleted) as the
   reference the equivalence property in test_flow.ml compares
   against. *)

(** The megaflow cache: a tuple-space-search classifier (dpcls), the second
    level of the datapath lookup hierarchy — and the structure whose
    absence cripples the eBPF datapath (footnote 1 of the paper).

    Megaflows installed by the slow path are disjoint, so the classifier
    carries no priorities: one subtable per distinct wildcard mask, probed
    in descending hit-count order, first match wins. The number of
    subtables probed per lookup is reported to the caller because lookup
    cost is proportional to it. *)

module FK = Ovs_packet.Flow_key

(** FNV-1a over the fields [mask] selects, each masked: the hash
    [Flow_key.hash_masked] computed for both list-bucket references. *)
let hash_masked (k : FK.t) (mask : FK.t) =
  let h = ref 0x3bf29ce484222325 in
  Array.iter
    (fun f ->
      let m = FK.get mask f in
      if m <> 0 then h := (!h lxor (FK.get k f land m)) * 0x100000001b3)
    FK.Field.all;
  !h land max_int

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
  tbl : (int, 'a entry list ref) Hashtbl.t;
  mutable st_hits : int;
  mutable st_count : int;
}

type 'a t = {
  mutable subtables : 'a subtable list;
  mutable flows : int;  (** the subtables' [st_count]s summed *)
  mutable lookups : int;
  mutable total_probes : int;
  mutable resort_counter : int;
}

let create () =
  { subtables = []; flows = 0; lookups = 0; total_probes = 0; resort_counter = 0 }

let subtable_count t = List.length t.subtables

let flow_count t = t.flows

let find_subtable t mask =
  List.find_opt (fun st -> FK.equal st.mask mask) t.subtables

(** Install a megaflow. [key] needs not be pre-masked. *)
let insert t ~mask ~key value =
  let masked = FK.apply_mask key mask in
  let st =
    match find_subtable t mask with
    | Some st -> st
    | None ->
        let st =
          { mask = FK.copy mask; tbl = Hashtbl.create 256; st_hits = 0; st_count = 0 }
        in
        t.subtables <- st :: t.subtables;
        st
  in
  (* hash exactly as lookup will: over the masked-in fields only *)
  let h = hash_masked masked st.mask in
  let bucket =
    match Hashtbl.find_opt st.tbl h with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.replace st.tbl h b;
        b
  in
  (* replace an existing entry with the same masked key, in place *)
  let existing = List.exists (fun e -> FK.equal e.key masked) !bucket in
  if existing then
    List.iter (fun e -> if FK.equal e.key masked then e.value <- value) !bucket
  else begin
    bucket := { key = masked; value; hits = 0; cycles = { ns = 0. } } :: !bucket;
    st.st_count <- st.st_count + 1;
    t.flows <- t.flows + 1
  end

(* The first entry of a hash bucket whose (pre-masked) key equals [key]
   under [mask]. *)
let rec find_in_bucket key mask = function
  | [] -> None
  | e :: rest ->
      if FK.equal_masked e.key key mask then Some e else find_in_bucket key mask rest

(* Probe the subtables in order; [n] counts the ones already probed. *)
let rec probe t key n = function
  | [] ->
      t.total_probes <- t.total_probes + n;
      None
  | st :: rest -> begin
      let hit =
        match Hashtbl.find st.tbl (hash_masked key st.mask) with
        | bucket -> find_in_bucket key st.mask !bucket
        | exception Not_found -> None
      in
      match hit with
      | Some e ->
          e.hits <- e.hits + 1;
          st.st_hits <- st.st_hits + 1;
          t.total_probes <- t.total_probes + n + 1;
          Some (e, n + 1, st.mask)
      | None -> probe t key (n + 1) rest
    end

(** Look a packet's flow key up. Returns the value, the number of
    subtables probed (the lookup's cost driver) and the matching
    subtable's mask (for installing into upper cache layers), or [None]
    after probing them all. Subtables are re-sorted by hit count
    periodically, as the real dpcls does. *)
let lookup_entry t (key : FK.t) : ('a entry * int * FK.t) option =
  t.lookups <- t.lookups + 1;
  t.resort_counter <- t.resort_counter + 1;
  if t.resort_counter >= 1024 then begin
    t.resort_counter <- 0;
    t.subtables <-
      List.sort (fun a b -> compare b.st_hits a.st_hits) t.subtables;
    (* decay the counts after ranking: each resort period then weighs
       recent traffic against a halved history, so a workload shift
       reorders within a few periods. Sorting by all-time hits never
       reorders once an old hot subtable has banked a large lead. *)
    List.iter (fun st -> st.st_hits <- st.st_hits / 2) t.subtables
  end;
  probe t key 0 t.subtables

(** {!lookup_entry} with the entry resolved to its value. *)
let lookup_full t (key : FK.t) : ('a * int * FK.t) option =
  match lookup_entry t key with
  | Some (e, probes, mask) -> Some (e.value, probes, mask)
  | None -> None

(** {!lookup_full} without the mask. *)
let lookup t (key : FK.t) : ('a * int) option =
  match lookup_full t key with
  | Some (v, probes, _) -> Some (v, probes)
  | None -> None

(** Look [key] up without mutating any statistic, hit count or the
    subtable order — for cross-checking other tiers against the
    classifier on live state. *)
let peek t (key : FK.t) : ('a * FK.t) option =
  let rec probe = function
    | [] -> None
    | st :: rest -> begin
        let h = hash_masked key st.mask in
        let hit =
          match Hashtbl.find_opt st.tbl h with
          | None -> None
          | Some bucket ->
              List.find_opt
                (fun e -> FK.equal e.key (FK.apply_mask key st.mask))
                !bucket
        in
        match hit with
        | Some e -> Some (e.value, st.mask)
        | None -> probe rest
      end
  in
  probe t.subtables

(** Remove the megaflow matching [key] under [mask]; empty subtables are
    garbage collected. Returns whether an entry was removed. *)
let remove t ~mask ~key =
  match find_subtable t mask with
  | None -> false
  | Some st ->
      let masked = FK.apply_mask key mask in
      let h = hash_masked masked st.mask in
      let removed = ref false in
      (match Hashtbl.find_opt st.tbl h with
      | None -> ()
      | Some bucket ->
          let before = List.length !bucket in
          bucket := List.filter (fun e -> not (FK.equal e.key masked)) !bucket;
          if List.length !bucket < before then begin
            removed := true;
            st.st_count <- st.st_count - 1;
            t.flows <- t.flows - 1;
            if !bucket = [] then Hashtbl.remove st.tbl h
          end);
      if st.st_count = 0 then
        t.subtables <- List.filter (fun s -> s != st) t.subtables;
      !removed

let flush t =
  t.subtables <- [];
  t.flows <- 0;
  t.lookups <- 0;
  t.total_probes <- 0

(** Iterate every installed megaflow as (mask, masked key, value, hits). *)
let iter t f =
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun _ bucket -> List.iter (fun e -> f ~mask:st.mask ~key:e.key e.value e.hits) !bucket)
        st.tbl)
    t.subtables

(** {!iter} with the full entry exposed (hit and cycle stats). *)
let iter_entries t f =
  List.iter
    (fun st ->
      Hashtbl.iter (fun _ bucket -> List.iter (fun e -> f ~mask:st.mask e) !bucket) st.tbl)
    t.subtables

(** Mean subtables probed per lookup so far. *)
let mean_probes t =
  if t.lookups = 0 then 0.
  else float_of_int t.total_probes /. float_of_int t.lookups
