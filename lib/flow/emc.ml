(** The exact-match cache (EMC): first level of the userspace datapath's
    lookup hierarchy. Maps a packet's full flow key to its megaflow with a
    2-way set-associative probe, exactly the structure whose in-kernel
    counterpart the Linux maintainers rejected (Sec 2.1, [61]) — which is
    why only the userspace datapaths get to have one. *)

type 'a entry = {
  key : Ovs_packet.Flow_key.t;
  mutable found : 'a option;
      (** [Some value], built once at insert so a hit returns it as is *)
  mutable hits : int;
}

type 'a t = {
  slots : 'a entry option array;
  mask : int;
  mutable insertions : int;
  mutable lookups : int;
  mutable hit_count : int;
  mutable occupied : int;  (** live entries, maintained incrementally *)
}

let default_entries = 8192

let create ?(entries = default_entries) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Emc.create: entries must be a power of two";
  {
    slots = Array.make entries None;
    mask = entries - 1;
    insertions = 0;
    lookups = 0;
    hit_count = 0;
    occupied = 0;
  }

let slot2 t h = (h lsr 13) land t.mask

(* The cached value if slot [i] holds [key]. *)
let probe t i key =
  match Array.unsafe_get t.slots i with
  | Some e when Ovs_packet.Flow_key.equal e.key key ->
      e.hits <- e.hits + 1;
      e.found
  | Some _ | None -> None

let lookup t (key : Ovs_packet.Flow_key.t) : 'a option =
  t.lookups <- t.lookups + 1;
  let h = Ovs_packet.Flow_key.hash key in
  let r =
    match probe t (h land t.mask) key with
    | Some _ as hit -> hit
    | None -> probe t (slot2 t h) key
  in
  (match r with Some _ -> t.hit_count <- t.hit_count + 1 | None -> ());
  r

let fresh key value =
  Some { key = Ovs_packet.Flow_key.copy key; found = Some value; hits = 0 }

(* Evict [victim] in place: its key array takes a copy of [key]. A
   thrashing cache then allocates only the new [Some value] per insert,
   not a fresh entry and key — which would outlive the next minor
   collection, since the slot array holding them does. *)
let replace victim (key : Ovs_packet.Flow_key.t) value =
  Array.blit key 0 victim.key 0 (Array.length key);
  victim.found <- Some value;
  victim.hits <- 0

(** Insert, evicting the colder of the two candidate slots when both are
    occupied (OVS evicts probabilistically; coldest-of-two keeps the test
    behaviour deterministic). *)
let insert t (key : Ovs_packet.Flow_key.t) (value : 'a) =
  t.insertions <- t.insertions + 1;
  let h = Ovs_packet.Flow_key.hash key in
  let i1 = h land t.mask and i2 = slot2 t h in
  match (t.slots.(i1), t.slots.(i2)) with
  | Some e, _ when Ovs_packet.Flow_key.equal e.key key -> e.found <- Some value
  | _, Some e when Ovs_packet.Flow_key.equal e.key key -> e.found <- Some value
  | None, _ ->
      t.slots.(i1) <- fresh key value;
      t.occupied <- t.occupied + 1
  | _, None ->
      t.slots.(i2) <- fresh key value;
      t.occupied <- t.occupied + 1
  | Some a, Some b -> if a.hits <= b.hits then replace a key value else replace b key value

let flush t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.occupied <- 0

let occupancy t = t.occupied

let hit_rate t =
  if t.lookups = 0 then 0. else float_of_int t.hit_count /. float_of_int t.lookups
