(** The signature-match cache (SMC): the optional middle layer of the OVS
    userspace lookup hierarchy (off by default upstream; an ablation knob
    here). Where the EMC stores the full flow key per entry, the SMC is a
    direct-mapped cache from the key's hash ("signature") to a megaflow:
    sixteen times denser, at the cost of one masked comparison per hit —
    useful when the flow count overwhelms the EMC. *)

module FK = Ovs_packet.Flow_key

type 'a entry = {
  signature : int;
  mask : FK.t;
  masked_key : FK.t;
  found : 'a option;  (** [Some value], built once at insert so a hit returns it as is *)
}

type 'a t = {
  slots : 'a entry option array;
  mask_bits : int;
  mutable lookups : int;
  mutable hits : int;
  mutable dirty : bool;  (** an insert since the last flush *)
}

let default_entries = 32768

let create ?(entries = default_entries) () =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Smc.create: entries must be a power of two";
  { slots = Array.make entries None; mask_bits = entries - 1; lookups = 0;
    hits = 0; dirty = false }

let lookup t (key : FK.t) : 'a option =
  t.lookups <- t.lookups + 1;
  let signature = FK.hash key in
  match t.slots.(signature land t.mask_bits) with
  | Some e
    when e.signature = signature
         && FK.equal_masked key e.masked_key e.mask ->
      t.hits <- t.hits + 1;
      e.found
  | _ -> None

(** Install the megaflow a dpcls lookup just returned. *)
let insert t (key : FK.t) ~(mask : FK.t) (value : 'a) =
  let signature = FK.hash key in
  t.dirty <- true;
  t.slots.(signature land t.mask_bits) <-
    Some
      {
        signature;
        mask = FK.copy mask;
        masked_key = FK.apply_mask key mask;
        found = Some value;
      }

(* An SMC nothing was inserted into since the last flush is already
   empty: skip the fill, so flushing a disabled SMC costs nothing. *)
let flush t =
  if t.dirty then begin
    Array.fill t.slots 0 (Array.length t.slots) None;
    t.dirty <- false
  end
