(** One tuple-space-search subtable, the core both classifiers share:
    the megaflow cache ({!Dpcls}, one megaflow per slot) and the OpenFlow
    tables ([Ovs_ofproto.Table], the rules that share a masked key per
    slot). It hashes, stores and compares only the key words its mask
    covers; its slots are dense, found through an open-addressed index
    with backward-shift deletion.

    The record is exposed so a classifier's probe loop reads it without
    a call per field. Only [hits] is the caller's to write; this module
    keeps every other field. *)

module FK = Ovs_packet.Flow_key

type 'a t = {
  mask : FK.t;
  fields : int array;  (** indices of the mask's nonzero words, ascending *)
  words : int array;  (** the mask's word at each of [fields] *)
  width : int;  (** key words stored per slot *)
  mutable index : int array;  (** per position, -1 or a slot and its hash's top bits *)
  mutable home : int;  (** positions - 1 *)
  mutable hashes : int array;  (** per slot, its hash *)
  mutable keys : int array array;  (** per page of slots, their masked key words *)
  mutable slots : 'a array array;  (** per page of slots, their values *)
  filler : 'a;  (** the value of unused slots *)
  mutable count : int;  (** slots in use: [0 .. count - 1] *)
  mutable hits : int;  (** lookups answered here, for a caller that ranks subtables *)
}

val create : FK.t -> 'a -> 'a t
(** [create mask filler]: an empty subtable for a copy of [mask]. *)

val find : 'a t -> FK.t -> int
(** The slot whose key equals [key] masked, or -1. [key] need not be
    masked. One call makes one whole probe. *)

val value : 'a t -> int -> 'a
(** The value of a slot {!find} returned. *)

val set_value : 'a t -> int -> 'a -> unit
(** Replace the value of a slot {!find} returned. *)

val add : 'a t -> FK.t -> 'a -> unit
(** [add st key v]: a new slot for [key], which must be absent and need
    not be masked. *)

val delete : 'a t -> int -> unit
(** Delete a slot {!find} returned; the last slot moves into it, so a
    scan from the last slot down may delete as it goes. *)

val iter : 'a t -> ('a -> unit) -> unit
(** Visit every slot's value, in slot order. *)
