(** The signature-match cache (SMC): the optional middle layer of the
    lookup hierarchy (off by default upstream). A direct-mapped cache from
    the key's hash to a megaflow — sixteen times denser than the EMC, at
    the price of one masked comparison per hit. *)

type 'a t

val create : ?entries:int -> unit -> 'a t
(** [entries] must be a power of two.
    @raise Invalid_argument otherwise. *)

val lookup : 'a t -> Ovs_packet.Flow_key.t -> 'a option
(** Probe the slot selected by the key's signature; a hit requires both
    the signature and the masked key to match. *)

val insert : 'a t -> Ovs_packet.Flow_key.t -> mask:Ovs_packet.Flow_key.t -> 'a -> unit
(** Install the megaflow (identified by its wildcard [mask]) that a dpcls
    lookup for this key just returned. *)

val flush : 'a t -> unit
(** Empty every slot. Free when nothing was inserted since the last
    flush, as in an SMC that is switched off. *)
