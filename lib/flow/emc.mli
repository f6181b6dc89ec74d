(** The exact-match cache (EMC): first level of the userspace datapath's
    lookup hierarchy, mapping a packet's full flow key to its megaflow with
    a 2-way set-associative probe. Its in-kernel counterpart was rejected
    upstream (paper Sec 2.1), which is why only the userspace datapaths
    have one. *)

type 'a t

val create : ?entries:int -> unit -> 'a t
(** [create ()] makes an empty cache. [entries] must be a power of two.
    @raise Invalid_argument otherwise. *)

val lookup : 'a t -> Ovs_packet.Flow_key.t -> 'a option
(** Probe both candidate slots for an exact key match. Updates hit
    statistics. *)

val insert : 'a t -> Ovs_packet.Flow_key.t -> 'a -> unit
(** Insert or update, evicting the colder of the two candidate slots when
    both are occupied. *)

val flush : 'a t -> unit
(** Drop every entry (rule changes invalidate cached actions). *)

val occupancy : 'a t -> int
(** Live entries — the cache's working-set size, which drives the
    cold-cache penalty in the cost model. O(1). *)

val hit_rate : 'a t -> float
(** Hits over lookups since creation (or the last flush did not reset
    statistics; this is a lifetime ratio). *)
