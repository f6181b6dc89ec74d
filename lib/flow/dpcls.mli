(** The megaflow cache: a tuple-space-search classifier (dpcls), the
    second level of the datapath lookup hierarchy. One subtable per
    distinct wildcard mask; megaflows are disjoint so there are no
    priorities; subtables are probed in descending hit-count order and
    re-sorted periodically. Lookup cost is proportional to the number of
    subtables probed, which the API reports. *)

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

type 'a t

val create : unit -> 'a t

val subtable_count : 'a t -> int
(** Distinct wildcard masks currently installed. *)

val flow_count : 'a t -> int
(** Total megaflow entries. *)

val insert : 'a t -> mask:FK.t -> key:FK.t -> 'a -> unit
(** Install (or replace) the megaflow matching [key] under [mask]. [key]
    need not be pre-masked. *)

val lookup_entry : 'a t -> FK.t -> ('a entry * int * FK.t) option
(** [lookup_entry t key] is [Some (entry, subtables_probed, mask)] for the
    first subtable containing a match, or [None] after probing them all.
    The returned mask identifies the matching megaflow's subtable so upper
    cache layers can be populated; the entry is exposed so the caller can
    credit lookup cycles to it. *)

val lookup_full : 'a t -> FK.t -> ('a * int * FK.t) option
(** {!lookup_entry} with the entry resolved to its value. *)

val lookup : 'a t -> FK.t -> ('a * int) option
(** {!lookup_full} without the mask. *)

val peek : 'a t -> FK.t -> ('a * FK.t) option
(** Lookup without mutating any statistic, hit count or the subtable
    order — for cross-checking other tiers on live state. *)

val remove : 'a t -> mask:FK.t -> key:FK.t -> bool
(** Remove one megaflow; empty subtables are garbage-collected. Returns
    whether an entry was removed. *)

val flush : 'a t -> unit

val iter :
  'a t -> (mask:FK.t -> key:FK.t -> 'a -> int -> unit) -> unit
(** Visit every megaflow as [(mask, masked key, value, hit count)] — the
    dpctl/dump-flows view. *)

val iter_entries : 'a t -> (mask:FK.t -> 'a entry -> unit) -> unit
(** {!iter} with the full entry exposed (hit and cycle stats). *)

val mean_probes : 'a t -> float
(** Mean subtables probed per lookup since creation. *)
