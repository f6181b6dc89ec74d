(** Incremental megaflow revalidation: re-translate in proportion to
    rule churn, not datapath table size.

    The datapath records, per installed megaflow, the rule-dependency
    set collected at translate time ({!record}). On {!sweep} the
    tracker drains the journal each OpenFlow table keeps for it; only
    megaflows whose dependencies could be affected — a matched rule
    removed, an overlapping rule of sufficient priority added to a
    visited table, or a subtable of a visited table created, dropped or
    reprioritised at or above the matched priority — are re-translated,
    and only those whose actions or mask actually changed are evicted
    (via the caller's callback, where the datapath invalidates its
    packet caches). The flush-all re-translate in [Dp_core.revalidate]
    serves as the oracle that the incremental result is identical. *)

module FK = Ovs_packet.Flow_key
module Pipeline = Ovs_ofproto.Pipeline
module Match_ = Ovs_ofproto.Match_

type outcome = Matched of { rule : int; priority : int } | Missed

type dep = { dep_table : int; dep_outcome : outcome }
(** One table consulted during a translation: the rule that matched
    there (by process-global rule id) or the fact that it missed. *)

type sweep_stats = {
  sw_rules_added : int;
  sw_rules_removed : int;
  sw_dirty : int;
  sw_retranslated : int;
  sw_evicted : int;
}

type stats = {
  st_flows : int;
  st_sweeps : int;
  st_rules_added : int;
  st_rules_removed : int;
  st_dirty : int;
  st_retranslated : int;
  st_evicted : int;
}

type 'a t
(** Tracker for megaflows carrying ['a] actions. *)

val create : pipeline:Pipeline.t -> unit -> 'a t
(** Watches every table of the pipeline: the first {!sweep} reads the
    changes made from now on. *)

val close : 'a t -> unit
(** Unwatch the pipeline's tables. A tracker that is dropped without
    [close] keeps collecting changes for as long as its pipeline lives. *)

val record : 'a t -> mask:FK.t -> key:FK.t -> actions:'a -> dep list -> unit
(** Track (or refresh) a megaflow: [key] is a full packet key that
    translated to it, [mask] its megaflow mask, [deps] the dependency
    set collected during that translation. Keys are copied. *)

val forget : 'a t -> mask:FK.t -> key:FK.t -> unit
(** Stop tracking a megaflow the datapath evicted on its own. *)

val clear : 'a t -> unit
(** Drop all tracked megaflows and discard the pending changes. *)

val flows : 'a t -> int
val stats : 'a t -> stats

val cube_overlap : Match_.t -> mask:FK.t -> key:FK.t -> bool
(** Do a rule's match cube and a megaflow's (mask, masked-key) cube
    intersect? Exposed for tests. *)

val sweep :
  'a t ->
  translate:(FK.t -> 'a * FK.t * dep list) ->
  evict:(mask:FK.t -> key:FK.t -> unit) ->
  sweep_stats
(** One revalidation pass: drain the tables' journals, mark dirty
    megaflows, re-translate exactly those, and [evict] the ones whose
    actions or megaflow mask changed. Re-translation is
    proportional to the dirty set; marking tests each megaflow indexed
    under a table that gained rules against every added rule. *)

val render : 'a t -> (string -> unit) -> unit
(** Feed the cumulative counters, one line at a time, through a sink
    (the [dpif/revalidator-show] body). *)
