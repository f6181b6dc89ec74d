(** One OpenFlow table: a priority-aware tuple-space classifier over the
    {!Ovs_flow.Subtable} core. *)

type 'a rule = {
  id : int;
  priority : int;
  match_ : Match_.t;
  value : 'a;
  cookie : int;
  mutable hits : int;
}
type 'a t
val create : unit -> 'a t
val rule_count : 'a t -> int
val add : 'a t -> ?cookie:int -> priority:int -> Match_.t -> 'a -> unit

val lookup : 'a t -> Ovs_packet.Flow_key.t -> wc:Ovs_packet.Flow_key.t -> 'a rule option
(** The highest-priority rule matching the key, newest first among equal
    priorities, with its hit counted. Subtables are probed by descending
    max priority (the newest first among equals) while one can still beat
    the best match so far, and each probed subtable's mask is ORed into
    [wc], the caller's megaflow mask. *)

val probes : 'a t -> int
(** Subtables probed by every lookup so far. *)

val remove_where : 'a t -> ('a rule -> bool) -> int
val iter : 'a t -> ('a rule -> unit) -> unit

(** What [add] and [remove_where] append to each watching reader's
    journal: every rule added or removed, and [Threshold p] whenever a
    subtable is created or dropped or its max priority moves, [p] being
    the larger of the old and new max: a lookup whose best match has
    priority at most [p] may now probe a different set of subtables. *)
type 'a change = Added of 'a rule | Removed of 'a rule | Threshold of int

val watch : 'a t -> 'a change Queue.t
(** A new reader's journal: every later change is appended to it, in
    order. The reader drains it; a table nobody watches records nothing. *)

val unwatch : 'a t -> 'a change Queue.t -> unit
(** Stop appending to a journal {!watch} returned. *)
