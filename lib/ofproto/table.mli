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
