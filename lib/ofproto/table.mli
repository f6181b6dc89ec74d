type 'a rule = {
  id : int;
  priority : int;
  match_ : Match_.t;
  value : 'a;
  cookie : int;
  mutable hits : int;
}
type 'a subtable = {
  mask : Ovs_packet.Flow_key.t;
  tbl : (int, 'a rule list ref) Hashtbl.t;
  mutable max_priority : int;
  mutable rule_count : int;
}
type 'a t = {
  mutable subtables : 'a subtable list;
  mutable rule_count : int;
}
val create : unit -> 'a t
val rule_count : 'a t -> int
val add : 'a t -> ?cookie:int -> priority:int -> Match_.t -> 'a -> unit
val lookup : 'a t -> Ovs_packet.Flow_key.t -> 'a rule option * Ovs_packet.Flow_key.t list
val remove_where : 'a t -> ('a rule -> bool) -> int
val iter : 'a t -> ('a rule -> unit) -> unit
