type t = {
  tables : Action.t list Table.t array;
  mac_table : (int * int, int) Hashtbl.t;
  mutable ports : int list;
  mutable translations : int;
  mutable table_misses : int;
}
val create : ?n_tables:int -> unit -> t
val n_tables : t -> int
val set_ports : t -> int list -> unit
val add_flow :
  t ->
  ?table:int ->
  ?cookie:int -> priority:int -> Match_.t -> Action.t list -> unit
val flow_count : t -> int
val tables_used : t -> int
type result = {
  odp_actions : Action.odp list;
  megaflow_mask : Ovs_packet.Flow_key.t;
  tables_visited : int;
}
val translate :
  t ->
  ?start_table:int ->
  ?log:(int -> Action.t list Table.rule option -> unit) -> Ovs_packet.Flow_key.t -> result
val del_flows : ?table:int -> t -> Match_.t -> int
val dump_flows : ?table:int -> t -> string list
