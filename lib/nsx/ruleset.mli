type spec = {
  n_vms : int;
  vifs_per_vm : int;
  n_tunnels : int;
  target_rules : int;
  uplink_port : int;
  first_vif_port : int;
  local_vtep : string;
  remote_vteps : string list;
  seed : int;
}
val table3_spec : spec
val n_vifs : spec -> int
val vif_port : spec -> int -> int
val vif_mac : int -> int
val vif_ip : int -> string
val generate : spec -> string list
type stats = {
  rules : int;
  tables_used : int;
  fields_used : int;
  tunnels : int;
  vms : int;
}
val stats_of_pipeline : spec -> Ovs_ofproto.Pipeline.t -> stats
val pp_stats : Format.formatter -> stats -> unit
