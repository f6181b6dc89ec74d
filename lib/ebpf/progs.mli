val xsk_default : xskmap:Maps.t -> Insn.t array
val pass_all : Insn.t array
val task_a : Insn.t array
val task_b : Insn.t array
val task_c : l2_table:Maps.t -> Insn.t array
val task_d : Insn.t array
val l4_load_balancer : sessions:Maps.t -> xskmap:Maps.t -> Insn.t array
val veth_redirect : mac_to_dev:Maps.t -> Insn.t array
val steer_control : xskmap:Maps.t -> Insn.t array
val all :
  l2_table:Maps.t ->
  sessions:Maps.t ->
  xskmap:Maps.t -> mac_to_dev:Maps.t -> (string * Insn.t array) list
