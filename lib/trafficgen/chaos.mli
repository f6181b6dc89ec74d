type leg = Kernel_leg | Afxdp_leg | Pmd_leg
val leg_name : leg -> string
type spec = {
  s_name : string;
  s_legs : leg list;
  s_plan : Ovs_faults.Faults.plan;
  s_rx_policy : Ovs_netdev.Netdev.rx_policy;
  s_strict : bool;
  s_ct_zone : int option;
}
val catalog : spec list
val leg_config : spec -> leg -> Scenario.config
type row = {
  row_plan : string;
  row_leg : leg;
  row_res : Scenario.chaos_result;
  row_recovered : bool;
  row_latency_ok : bool;
  row_pass : bool;
}
val run_one : spec -> leg -> row
val run_all : unit -> row list
val all_pass : row list -> bool
val render : row list -> string
