type hop = { hop_name : string; fixed : float; jitter : float; }
type config = Rr_kernel | Rr_afxdp | Rr_dpdk
val config_name : config -> string
type result = {
  p50_us : float;
  p90_us : float;
  p99_us : float;
  transactions_per_s : float;
}
val interhost_path : Ovs_sim.Costs.t -> config -> hop list
val intrahost_container_path : Ovs_sim.Costs.t -> config -> hop list
val run : ?n:int -> ?seed:int -> hop list -> result
val pp_result : Format.formatter -> result -> unit
