type virt = Tap | Vhost | Veth | Xdp_redirect
type datapath = Dp_kernel | Dp_afxdp_interrupt | Dp_afxdp_poll
type offloads = { csum : bool; tso : bool; }
type config = {
  datapath : datapath;
  virt : virt;
  offloads : offloads;
  cross_host : bool;
  link_gbps : float;
}
type result = {
  gbps : float;
  segment_bytes : int;
  bottleneck : string;
  stages : (string * float) list;
}
val run : Ovs_sim.Costs.t -> config -> result
val pp_result : Format.formatter -> result -> unit
val figure8_bars : (string * config * float) list
