type virt = Vm_tap | Vm_vhost | Ct_veth | Ct_xdp | Ct_afpacket
val virt_name : virt -> string
type topology = P2P | PVP of virt | PCP of virt | Chain of virt * int
type result = {
  rate_mpps : float;
  wall_ns : float;
  cpu : Ovs_sim.Cpu.breakdown;
  packets : int;
  line_limited : bool;
  pmds : Ovs_datapath.Pmd.report list;
  busy_ns : float;
  stage_trace : Ovs_sim.Trace.t option;
}
val pp_result : Format.formatter -> result -> unit
type cache_mode = Cache_default | Cache_none | Cache_smc_only | Cache_emc_smc
type config = {
  kind : Ovs_datapath.Dpif.kind;
  topology : topology;
  n_flows : int;
  frame_len : int;
  queues : int;
  gbps : float;
  warmup : int;
  measure : int;
  cache : cache_mode;
  ccache : bool;
  mix : Pktgen.mix;
  n_pmds : int;
  trace : bool;
  faults : Ovs_faults.Faults.plan option;
  rx_policy : Ovs_netdev.Netdev.rx_policy;
  strict_match : bool;
  ct_zone : int option;
  latency : bool;
  offered_mpps : float;
  burst : Pktgen.onoff option;
}
val default_config : config
val config :
  ?kind:Ovs_datapath.Dpif.kind ->
  ?topology:topology ->
  ?n_flows:int ->
  ?frame_len:int ->
  ?queues:int ->
  ?gbps:float ->
  ?warmup:int ->
  ?measure:int ->
  ?cache:cache_mode ->
  ?ccache:bool ->
  ?mix:Pktgen.mix ->
  ?n_pmds:int ->
  ?trace:bool ->
  ?faults:Ovs_faults.Faults.plan option ->
  ?rx_policy:Ovs_netdev.Netdev.rx_policy ->
  ?strict_match:bool ->
  ?ct_zone:int option ->
  ?latency:bool ->
  ?offered_mpps:float -> ?burst:Pktgen.onoff option -> unit -> config
type rig = {
  r_cfg : config;
  r_machine : Ovs_sim.Cpu.t;
  r_dp : Ovs_datapath.Dpif.t;
  r_phy0 : Ovs_netdev.Netdev.t;
  r_phy1 : Ovs_netdev.Netdev.t;
  r_p0 : int;
  r_p1 : int;
  r_queues : int;
  r_opts : Ovs_datapath.Dpif.afxdp_opts;
  r_sirq : Ovs_sim.Cpu.ctx array;
  r_rt : Ovs_datapath.Pmd.t option;
  r_guest : Ovs_sim.Cpu.ctx;
  r_vdevs : (Ovs_netdev.Netdev.t * int) list;
  r_pmd_v : Ovs_sim.Cpu.ctx option;
  r_loadgen : Ovs_sim.Cpu.ctx option;
  r_gen : Pktgen.t;
  r_eng : Ovs_datapath.Engine_vt.t;
}
val setup : config -> rig
val poll_sweep : rig -> unit
val in_flight : rig -> int
module Ledger :
  sig
    type t = {
      phase : string;
      base : (string * int) list;
      tx0 : int;
      mutable offered : int;
      mutable rejected : int;
    }
    val open_ : rig -> string -> t
    val offer : t -> rig -> Ovs_packet.Buffer.t -> unit
    val diff : t -> rig -> Ovs_datapath.Engine.books
  end
type pace = {
  want : int -> int;
  arrive : unit -> unit;
  settle : w0:float -> int -> unit;
}
val quiesce : rig -> unit
val reset : rig -> string -> Ledger.t
val drive : ?ledger:Ledger.t -> rig -> int -> unit
val measure_latency :
  rig -> ?rate_pps:float -> int -> int * Ovs_sim.Quantiles.t
val ndr_probe : rig -> rate_pps:float -> int -> Ndr.probe_result
val domains_config :
  ?oracles:bool ->
  ?lock:Ovs_xsk.Umempool.lock_strategy ->
  ?frames_per_queue:int ->
  ?ring_size:int ->
  config ->
  n_domains:int -> Ovs_datapath.Engine_domains.config
val run_multicore :
  ?oracles:bool ->
  ?lock:Ovs_xsk.Umempool.lock_strategy ->
  ?frames_per_queue:int ->
  ?ring_size:int ->
  config -> n_domains:int -> unit -> Ovs_datapath.Engine.stats * string list
val run : config -> result
type chaos_result = {
  c_plan : string;
  c_baseline_mpps : float;
  c_faulted_mpps : float;
  c_post_mpps : float;
  c_recovery_ns : float option;
  c_restarts : int;
  c_repairs : int;
  c_fired : (string * int) list;
  c_health : string;
  c_latency_count : int;
  c_ledger : Ovs_datapath.Engine.books;
}
val fault_tick : rig -> now:float -> unit
val run_chaos : config -> Ovs_faults.Faults.plan -> chaos_result
type churn_event = {
  e_at_s : float;
  e_label : string;
  e_flow_mods : int;
  e_dirty : int;
  e_retx : int;
  e_evicted : int;
  e_divergences : int;
  e_upcalls : int;
}
type reconfig_result = {
  rc_plan : string;
  rc_leg : string;
  rc_events : churn_event list;
  rc_flow_mods : int;
  rc_ovsdb_rows : int;
  rc_divergences : int;
  rc_upcalls : int;
  rc_upgrade : Ovs_ofproto.Reconfig.upgrade_report option;
  rc_lat_count : int;
  rc_p50_ns : float;
  rc_p99_ns : float;
  rc_ledger : Ovs_datapath.Engine.books;
}
val run_reconfig :
  ?naive_window:int -> config -> Ovs_ofproto.Reconfig.plan -> reconfig_result
val run_reconfig_multicore :
  ?n_domains:int ->
  config ->
  flows_before:string list ->
  flows_after:string list -> unit -> Ovs_datapath.Engine.stats * string list * int
