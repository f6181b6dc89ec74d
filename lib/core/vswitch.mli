(** ovs-vswitchd: the top-level switch a user configures.

    Owns the OpenFlow pipeline and the datapath, manages ports (loading
    XDP programs and binding XSKs for AF_XDP physical ports), accepts
    textual flow rules, enforces meters, and models the operational story
    of paper Sec 6: restart-in-place upgrades, and datapath bugs that are
    a host panic under the kernel module but a mere process restart in
    userspace. *)

module Dpif = Ovs_datapath.Dpif

type config = {
  datapath : Dpif.kind;
  kernel : Kernel_compat.version;
  n_tables : int;
}

val default_config : config
(** AF_XDP with every Sec 3.2 optimization, on a kernel-5.3-class host. *)

type crash_outcome = Host_panic | Process_restart of { core_dump : bool }

type t = {
  config : config;
  pipeline : Ovs_ofproto.Pipeline.t;
  mutable dp : Dpif.t;
  mutable port_names : (string * int) list;
  mutable restarts : int;
  mutable crashes : int;
  log : string list ref;
}

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when AF_XDP is requested on a pre-4.18 kernel. *)

val add_port : t -> Ovs_netdev.Netdev.t -> int
(** Attach a device; returns its OpenFlow port number. *)

val port_number : t -> string -> int option

val add_flow : t -> string -> unit

val del_flows : t -> string -> int
(** [del_flows t "in_port=1,tcp"]: non-strict del-flows; stale megaflows
    are evicted by revalidation. Returns rules removed. *)

val dump_flows : ?table:int -> t -> string list
(** ovs-ofctl dump-flows, with hit counters. *)

val dump_megaflows : t -> string list
(** ovs-appctl dpctl/dump-flows: the installed fast-path megaflows. *)

val connect_controller : t -> Ovs_ofproto.Controller.t -> unit
(** Wire a reactive controller to the [controller] action: punted packets
    become PACKET_INs; the controller's FLOW_MODs and PACKET_OUTs are
    applied, with revalidation evicting stale megaflows. *)

val set_meter : t -> ?burst:float -> id:int -> rate_pps:float -> unit -> unit
(** Configure a token-bucket meter for the [meter:N] action (the Sec 6
    QoS stand-in). *)

val meter_stats : t -> id:int -> (int * int) option
(** (passed, dropped) for a configured meter. *)

val set_time : t -> Ovs_sim.Time.ns -> unit
(** Advance the virtual clock (meters refill, conntrack ages). *)

val inject : t -> machine_ctx:Ovs_sim.Cpu.ctx -> Ovs_packet.Buffer.t -> port_no:int -> unit
(** Convenience single-threaded processing: enqueue one packet and poll
    it through the datapath. *)

val restart : t -> unit
(** In-place process restart: configuration survives (rules, meters
    with full buckets, the controller connection), caches and conntrack
    state are rebuilt; the caller re-adds its ports. *)

val inject_datapath_bug : t -> crash_outcome
(** What a datapath bug does under this architecture (Sec 6's Geneve
    parser case): kernel → host panic; eBPF → absorbed by the sandbox;
    userspace → restart with a core dump. *)

val counters : t -> Ovs_datapath.Dp_core.counters
val log : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
