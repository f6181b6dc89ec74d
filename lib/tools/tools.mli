type outcome = Ok_output of string | Not_supported of string
val is_ok : outcome -> bool
val ip_link : Ovs_netdev.Netdev.t -> outcome
val ip_link_set : Ovs_netdev.Netdev.t -> up:bool -> outcome
val ip_address_add : Ovs_netdev.Netdev.t -> addr:int -> outcome
val ip_address_show : Ovs_netdev.Netdev.t -> outcome
module Route :
  sig
    type entry = { prefix : int; prefix_len : int; via : int; dev : string; }
    type t = { mutable entries : entry list; }
    val create : unit -> t
    val add :
      t -> prefix:int -> prefix_len:int -> via:int -> dev:string -> unit
    val lookup : t -> int -> entry option
  end
module Neigh :
  sig
    type t = { tbl : (int, int) Hashtbl.t; }
    val create : unit -> t
    val learn : t -> ip:int -> mac:int -> unit
    val lookup : t -> int -> int option
  end
val ping :
  Ovs_netdev.Netdev.t ->
  src_ip:int ->
  dst_ip:int ->
  responder:(Ovs_packet.Buffer.t -> Ovs_packet.Buffer.t option) -> outcome
val arping :
  Ovs_netdev.Netdev.t ->
  src_ip:int ->
  dst_ip:int ->
  responder:(Ovs_packet.Buffer.t -> Ovs_packet.Buffer.t option) -> outcome
val nstat : Ovs_netdev.Netdev.t -> outcome
val tcpdump : Ovs_netdev.Netdev.t -> count:int -> outcome
val tcpdump_pcap : Ovs_netdev.Netdev.t -> now:float -> count:int -> outcome
val compatibility_matrix : unit -> (string * bool * bool * bool) list
val pmd_stats_show : Ovs_datapath.Pmd.report list -> string
val pmd_rxq_show : Ovs_datapath.Pmd.report list -> string
val coverage_show : ?nonzero:bool -> unit -> string
val packet_of_flow_spec : string -> Ovs_packet.Buffer.t
val appctl :
  ?pmds:Ovs_datapath.Pmd.report list ->
  ?dp:Ovs_datapath.Dpif.t ->
  ?health:Ovs_datapath.Health.t -> ?upgrade:Ovs_ofproto.Reconfig.upgrade_report -> string -> outcome
