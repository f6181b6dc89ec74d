val header_len : int
val vlan_header_len : int
val min_frame : int
module Ethertype :
  sig
    val ipv4 : int
    val arp : int
    val vlan : int
    val ipv6 : int
    val to_string : int -> string
  end
type t = {
  dst : int;
  src : int;
  eth_type : int;
  vlan_tci : int;
  payload_ofs : int;
}
val vlan_vid : int -> int
val vlan_pcp : int -> int
val parse : Buffer.t -> t option
val write : Buffer.t -> dst:int -> src:int -> eth_type:int -> unit
val set_dst : Buffer.t -> int -> unit
val set_src : Buffer.t -> int -> unit
val get_dst : Buffer.t -> int
val get_src : Buffer.t -> int
val push_vlan : Buffer.t -> tci:int -> unit
val pop_vlan : Buffer.t -> unit
