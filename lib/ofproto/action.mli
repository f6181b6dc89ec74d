type nat_spec = { snat : (int * int) option; dnat : (int * int) option; }
type tunnel_spec = {
  tnl_kind : Ovs_packet.Tunnel.kind;
  vni : int;
  remote_ip : int;
  local_ip : int;
  remote_mac : int;
  local_mac : int;
  out_port : int;
}
type t =
    Output of int
  | In_port_output
  | Normal
  | Flood
  | Drop
  | Set_field of Ovs_packet.Flow_key.Field.t * int
  | Move of Ovs_packet.Flow_key.Field.t * Ovs_packet.Flow_key.Field.t
  | Push_vlan of int
  | Pop_vlan
  | Tunnel_push of tunnel_spec
  | Tunnel_pop of int
  | Ct of { zone : int; commit : bool; nat : nat_spec option;
      table : int option;
    }
  | Goto_table of int
  | Meter of int
  | Controller
type odp =
    Odp_output of int
  | Odp_drop
  | Odp_set of Ovs_packet.Flow_key.Field.t * int
  | Odp_push_vlan of int
  | Odp_pop_vlan
  | Odp_tnl_push of tunnel_spec
  | Odp_tnl_pop of int
  | Odp_ct of { zone : int; commit : bool; nat : nat_spec option;
      resume_table : int;
    }
  | Odp_meter of int
  | Odp_userspace
val pp : Format.formatter -> t -> unit
val pp_odp : Format.formatter -> odp -> unit
