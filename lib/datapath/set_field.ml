(** Applying [set_field] datapath actions to real packet bytes. The flow
    key is updated in step so recirculated lookups see the rewrite. *)

module FK = Ovs_packet.Flow_key
open Ovs_packet

(** Apply one field rewrite. Returns [true] if the L3/L4 checksums need
    refreshing (the caller decides whether hardware offload absorbs it). *)
let apply (buf : Buffer.t) (key : FK.t) (field : FK.Field.t) (v : int) : bool =
  FK.set key field v;
  match field with
  | FK.Field.Dl_src ->
      Ethernet.set_src buf v;
      false
  | FK.Field.Dl_dst ->
      Ethernet.set_dst buf v;
      false
  | FK.Field.Nw_src ->
      Ipv4.set_src buf v;
      true
  | FK.Field.Nw_dst ->
      Ipv4.set_dst buf v;
      true
  | FK.Field.Nw_ttl ->
      Ipv4.set_ttl buf v;
      true
  | FK.Field.Tp_src ->
      (if FK.get key FK.Field.Nw_proto = Ipv4.Proto.tcp then
         Tcp.set_src_port buf v
       else Udp.set_src_port buf v);
      true
  | FK.Field.Tp_dst ->
      (if FK.get key FK.Field.Nw_proto = Ipv4.Proto.tcp then
         Tcp.set_dst_port buf v
       else Udp.set_dst_port buf v);
      true
  | FK.Field.Ct_mark ->
      buf.Buffer.ct_mark <- v;
      false
  | FK.Field.Reg0 ->
      buf.Buffer.regs.(0) <- v;
      false
  | FK.Field.Reg1 ->
      buf.Buffer.regs.(1) <- v;
      false
  | FK.Field.Reg2 ->
      buf.Buffer.regs.(2) <- v;
      false
  | FK.Field.Reg3 ->
      buf.Buffer.regs.(3) <- v;
      false
  | FK.Field.Reg4 ->
      buf.Buffer.regs.(4) <- v;
      false
  | FK.Field.Reg5 ->
      buf.Buffer.regs.(5) <- v;
      false
  | FK.Field.Reg6 ->
      buf.Buffer.regs.(6) <- v;
      false
  | FK.Field.Reg7 ->
      buf.Buffer.regs.(7) <- v;
      false
  | FK.Field.Vlan_tci | FK.Field.In_port | FK.Field.Recirc_id
  | FK.Field.Dl_type | FK.Field.Nw_proto | FK.Field.Nw_tos | FK.Field.Nw_frag
  | FK.Field.Tcp_flags | FK.Field.Tun_id | FK.Field.Tun_src | FK.Field.Tun_dst
  | FK.Field.Ct_state | FK.Field.Ct_zone | FK.Field.Ip6_src_hi
  | FK.Field.Ip6_src_lo | FK.Field.Ip6_dst_hi | FK.Field.Ip6_dst_lo
  | FK.Field.Ip6_src_mid | FK.Field.Ip6_dst_mid ->
      (* metadata-only or unsupported rewrites: key update is enough *)
      false
