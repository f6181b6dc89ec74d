exception Check_error of string
type emission
type divergence = {
  d_key : Ovs_packet.Flow_key.t;
  d_policy : emission list;
  d_compiled : emission list;
}
type result = Proved of int | Divergent of divergence
val concrete_emissions : Ovs_ofproto.Pipeline.t -> Ovs_packet.Flow_key.t -> (int * Ovs_packet.Flow_key.t) list
val check : ?ports:int list -> Policy.t -> Ovs_ofproto.Pipeline.t -> result
val render_key : Ovs_packet.Flow_key.t -> string
val render_divergence : divergence -> string
