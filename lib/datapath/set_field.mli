val apply : Ovs_packet.Buffer.t -> Ovs_packet.Flow_key.t -> Ovs_packet.Flow_key.Field.t -> int -> bool
