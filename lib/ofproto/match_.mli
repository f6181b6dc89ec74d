type t = { key : Ovs_packet.Flow_key.t; mask : Ovs_packet.Flow_key.t; }
val catchall : unit -> t
val with_field : t -> Ovs_packet.Flow_key.Field.t -> int -> t
val with_masked : t -> Ovs_packet.Flow_key.Field.t -> int -> int -> t
val with_prefix : t -> Ovs_packet.Flow_key.Field.t -> int -> int -> t
val matches : t -> Ovs_packet.Flow_key.t -> bool
val fields_used : t -> int
val used_fields : t -> Ovs_packet.Flow_key.Field.t list
val pp : Format.formatter -> t -> unit
