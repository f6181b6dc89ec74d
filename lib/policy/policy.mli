type pred =
    True
  | False
  | Test of Ovs_packet.Flow_key.Field.t * int * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
type t =
    Filter of pred
  | Mod of Ovs_packet.Flow_key.Field.t * int
  | Union of t * t
  | Seq of t * t
  | Star of int * t
val test : Ovs_packet.Flow_key.Field.t -> int -> pred
val test_masked : Ovs_packet.Flow_key.Field.t -> int -> int -> pred
val test_prefix : Ovs_packet.Flow_key.Field.t -> int -> int -> pred
val fwd : int -> t
val seq : t list -> t
val union : t list -> t
val eval : t -> Ovs_packet.Flow_key.t -> Ovs_packet.Flow_key.t list
val atoms : t -> (Ovs_packet.Flow_key.Field.t * int * int) list
val mods : t -> (Ovs_packet.Flow_key.Field.t * int) list
val modified_fields : t -> Ovs_packet.Flow_key.Field.t list
val pp_value : Ovs_packet.Flow_key.Field.t -> int -> string
val pp : Format.formatter -> t -> unit
