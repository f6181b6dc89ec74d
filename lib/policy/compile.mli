exception Compile_error of string
type mutation =
    Drop_goto
  | Wrong_priority
  | Drop_restore
  | Drop_union_arm
  | Wrong_mod_value
  | Drop_filter
  | Star_off_by_one
val mutation_name : mutation -> string
type rule
type compiled = {
  rules : rule list;
  n_tables : int;
  n_paths : int;
  saved : Ovs_packet.Flow_key.Field.t list;
}
val compile : ?mutation:mutation -> Policy.t -> compiled
val install : compiled -> Ovs_ofproto.Ofconn.t -> unit
val pipeline_of : ?mutation:mutation -> Policy.t -> compiled * Ovs_ofproto.Pipeline.t
