type t = {
  pipeline : Pipeline.t;
  datapath_id : int64;
  mutable hello_received : bool;
  mutable flow_mods : int;
  mutable errors : int;
}
val create : ?datapath_id:int64 -> pipeline:Pipeline.t -> unit -> t
val handle_msg : t -> xid:int -> Ofp_codec.msg -> (int * Ofp_codec.msg) list
val feed : t -> bytes -> bytes
