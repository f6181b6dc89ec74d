val header_len : int
type addr = { hi : int64; lo : int64; }
val addr_of_int : int -> addr
type t = {
  tclass : int;
  flow_label : int;
  payload_len : int;
  next_header : int;
  hop_limit : int;
  src : addr;
  dst : addr;
}
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  ?tclass:int ->
  ?flow_label:int ->
  ?hop_limit:int ->
  next_header:int -> src:addr -> dst:addr -> payload_len:int -> unit -> unit
