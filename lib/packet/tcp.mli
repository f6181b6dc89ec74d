val header_len : int
module Flags :
  sig
    val fin : int
    val syn : int
    val rst : int
    val psh : int
    val ack : int
  end
type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  data_ofs : int;
  flags : int;
  window : int;
  csum : int;
}
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  ?fill_csum:bool ->
  ?seq:int ->
  ?ack:int ->
  ?window:int ->
  src_port:int ->
  dst_port:int ->
  flags:int -> ip_src:int -> ip_dst:int -> payload_len:int -> unit -> unit
val set_src_port : Buffer.t -> int -> unit
val set_dst_port : Buffer.t -> int -> unit
