val header_len : int
type t = { src_port : int; dst_port : int; len : int; csum : int; }
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  ?fill_csum:bool ->
  src_port:int ->
  dst_port:int -> len:int -> ip_src:int -> ip_dst:int -> unit -> unit
val set_src_port : Buffer.t -> int -> unit
val set_dst_port : Buffer.t -> int -> unit
