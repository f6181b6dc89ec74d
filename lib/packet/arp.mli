val payload_len : int
module Op : sig val request : int val reply : int end
type t = { op : int; sha : int; spa : int; tha : int; tpa : int; }
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  op:int -> sha:int -> spa:int -> tha:int -> tpa:int -> unit
