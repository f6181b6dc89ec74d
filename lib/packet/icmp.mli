val header_len : int
module Kind :
  sig
    val echo_reply : int
    val dest_unreachable : int
    val echo_request : int
    val time_exceeded : int
  end
type t = { icmp_type : int; code : int; csum : int; ident : int; seq : int; }
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  icmp_type:int ->
  code:int -> ident:int -> seq:int -> payload_len:int -> unit
