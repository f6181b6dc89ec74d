val udp :
  ?frame_len:int ->
  ?src_mac:int ->
  ?dst_mac:int ->
  ?src_ip:int ->
  ?dst_ip:int ->
  ?src_port:int ->
  ?dst_port:int -> ?fill_csum:bool -> ?ttl:int -> unit -> Buffer.t
val tcp :
  ?payload_len:int ->
  ?src_mac:int ->
  ?dst_mac:int ->
  ?src_ip:int ->
  ?dst_ip:int ->
  ?src_port:int ->
  ?dst_port:int ->
  ?flags:int ->
  ?seq:int -> ?ack:int -> ?fill_csum:bool -> unit -> Buffer.t
val icmp :
  ?src_mac:int ->
  ?dst_mac:int ->
  ?src_ip:int ->
  ?dst_ip:int ->
  ?icmp_type:int ->
  ?ident:int -> ?seq:int -> ?payload_len:int -> unit -> Buffer.t
val icmp_error :
  ?icmp_type:int ->
  ?code:int ->
  ?src_mac:int ->
  ?dst_mac:int ->
  src_ip:int -> offending:Buffer.t -> unit -> Buffer.t
val arp :
  ?src_mac:int ->
  ?dst_mac:int ->
  ?op:int -> spa:int -> tpa:int -> unit -> Buffer.t
