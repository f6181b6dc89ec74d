val header_len : int
module Proto :
  sig
    val icmp : int
    val tcp : int
    val udp : int
    val gre : int
    val to_string : int -> string
  end
type t = {
  ihl : int;
  tos : int;
  total_len : int;
  ident : int;
  flags : int;
  frag_off : int;
  ttl : int;
  proto : int;
  csum : int;
  src : int;
  dst : int;
}
val addr_of_string : string -> int
val addr_to_string : int -> string
val is_fragment : t -> bool
val is_later_fragment : t -> bool
val parse : Buffer.t -> t option
val write :
  Buffer.t ->
  ?tos:int ->
  ?ident:int ->
  ?flags:int ->
  ?ttl:int ->
  ?csum:int ->
  proto:int -> src:int -> dst:int -> total_len:int -> unit -> unit
val update_csum : Buffer.t -> unit
val set_tos : Buffer.t -> int -> unit
val set_ttl : Buffer.t -> int -> unit
val set_src : Buffer.t -> int -> unit
val set_dst : Buffer.t -> int -> unit
