type tunnel_md = { tun_id : int; tun_src : int; tun_dst : int; }
type offload_flags
type t = {
  mutable data : bytes;
  mutable start : int;
  mutable len : int;
  mutable in_port : int;
  mutable rss_hash : int;
  mutable l3_ofs : int;
  mutable l4_ofs : int;
  mutable recirc_id : int;
  mutable ct_state : int;
  mutable ct_zone : int;
  mutable ct_mark : int;
  mutable tunnel : tunnel_md option;
  mutable birth_ns : float;
  regs : int array;
  offload : offload_flags;
}
val fresh_offload : unit -> offload_flags
val fresh_regs : unit -> int array
val create : ?headroom:int -> size:int -> unit -> t
val of_bytes : ?headroom:int -> bytes -> t
val length : t -> int
val reset_metadata : t -> unit
val abs : t -> int -> int
val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val push : t -> int -> unit
val pull : t -> int -> unit
val put : t -> int -> unit
val clone : t -> t
val copy_live : t -> t
val contents : t -> bytes
