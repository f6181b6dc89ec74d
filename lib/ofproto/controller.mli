type t = {
  mutable mac_to_port : (int * int) list;
  ports : int list;
  mutable packet_ins : int;
  mutable flow_mods_sent : int;
  mutable xid : int;
}
val create : ports:int list -> t
val feed : t -> bytes -> bytes
