type t = {
  umem : Umem.t;
  pool : Umempool.t;
  rx : Ring.t;
  tx : Ring.t;
  fill : Ring.t;
  comp : Ring.t;
  queue_id : int;
  mutable rx_delivered : int;
  mutable rx_dropped_no_frame : int;
  mutable rx_dropped_ring_full : int;
  mutable tx_sent : int;
  mutable kicks : int;
  mutable owner_pmd : int;
  fill_target : int;
}
val create :
  ?ring_size:int ->
  ?fill_target:int ->
  ?atomic:bool -> umem:Umem.t -> pool:Umempool.t -> queue_id:int -> unit -> t
val set_owner : t -> pmd:int -> unit
val owner : t -> int
val refill : t -> int -> int
val kernel_rx : ?birth_ns:float -> ?off:int -> t -> bytes -> len:int -> bool
val rx_burst : t -> max:int -> (int * Ovs_packet.Buffer.t) list
val tx : t -> frame:int -> len:int -> bool
val flush_tx : t -> int
val release : t -> frame:int -> unit
val release_batch : t -> int list -> unit
