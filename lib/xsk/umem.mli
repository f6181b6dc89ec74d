type t = {
  frame_size : int;
  frame_headroom : int;
  n_frames : int;
  data : bytes;
  fill : Ring.t;
  completion : Ring.t;
  birth : float array;
  empty : Ring.desc array;
}
val create :
  ?frame_size:int ->
  ?frame_headroom:int -> n_frames:int -> ring_size:int -> unit -> t
val frame_offset : t -> int -> int
val empty_desc : t -> int -> Ring.desc
val frame_capacity : t -> int
val set_birth : t -> int -> float -> unit
val birth : t -> int -> float
val dma_into_frame : t -> int -> bytes -> src_off:int -> len:int -> unit
val buffer_of_frame : t -> int -> len:int -> Ovs_packet.Buffer.t
