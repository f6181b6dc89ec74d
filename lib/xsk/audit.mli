type tracked = {
  label : string;
  ring : Ring.t;
  mutable prod : int;
  mutable cons : int;
}
val track : string -> Ring.t -> tracked
val check_ring : (string -> unit) -> tracked -> unit
val xsk_rings : Xsk.t array -> (string * Ring.t) list
type census
val census : label:string -> Umempool.t -> (string * Ring.t) list -> census
val check_frames : (string -> unit) -> census -> unit
