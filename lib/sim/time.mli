type ns = float
(** A duration or instant, in nanoseconds. *)

val us : float -> ns
val ms : float -> ns
val s : float -> ns
val to_us : ns -> float

val cycles : float -> ns
(** A cost in CPU cycles, at the modelled 2.4 GHz. *)

val rate_pps : per_packet:ns -> float
(** Packets per second at a per-packet cost; infinite at [0.]. *)

val per_packet_of_pps : float -> ns
val pp_rate : Format.formatter -> float -> unit
val pp_ns : Format.formatter -> ns -> unit
