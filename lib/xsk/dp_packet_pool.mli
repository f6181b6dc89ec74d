type mode = Per_packet_alloc | Preallocated
type t = { mode : mode; mutable allocations : int; }
val create : mode:mode -> t
val metadata_cost : t -> Ovs_sim.Costs.t -> float
val acquire : t -> unit
