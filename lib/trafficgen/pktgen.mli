type mix = Uniform | Zipf of float
type onoff = { on_packets : int; off_ns : float; }
type churn = { flows_per_s : float; }
type t = {
  templates : Ovs_packet.Buffer.t array;
  seed : int;
  mix : mix;
  rank_of : int array;
  cdf : float array;
  init_draws : int;
  mutable prng : Ovs_sim.Prng.t;
  mutable sent : int;
  churn : churn option;
  slot_src : int array;
  slot_dst : int array;
  gens : int array;
  frame_len : int;
  dst_mac : int;
}
val create :
  ?seed:int ->
  ?dst_mac:int ->
  ?mix:mix -> ?churn:churn -> n_flows:int -> frame_len:int -> unit -> t
val slot_lifetime_ns : t -> float
val churn_tick : t -> now:float -> int list
val reset : t -> unit
val next : ?birth_ns:float -> t -> Ovs_packet.Buffer.t
val queues_hit : t -> n_queues:int -> int
