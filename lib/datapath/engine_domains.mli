(** The real-parallelism execution engine: each PMD context runs on its
    own OCaml [Domain.t], polling a private atomic-cursor XSK over a
    shared umem, classifying against a per-domain EMC, and forwarding
    through a contended ([Mutex.t]-locked) umempool. Misses travel over
    bounded SPSC queues to a single revalidator domain. Throughput is
    wall-clock Mpps — the measured counterpart to {!Engine_vt}'s charged
    virtual cycles. See the [.ml] header and DESIGN.md for the topology
    and memory-model argument. *)

type ct_opts = {
  ct_zone : int;
  ct_limit : int option;
      (** per-zone cap (nf_conncount), enforced across the per-PMD
          private tables at {!stop} via [evict_to_limit_multi] *)
  ct_sweep_budget : int;
      (** bounded-expiry work per poll iteration (entries examined) *)
}
(** Per-PMD connection tracking: each PMD domain owns a private
    [Ovs_conntrack.Conntrack.t] — no locks on the hit path. *)

type config = {
  n_domains : int;  (** PMD domains (an injector and a revalidator ride along) *)
  templates : Bytes.t array;
      (** pre-built wire frames, one per flow; the injector deals them
          round-robin over the queues *)
  frame_len : int;
  target : int;  (** packets the injector offers in total *)
  batch : int;
  lock : Ovs_xsk.Umempool.lock_strategy;
  frames_per_queue : int;
  ring_size : int;
  upcall_capacity : int;  (** per-PMD bound on the upcall queue *)
  emc_entries : int;
  oracles : bool;  (** arm the runtime invariant assertions *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches,
          merged into [s_latency] at snapshot time *)
  translate : Ovs_packet.Flow_key.t -> bool;
      (** the slow path's verdict for a missed flow: forward or drop *)
  ct : ct_opts option;
      (** arm per-PMD connection tracking; [None] (default) creates no
          tables and adds no per-packet work *)
}

val config :
  ?n_domains:int ->
  ?frame_len:int ->
  ?target:int ->
  ?batch:int ->
  ?lock:Ovs_xsk.Umempool.lock_strategy ->
  ?frames_per_queue:int ->
  ?ring_size:int ->
  ?upcall_capacity:int ->
  ?emc_entries:int ->
  ?oracles:bool ->
  ?latency:bool ->
  ?translate:(Ovs_packet.Flow_key.t -> bool) ->
  ?ct:ct_opts ->
  templates:Bytes.t array ->
  unit ->
  config
(** @raise Invalid_argument on [n_domains < 1] or an empty template set. *)

type t

val name : string
val create : config -> t

val start : t -> unit
(** Spawn the injector, PMD, and revalidator domains. They run freely
    until the injector's target is offered and the pipeline drains. *)

val step : t -> int
(** Progress probe: packets delivered since the last probe. The domains
    advance on their own; [step] never blocks. *)

val stats : t -> Engine.stats
(** Live snapshot before {!stop}; the final readout after. *)

val stop : t -> Engine.stats
(** Join every domain (blocking until the pipeline drains), then run the
    quiescent-state oracles (frame and packet conservation) if armed,
    and return final stats. Idempotent. *)

val violations : t -> string list
(** Invariant violations the armed oracles recorded, oldest first. Empty
    on a clean run. Complete only after {!stop}. *)

val ct_conns : t -> int
(** Total tracked connections across the per-PMD private tables (0 when
    [ct] is unarmed). Exact after {!stop}; a racy probe before. *)
