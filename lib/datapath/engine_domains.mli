(** The real-parallelism execution engine: each PMD context runs on its
    own OCaml [Domain.t], polling a private atomic-cursor XSK over a
    shared umem, classifying against a per-domain EMC, and forwarding
    through a contended ([Mutex.t]-locked) umempool. Misses travel over
    bounded SPSC queues to a single revalidator domain. Throughput is
    wall-clock Mpps — the measured counterpart to {!Engine_vt}'s charged
    virtual cycles. See the [.ml] header and DESIGN.md for the topology
    and memory-model argument. *)

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
  oracles : bool;
      (** arm the per-poll invariant checks (ring cursors, XSK owner,
          upcall-queue bound); the stop-time checks always run *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches,
          merged into [s_latency] at snapshot time *)
  translate : Ovs_packet.Flow_key.t -> bool;
      (** the slow path's verdict for a missed flow: forward or drop *)
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
  templates:Bytes.t array ->
  unit ->
  config
(** @raise Invalid_argument on [n_domains < 1] or an empty template set. *)

type t

val create : config -> t

val start : t -> unit
(** Spawn the injector, PMD, and revalidator domains. They run freely
    until the injector's target is offered and the pipeline drains. *)

val step : t -> int
(** Progress probe: packets delivered since the last probe. The domains
    advance on their own; [step] never blocks. *)

val stop : t -> Engine.stats
(** Join every domain (blocking until the pipeline drains), read the
    run's {!books} and check them, take a frame census of both umems
    ({!Ovs_xsk.Audit.check_frames}), and return final stats. Unbalanced
    books are recorded as their {!Engine.render}. Idempotent. *)

val books : t -> Engine.books
(** The run's books, read after every domain joined: offered packets,
    packets sent from the egress sockets, and the drops — the ingress
    sockets' [xsk.rx_dropped_no_frame] / [xsk.rx_dropped_ring_full] and
    the engine's [domains.verdict_drop], [domains.egress_full],
    [domains.upcall_lost] and [domains.queue_orphaned].
    @raise Invalid_argument before {!stop}. *)

val violations : t -> string list
(** Invariant violations recorded, oldest first: the armed per-poll
    checks' and the stop-time books and frame census. Empty on a clean
    run. Complete only after {!stop}. *)
