(** The real-parallelism execution engine: each PMD context runs on its
    own OCaml [Domain.t], polling a private atomic-cursor XSK over a
    shared umem and running every packet through its own {!Dp_core}
    (EMC, dpcls, actions), forwarding through a contended
    ([Mutex.t]-locked) umempool. A full miss is handled by the PMD
    itself at the end of its burst, by translation over the one shared
    pipeline under a slow-path mutex. Throughput is wall-clock Mpps — the
    measured counterpart to {!Engine_vt}'s charged virtual cycles. See
    the [.ml] header and DESIGN.md for the topology and memory-model
    argument. *)

type config = {
  n_domains : int;  (** PMD domains (an injector rides along) *)
  templates : Bytes.t array;
      (** pre-built wire frames, one per flow; the injector deals them
          round-robin over the queues *)
  frame_len : int;
  target : int;  (** packets the injector offers in total *)
  batch : int;
  lock : Ovs_xsk.Umempool.lock_strategy;
  frames_per_queue : int;
  ring_size : int;
  oracles : bool;
      (** arm the per-poll invariant checks (ring cursors, XSK owner);
          the stop-time checks always run *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches,
          merged into [s_latency] at snapshot time *)
  pipeline : Ovs_ofproto.Pipeline.t;
      (** the OpenFlow tables every PMD's slow path reads; packets
          arrive on port 0 and [output:1] is the egress socket *)
}

val config :
  ?n_domains:int ->
  ?frame_len:int ->
  ?target:int ->
  ?batch:int ->
  ?lock:Ovs_xsk.Umempool.lock_strategy ->
  ?frames_per_queue:int ->
  ?ring_size:int ->
  ?oracles:bool ->
  ?latency:bool ->
  pipeline:Ovs_ofproto.Pipeline.t ->
  templates:Bytes.t array ->
  unit ->
  config
(** @raise Invalid_argument on [n_domains < 1] or an empty template set. *)

type t

val create : config -> t

val start : t -> unit
(** Spawn the injector and PMD domains. They run freely until the
    injector's target is offered and the pipeline drains. *)

val swap_pipeline : t -> Ovs_ofproto.Pipeline.t -> unit
(** The cutover: publish a new pipeline. Each PMD adopts it at the top
    of its next poll with {!Dp_core.swap_pipeline} on its own core,
    revalidating its megaflows. Call it before {!stop}. *)

val step : t -> int
(** Progress probe: packets delivered since the last probe. The domains
    advance on their own; [step] never blocks. *)

val stop : t -> Engine.stats
(** Join every domain (blocking until the pipeline drains), read the
    run's {!books} and check them, take a frame census of both umems
    ({!Ovs_xsk.Audit.check_frames}), check that every PMD core runs the
    last pipeline and that {!Dp_core.revalidate} evicts none of its
    megaflows, and return final stats. Failed checks are recorded as
    violations, unbalanced books as their {!Engine.render}. Idempotent. *)

val books : t -> Engine.books
(** The run's books, read after every domain joined: offered packets,
    packets sent from the egress sockets, and the drops — the ingress
    sockets' [xsk.rx_dropped_no_frame] / [xsk.rx_dropped_ring_full], the
    PMD cores' [dp.dropped] summed, and the engine's
    [domains.egress_full] and [domains.queue_orphaned].
    @raise Invalid_argument before {!stop}. *)

val dump_megaflows : t -> string list
(** The megaflows installed on any PMD core, each once, sorted: the
    {!Dp_core.dump_megaflows} lines without their per-core [packets:] and
    [cycles:] statistics.
    @raise Invalid_argument before {!stop}. *)

val violations : t -> string list
(** Invariant violations recorded, oldest first: the armed per-poll
    checks' and the stop-time books, frame census and stale-megaflow
    check. Empty on a clean run. Complete only after {!stop}. *)
