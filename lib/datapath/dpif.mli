(** The datapath interface: one engine, four flavors.

    [Kernel] is the traditional openvswitch.ko module; [Kernel_ebpf] the
    paper's Sec 2.2.2 eBPF prototype; [Dpdk] the all-userspace OVS-DPDK;
    [Afxdp] the paper's contribution, with every Sec 3.2 optimization as a
    switch. The engine moves real packets through real caches and rings,
    charging calibrated virtual time to the supplied execution contexts;
    experiments read throughput as packets over the bottleneck context's
    busy time and CPU usage from the context breakdown.

    [t] is abstract: consumers ([Vswitch], [Scenario], the PMD runtime,
    tests) go through the accessor and command functions below rather
    than reaching into datapath state. *)

type afxdp_opts = {
  pmd_threads : bool;  (** O1: dedicated poll-mode threads *)
  lock : Ovs_xsk.Umempool.lock_strategy;  (** O2/O3 *)
  metadata : Ovs_xsk.Dp_packet_pool.mode;  (** O4 *)
  csum_offload : bool;  (** O5: emulated checksum offload *)
  copy_mode : bool;  (** XDP_SKB universal fallback (extra copy) *)
  batch_size : int;
  frames_per_queue : int;
      (** umem frames allocated per rx queue (default 4096). The schedule
          explorer shrinks this so rebuilding a model per explored
          schedule stays cheap. *)
}

val afxdp_default : afxdp_opts
(** The fully optimized configuration (the merged upstream default). *)

val afxdp_ladder : (string * afxdp_opts) list
(** Table 2's cumulative optimization levels, "none" through O1..O5. *)

type kind = Kernel | Kernel_ebpf | Dpdk | Afxdp of afxdp_opts

val kind_name : kind -> string

(** How a port is attached to this datapath. *)
type attach =
  | At_phy_kernel  (** kernel driver rx/tx in softirq *)
  | At_phy_dpdk  (** userspace PMD driver *)
  | At_phy_xsk of {
      xsks : Ovs_xsk.Xsk.t array;  (** one per queue *)
      pool : Ovs_xsk.Umempool.t;
      mutable prog : Ovs_ebpf.Xdp.t;  (** replaceable without restarting *)
    }
  | At_tap
  | At_vhost
  | At_veth

type port = { dev : Ovs_netdev.Netdev.t; attach : attach; port_no : int }

type t

val create :
  ?costs:Ovs_sim.Costs.t -> kind:kind -> pipeline:Ovs_ofproto.Pipeline.t -> unit -> t

val add_port : t -> Ovs_netdev.Netdev.t -> int
(** Attach a device (attachment inferred from its kind and the datapath
    flavor; AF_XDP physical ports get a umem, per-queue XSKs and the
    default redirect program). Returns the port number. *)

(** {1 Read accessors} *)

val kind : t -> kind

val afxdp_opts : t -> afxdp_opts
(** The AF_XDP option block ([afxdp_default] for other kinds). *)

val port : t -> int -> port option

val ports : t -> port list
(** All ports, in add order. *)

val xsks : t -> port_no:int -> Ovs_xsk.Xsk.t array option
(** Per-queue XSK sockets of an AF_XDP physical port (for the PMD runtime
    to claim ring ownership), or [None] for other attachments. *)

val umem_pool : t -> port_no:int -> Ovs_xsk.Umempool.t option
(** The umem pool behind an AF_XDP physical port (for health monitoring
    and frame-leak repair), or [None] for other attachments. *)

val conntrack : t -> Ovs_conntrack.Conntrack.t

val counters : t -> Dp_core.counters

val serialized_tx : t -> Ovs_sim.Time.ns
(** Accumulated kernel tx-queue critical-section time: a rate floor the
    harness applies to the wall time in multiqueue runs. *)

val latency : t -> Ovs_sim.Quantiles.t
(** Per-packet sojourn-time sketch (ns, ingress stamp to egress). Filled
    by {!record_latency}; empty unless the traffic rig arms latency
    measurement. Reset by {!reset_measurement}. *)

val record_latency : t -> now:float -> Ovs_packet.Buffer.t -> unit
(** Record one {e delivered} packet's sojourn time ([now] minus its
    [birth_ns] ingress stamp) into {!latency}. Unstamped packets
    ([birth_ns < 0]) record nothing, so dropped packets never leak
    samples — call this only from an egress sink. *)

(** {1 Polling} *)

val poll :
  t ->
  softirq:Ovs_sim.Cpu.ctx ->
  pmd:Ovs_sim.Cpu.ctx ->
  ?max:int ->
  port_no:int ->
  queue:int ->
  unit ->
  int
(** Poll one port's queue and run every dequeued packet through the
    datapath: kernel-side work (driver, XDP, XSK delivery) charges
    [softirq]; userspace work charges [pmd]. Returns packets seen. *)

(** {1 Commands} *)

val set_active_queues : t -> int -> unit
(** How many receive queues carry traffic (drives the kernel's multiqueue
    contention model). *)

val set_xdp_program : t -> port_no:int -> Ovs_ebpf.Xdp.t -> unit
(** Swap the XDP program on an AF_XDP physical port without restarting
    OVS (Secs 3.4/3.5). *)

val set_emc_enabled : t -> bool -> unit
val set_smc_enabled : t -> bool -> unit
(** Ablation switches for the microflow caches (Table 2 ladder). *)

(** {1 The computational cache (learned classifier tier, lib/nmu)} *)

val set_ccache_enabled : t -> bool -> unit
(** Enable/ablate the computational cache between SMC and dpcls (created
    lazily on first enable; must also be trained before it serves). *)

val set_ccache_autoretrain : t -> int option -> unit
(** Retrain automatically after this many megaflow installs while enabled
    ([None] disables the trigger) — couples retraining to rule churn. *)

val ccache_train : t -> Dp_core.charge_fn -> Ovs_nmu.Ccache.train_stats option
(** (Re)train over the installed megaflows, charging the amortized
    per-rule cost. [None] if the cache was never enabled. *)

val ccache_last_train : t -> Ovs_nmu.Ccache.train_stats option

val ccache_render : t -> string option
(** The cache's stats rendering, if it exists. *)

val ccache_selfcheck : t -> Ovs_packet.Flow_key.t list -> int
(** Disagreements between the computational cache and the classifier over
    the given keys (must be 0; a ccache miss never counts). *)

val dpcls_stats : t -> int * int * float
(** [(subtables, megaflows, mean probes per lookup)] of the classifier. *)

val flush_caches : t -> unit
(** Drop all cached flows (OpenFlow rule changes invalidate megaflows). *)

val revalidate : t -> int
(** Re-translate installed megaflows and evict stale entries; returns the
    number evicted. *)

val pipeline : t -> Ovs_ofproto.Pipeline.t
(** The live classifier pointer (what upcalls translate against). *)

val swap_pipeline : t -> Ovs_ofproto.Pipeline.t -> int
(** The two-phase upgrade's atomic cutover: replace the classifier
    pointer with a fully-populated shadow pipeline, then revalidate the
    megaflow cache against it (the armed revalidator is closed and
    rebuilt over the new tables). Surviving megaflows keep forwarding
    and misses always translate against a complete table set, so the
    swap is hitless. Returns the number of stale megaflows evicted. *)

val set_ct_shards : t -> int -> unit
(** Replace the connection table with one sharded [n] ways by the
    direction-symmetric 5-tuple hash, keeping the zone limits
    (setup-time only: raises [Invalid_argument] while connections are
    live). *)

val set_revalidator_enabled : t -> bool -> unit
(** Arm (or disarm) incremental megaflow revalidation
    (lib/revalidator): translations record rule-dependency sets and
    {!revalidate_incremental} re-translates only megaflows touched by
    rule churn. Disarming unwatches the tables' rule journals. Disarmed
    (default) is byte-identical to the pre-subsystem datapath. *)

val revalidator_enabled : t -> bool
val revalidator_stats : t -> Ovs_revalidator.Revalidator.stats option

val revalidator_render : t -> (string -> unit) -> unit
(** Feed the revalidator's counters, one rendered line at a time, into
    a sink (the [dpif/revalidator-show] body); no-op when disarmed. *)

val revalidate_incremental : t -> Ovs_revalidator.Revalidator.sweep_stats option
(** The incremental pass: re-translate only megaflows whose recorded
    dependencies are affected by rule churn since the last pass.
    [None] when the revalidator is not armed. *)

val revalidate_check : t -> int * int * int
(** Prove the incremental pass equals the flush-all oracle:
    [(full_stale, incremental_evicted, divergences)]; [divergences]
    must be 0 whenever the revalidator is armed. The incremental
    sweep's evictions are applied. *)

val dump_megaflows : t -> string list
(** The installed megaflows in dpctl/dump-flows style. *)

val set_meter : t -> id:int -> rate_pps:float -> burst:float -> unit
val meter_stats : t -> id:int -> (int * int) option

val meter_configs : t -> (int * float * float) list
(** Every configured meter as [(id, rate_pps, burst)], by id. *)

val set_controller : t -> (Ovs_packet.Buffer.t -> unit) -> unit
(** Where the [controller] action punts packets (PACKET_IN). *)

val controller : t -> (Ovs_packet.Buffer.t -> unit) option
(** The hook {!set_controller} installed, if any. *)

val set_time : t -> Ovs_sim.Time.ns -> unit
(** Advance the datapath's virtual clock (meters, conntrack). *)

val reset_measurement : t -> unit
(** Zero the counters, serialized-time accumulators and the installed
    tracer's aggregates between a warmup and a measurement phase (caches
    stay warm). *)

(** {1 Tracing} *)

val set_tracer : t -> Ovs_sim.Trace.t option -> unit
(** Install (or remove) a packet-walk / per-stage cycle recorder on the
    datapath core. [None] (the default) keeps the hot path untraced. *)

val tracer : t -> Ovs_sim.Trace.t option

val process : t -> Dp_core.charge_fn -> Ovs_packet.Buffer.t -> unit
(** Run one packet straight through the datapath core (no port/driver
    model) — what ofproto/trace uses to walk an injected packet. *)

(** {1 Deferred upcalls (PMD runtime)} *)

val set_upcall_hook :
  t -> (Ovs_packet.Buffer.t -> Ovs_packet.Flow_key.t -> bool) option -> unit
(** Install (or clear) the miss hook: when set, a full fast-path miss
    goes to the hook instead of translating inline (the PMD runs it
    through {!handle_upcall} later in the same step); [false] means the
    upcall failed and the packet is lost. *)

val handle_upcall :
  t -> Dp_core.charge_fn -> Ovs_packet.Buffer.t -> Ovs_packet.Flow_key.t -> unit
(** Run one deferred upcall: translate + install the megaflow (unless a
    sibling upcall already did) and execute over the packet. *)
