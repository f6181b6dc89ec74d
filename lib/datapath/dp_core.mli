(** The datapath core shared by every flavor: the cache hierarchy
    (EMC → SMC → dpcls), the slow-path upcall into ofproto translation,
    and datapath-action execution with recirculation.

    Flavors differ in which caches exist, what each step costs, and which
    CPU-time category the work lands in — see the implementation notes in
    [dp_core.ml]. Internals (the caches themselves, the meter table, the
    bound output function) are sealed behind this signature; callers go
    through the accessors below. *)

module FK = Ovs_packet.Flow_key
module Action = Ovs_ofproto.Action

type flavor =
  | Flavor_userspace  (** dpif-netdev: DPDK and AF_XDP, [User] time *)
  | Flavor_kernel  (** the kernel module, [Softirq] time *)
  | Flavor_kernel_ebpf  (** the Sec 2.2.2 interpreted-eBPF prototype *)

(** How work is billed: a CPU-time category and a duration in virtual ns. *)
type charge_fn = Ovs_sim.Cpu.category -> Ovs_sim.Time.ns -> unit

(** Virtual ns spent on the {e hits} of each lookup tier — the raw
    material of dpif/cache-hierarchy-show's mean-cycles-per-hit column.
    All-float, so crediting a hit adds in place. *)
type tier_cycles = {
  mutable emc_ns : float;
  mutable smc_ns : float;
  mutable ccache_ns : float;
  mutable dpcls_ns : float;
}

(** Aggregate datapath counters. The record is deliberately public (all
    consumers read them; the PMD runtime snapshots them around each poll
    to attribute deltas per core) — use {!reset_counters} to zero. *)
type counters = {
  mutable packets : int;
  mutable passes : int;  (** datapath lookups, incl. recirculations *)
  mutable upcalls : int;
  mutable emc_hits : int;
  mutable smc_hits : int;
  mutable ccache_hits : int;  (** computational-cache (learned tier) hits *)
  mutable dpcls_hits : int;
  mutable dropped : int;
  mutable sent : int;
  cycles : tier_cycles;
}

type t

val create :
  flavor:flavor -> costs:Ovs_sim.Costs.t -> pipeline:Ovs_ofproto.Pipeline.t -> unit -> t

(** {1 Accessors} *)

(** The live classifier pointer (what upcalls translate against). *)
val pipeline : t -> Ovs_ofproto.Pipeline.t

val conntrack : t -> Ovs_conntrack.Conntrack.t

(** Replace the connection table with one sharded [n] ways by the
    direction-symmetric 5-tuple hash, keeping the zone limits.
    Setup-time only: raises [Invalid_argument] while connections are
    live. *)
val set_ct_shards : t -> int -> unit

val counters : t -> counters
val reset_counters : t -> unit

(** The CPU category fast-path work lands in for this flavor. *)
val fastpath_category : t -> Ovs_sim.Cpu.category

val csum_offload : t -> bool

(** Whether the NIC absorbs software checksum refreshes (Sec 5.5). *)
val set_csum_offload : t -> bool -> unit

(** Ablation switches for the microflow caches (Table 2 ladder). *)
val set_emc_enabled : t -> bool -> unit

val set_smc_enabled : t -> bool -> unit

(** {1 The computational cache (learned classifier tier, lib/nmu)} *)

(** Enable/ablate the computational cache between SMC and dpcls. The cache
    is created lazily on first enable, so a datapath that never enables it
    charges byte-identical costs to one built before the tier existed.
    Enabling is not enough to serve lookups: the cache must also be
    trained ({!ccache_train}). *)
val set_ccache_enabled : t -> bool -> unit

(** Retrain automatically after this many megaflow installs while enabled
    ([None] disables the trigger). Couples retraining to rule churn. *)
val set_ccache_autoretrain : t -> int option -> unit

(** (Re)train over the currently installed megaflows, charging the
    amortized per-rule cost as [User] time. [None] if never enabled. *)
val ccache_train : t -> charge_fn -> Ovs_nmu.Ccache.train_stats option

val ccache_last_train : t -> Ovs_nmu.Ccache.train_stats option

(** The cache's stats rendering, if it exists. *)
val ccache_render : t -> string option

(** Cross-check the computational cache against the classifier on live
    state for each key; returns the number of disagreements (must be 0). *)
val ccache_selfcheck : t -> FK.t list -> int

(** [(subtables, megaflows, mean probes per lookup)] of the classifier. *)
val dpcls_stats : t -> int * int * float

(** Bind where executed [output:N] actions deliver packets — set once by
    the enclosing datapath when ports exist. *)
val set_output : t -> (charge_fn -> int -> Ovs_packet.Buffer.t -> unit) -> unit

(** Where the [controller] action punts packets (PACKET_IN). *)
val set_controller : t -> (Ovs_packet.Buffer.t -> unit) -> unit

(** The hook {!set_controller} installed, if any. *)
val controller : t -> (Ovs_packet.Buffer.t -> unit) option

(** Advance the core's virtual clock (meters and conntrack read it). *)
val set_now : t -> Ovs_sim.Time.ns -> unit

val now : t -> Ovs_sim.Time.ns

(** {1 The deferred slow path (PMD upcalls)} *)

(** When a hook is installed, a full fast-path miss does not translate
    inline: the hook keeps the packet for a slow-path pass later in the
    PMD's step, with its own copy of the flow key (the datapath reuses
    its key buffers).
    A [false] return means the upcall failed — the packet is counted
    [dropped] and the [dpif_upcall_lost] coverage counter fires. *)
val set_upcall_hook : t -> (Ovs_packet.Buffer.t -> FK.t -> bool) option -> unit

(** {1 Tracing} *)

(** Install (or remove) a packet-walk / per-stage cycle recorder. With
    [None] (the default) the hot path runs untraced with no extra cost;
    with [Some r] every charged nanosecond is attributed to the pipeline
    stage being executed, and walk events are recorded while
    [Ovs_sim.Trace.start_walk] is active. *)
val set_tracer : t -> Ovs_sim.Trace.t option -> unit

val tracer : t -> Ovs_sim.Trace.t option

(** Run one deferred upcall to completion: re-probe the megaflow table
    (another queued upcall of the same flow may have installed it),
    translate + install on a true miss, then execute over the queued
    packet. This is how a PMD runs its step's misses. *)
val handle_upcall : t -> charge_fn -> Ovs_packet.Buffer.t -> FK.t -> unit

(** {1 Meters} *)

(** Configure a token-bucket meter (the [meter:N] action's target). *)
val set_meter : t -> id:int -> rate_pps:float -> burst:float -> unit

(** [(passed, dropped)] for the meter, if configured. *)
val meter_stats : t -> id:int -> (int * int) option

(** Every configured meter as [(id, rate_pps, burst)], by id: what a
    restarted datapath re-applies. *)
val meter_configs : t -> (int * float * float) list

(** {1 Per-packet processing} *)

(** Full per-packet fast path: extract, look up, execute (or defer to the
    upcall hook on a full miss). *)
val process : t -> charge_fn -> Ovs_packet.Buffer.t -> unit

(** Extract a packet's flow key into the buffer the next pass uses and
    return it — valid until that pass runs. The rx path hashes it for the
    software RSS hash, then calls {!process_extracted}. *)
val extract_key : t -> Ovs_packet.Buffer.t -> FK.t

(** {!process} for a packet whose key {!extract_key} has just extracted:
    the first pass charges the extraction but does not repeat it. *)
val process_extracted : t -> charge_fn -> Ovs_packet.Buffer.t -> unit

(** {1 Flow-table management} *)

(** Drop all cached flows (OpenFlow rule changes invalidate megaflows). *)
val flush_caches : t -> unit

(** Render the installed megaflows in dpctl/dump-flows style. *)
val dump_megaflows : t -> string list

(** Re-translate every installed megaflow against the current OpenFlow
    tables and evict stale entries, like OVS's revalidator threads.
    Returns the number of megaflows evicted. *)
val revalidate : t -> int

(** The two-phase upgrade's atomic cutover: replace the classifier
    pointer with a fully-populated shadow pipeline, then revalidate the
    megaflow cache against it (the armed revalidator watched the old
    pipeline's tables, so it is closed and rebuilt over the new ones).
    Lookups are consistent at every instant — surviving megaflows keep
    forwarding and misses translate against the complete new tables —
    which is the zero-loss property the naive in-place swap lacks. Returns the number
    of stale megaflows evicted. *)
val swap_pipeline : t -> Ovs_ofproto.Pipeline.t -> int

(** {1 Incremental revalidation (lib/revalidator)} *)

(** Arm (or disarm) the incremental revalidator: translations record
    their rule-dependency sets, and {!revalidate_incremental}
    re-translates only megaflows whose dependencies are touched by
    rule churn. Arming mid-life adopts already-installed megaflows and
    watches the pipeline's tables; disarming closes the tracker, so the
    tables stop journaling for it. Disarmed (the default), the datapath
    is byte-identical to one built before the subsystem existed. *)
val set_revalidator_enabled : t -> bool -> unit

val revalidator_enabled : t -> bool
val revalidator_stats : t -> Ovs_revalidator.Revalidator.stats option

(** Feed the revalidator's cumulative counters, one rendered line at a
    time, into a sink (the [dpif/revalidator-show] body). No-op when
    disarmed. *)
val revalidator_render : t -> (string -> unit) -> unit

(** The incremental pass: read the OpenFlow tables' rule journals,
    re-translate only affected megaflows, evict the changed ones
    (invalidating the computational cache first and flushing the
    microflow caches, like {!revalidate}). [None] when the revalidator
    is not armed. *)
val revalidate_incremental : t -> Ovs_revalidator.Revalidator.sweep_stats option

(** Prove the incremental pass equals the flush-all oracle on the
    current state: computes the full-scan stale set without mutating,
    then runs the incremental sweep (applying its evictions), and
    returns [(full_stale, incremental_evicted, divergences)] —
    [divergences] is the size of the symmetric difference of the two
    eviction sets and must be 0 whenever the revalidator is armed. *)
val revalidate_check : t -> int * int * int
