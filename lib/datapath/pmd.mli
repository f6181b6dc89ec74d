(** The poll-mode runtime: dedicated PMD threads (Sec 3.2, O1).

    Shards one port's receive queues across N simulated PMD cores using
    {!Rxq_sched} assignments. Each PMD is its own {!Ovs_sim.Cpu.ctx} with
    batched polling (batch size from the datapath's [afxdp_opts]) and a
    bounded upcall queue draining into the shared slow path on the PMD's
    own core. Every userspace run is driven by this loop. Per-PMD
    counters mirror
    [dpif-netdev/pmd-stats-show]; {!assignment} is pmd-rxq-show. *)

(** One receive queue as a PMD sees it. *)
type rxq = {
  rxq_port : int;
  rxq_queue : int;
  mutable rxq_cycles : Ovs_sim.Time.ns;  (** busy time spent on this rxq *)
  mutable rxq_packets : int;
}

(** pmd-stats-show counters. [miss] reached the slow path; [lost] is an
    upcall the bounded queue had no room for (packet dropped). *)
type stats = {
  mutable rx_packets : int;
  mutable emc_hits : int;
  mutable smc_hits : int;
  mutable megaflow_hits : int;
  mutable miss : int;
  mutable lost : int;
  mutable retried : int;  (** upcalls parked in the retry queue *)
  mutable polls : int;
  mutable idle_polls : int;  (** polls that dequeued nothing *)
}

type pmd
type t

val create :
  ?upcall_capacity:int ->
  ?retry_capacity:int ->
  ?max_retries:int ->
  dp:Dpif.t ->
  machine:Ovs_sim.Cpu.t ->
  softirq:Ovs_sim.Cpu.ctx array ->
  port_no:int ->
  queues:int ->
  n_pmds:int ->
  unit ->
  t
(** Build a runtime polling [queues] rx queues of [port_no], sharded
    round-robin over [n_pmds] fresh PMD contexts created on [machine].
    [softirq.(q)] is the kernel-side context for queue [q].
    [upcall_capacity] (default 512) bounds each PMD's upcall queue;
    refused upcalls park in a bounded retry queue ([retry_capacity],
    default 256) and are retried with backoff up to [max_retries]
    (default 3) times before being lost. On AF_XDP ports each queue's
    XSK is claimed for its owning PMD (single-producer/single-consumer
    rings). *)

(** {1 Polling} *)

val poll_rxq : t -> pmd -> rxq -> int
(** One burst from one rxq through the datapath, then a retry pass and a
    drain of the PMD's upcall queue — the fused main-loop iteration.
    Equal to [step_poll; step_retry; step_drain] in every charge, counter
    and forwarded packet, except the rxq's [rxq_cycles]: here it covers
    the poll, the retry pass and the drain, where {!step_poll} counts
    only the burst. Returns packets dequeued. *)

val poll_all : t -> int
(** One main-loop iteration for every PMD (each polls each of its rxqs
    once). Returns total packets dequeued. *)

(** {1 Schedule-explorer steps}

    The three phases of a PMD main-loop iteration as separately
    schedulable actions for the [Ovs_mc] explorer. Each installs and
    removes the upcall hook around itself and does its own counter
    attribution, so any interleaving of steps across PMDs is a
    well-formed execution; [step_poll; step_retry; step_drain] on one
    PMD reproduces {!poll_rxq} except for [rxq_cycles]. *)

val step_poll : t -> pmd -> rxq -> int
(** One burst from one rxq through the datapath — no retry pass, no
    drain; misses accumulate in the PMD's bounded queues. *)

val step_retry : t -> pmd -> unit
(** One bounded-retry backoff pass over the PMD's parked upcalls. *)

val step_drain : t -> pmd -> unit
(** Drain the PMD's upcall queue into the shared slow path. *)

val handle_crashes : t -> unit
(** Apply any pending crash fault: queued upcalls die with the thread
    (counted lost and dropped) and the shared caches flush. Run by
    {!poll_all} automatically; exposed as an explorer step. *)

(** {1 Introspection} *)

val n_pmds : t -> int
val pmds : t -> pmd list
val pmd_id : pmd -> int
val pmd_ctx : pmd -> Ovs_sim.Cpu.ctx
val stats_of : pmd -> stats

val alive : pmd -> bool
(** [false] between a crash fault and the health monitor's restart. *)

val restarts : pmd -> int

val queued : pmd -> int
(** Upcalls waiting in this PMD (main + retry queues) — in-flight
    packets for conservation accounting. *)

val upcall_queue_len : pmd -> int
val retry_queue_len : pmd -> int

val upcall_capacity : t -> int
val retry_capacity : t -> int
(** Configured bounds of the two queues, for the explorer's
    bounded-queue oracle. *)

val rxqs_of : pmd -> rxq list
(** The rxqs currently assigned to this PMD. *)

val restart : t -> pmd -> unit
(** Restart a crashed PMD: reclaim XSK rings and revalidate the flow
    caches; traffic repopulates the megaflows through the normal upcall
    path. No-op on a live PMD. *)

val ctxs : t -> Ovs_sim.Cpu.ctx list
(** The PMD cores, for poll-floor accounting (busy-polling threads burn
    their core regardless of load). *)

val assignment : t -> (int * int * int) list
(** The rxq→PMD map as sorted (port, queue, pmd) rows — pmd-rxq-show. *)

(** A snapshot of one PMD for the appctl renderings. *)
type report = {
  r_pmd : int;
  r_rxqs : (int * int * Ovs_sim.Time.ns * int) list;
      (** (port, queue, busy ns, packets) per assigned rxq *)
  r_stats : stats;  (** snapshot copy — safe to hold across resets *)
  r_busy_ns : Ovs_sim.Time.ns;
  r_idle_ns : Ovs_sim.Time.ns;  (** wall minus busy: spinning, not working *)
  r_cycles_per_pkt : float;  (** busy ns per processed packet *)
}

val reports : ?wall:Ovs_sim.Time.ns -> t -> report list
(** Per-PMD snapshots. [wall] (default: the busiest PMD's busy time)
    anchors the idle-time calculation. *)

(** {1 Maintenance} *)

val reset_stats : t -> unit
(** Zero per-PMD and per-rxq counters and each PMD core's clock (between
    warmup and measurement). *)

val rebalance : t -> unit
(** Re-shard rxqs by measured per-rxq busy time (cycles-based
    pmd-rxq-assign). *)
