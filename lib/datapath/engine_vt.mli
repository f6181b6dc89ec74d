(** The virtual-time execution engine: the deterministic single-thread
    scheduler. One {!step} is one poll sweep over the phy leg — the
    {!Pmd} runtime's main-loop iteration on a userspace datapath, one
    softirq poll per queue on the kernel flavours — charging
    byte-identical virtual nanoseconds (pinned by the determinism
    goldens). *)

type t

val create :
  dp:Dpif.t ->
  machine:Ovs_sim.Cpu.t ->
  softirq:Ovs_sim.Cpu.ctx array ->
  rt:Pmd.t option ->
  port_no:int ->
  unit ->
  t
(** [softirq.(q)] is the kernel-side context of queue [q] of [port_no].
    Steps go through [rt] when it is set (every userspace datapath);
    [None] is for the kernel flavours, which have no PMD. *)

val runtime : t -> Pmd.t option
(** The poll-mode runtime behind this engine, if any — for introspection
    (reports, health monitoring) and for the schedule explorer, which
    drives {!Pmd}'s single-phase steps on it. *)

val note_offered : t -> int -> unit
(** Record packets the traffic rig offered, for the stats readout. *)

val step : t -> int
(** One poll sweep; returns packets dequeued. *)

val stats : t -> Engine.stats
(** The readout: one unit per PMD, or per softirq queue on the kernel
    flavours. *)
