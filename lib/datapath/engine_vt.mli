(** The virtual-time execution engine: the deterministic single-thread
    scheduler behind the {!Engine} interface. One {!step} is the
    pre-redesign poll sweep, charging byte-identical virtual nanoseconds
    (pinned by the determinism test). *)

type t

val name : string

val create :
  dp:Dpif.t ->
  machine:Ovs_sim.Cpu.t ->
  softirq:Ovs_sim.Cpu.ctx array ->
  legacy:Ovs_sim.Cpu.ctx array ->
  rt:Pmd.t option ->
  port_no:int ->
  queues:int ->
  ?ct_sweep_budget:int ->
  unit ->
  t
(** [legacy] holds the one-context-per-queue loop's contexts (used when
    [rt] is [None]); with [rt] set, steps go through the poll-mode
    runtime. With [ct_sweep_budget] set, every {!step} also runs one
    bounded conntrack expiry sweep with that per-step budget (the
    PMD-amortized lazy expiry); unset, nothing changes and charged
    cycles stay byte-identical to the pre-subsystem engine. *)

val runtime : t -> Pmd.t option
(** The poll-mode runtime behind this engine, if any — for introspection
    (reports, health monitoring) and for the schedule explorer, which
    drives {!Pmd}'s single-phase steps on it. *)

val note_offered : t -> int -> unit
(** Record packets the traffic rig offered, for the stats readout. *)

val start : t -> unit
val step : t -> int
val stats : t -> Engine.stats
val stop : t -> Engine.stats

val handle : t -> Engine.handle
(** Pack as a generic engine handle. *)
