(** The datapath health monitor: detects stalled PMDs, stale (carrier
    down) ports and leaking umem pools; restarts crashed PMDs after a
    configurable respawn delay; and keeps recovery-time bookkeeping for
    the chaos bench (Sec 2.1's operational-resilience argument made
    measurable). *)

type t

val create : dp:Dpif.t -> ?rt:Pmd.t -> ?restart_delay:Ovs_sim.Time.ns -> unit -> t
(** Monitor [dp] (and [rt]'s PMDs, when given). [restart_delay] (default
    150us) is the virtual time between a PMD crash and its respawn. *)

val check : t -> now:Ovs_sim.Time.ns -> int
(** One monitor sweep at virtual time [now]: restart crashed PMDs whose
    respawn delay has elapsed, reclaim leaked umem frames when a pool
    runs low, record stall/recovery events. Returns repairs performed. *)

val healthy : t -> bool
(** No dead PMDs, no carrier-down ports, no un-reclaimed leaks. *)

val last_recovery : t -> Ovs_sim.Time.ns option
(** Duration of the most recent completed unhealthy episode. *)

val repairs : t -> int

val render : t -> now:Ovs_sim.Time.ns -> string
(** dpif/health-show: status, per-PMD and per-port detail, recovery
    history. *)
