(** Deterministic fault injection on virtual time.

    A {!plan} schedules named faults with activity windows on
    {!Ovs_sim.Time}; {!arm} installs a process-global injector that the
    hooked subsystems (netdev, umempool, conntrack, the PMD runtime)
    consult through the hook functions below. Every hook starts with one
    dereference of an option ref and takes the [None] branch when no plan
    is armed — the tracer's zero-cost-when-disabled pattern — and no hook
    ever charges virtual time, so unarmed runs keep byte-identical cycle
    totals. Mutation draws come from a {!Ovs_sim.Prng} seeded by the
    plan: runs are fully reproducible. *)

(** What a fault does while its [f_start, f_stop) window is open. *)
type action =
  | Link_down of { port : int }  (** the port's carrier drops; rx is lost *)
  | Rxq_stall of { port : int; queue : int }
      (** one rx queue ([-1]: every queue) stops being served *)
  | Umem_leak of { frames : int }
      (** a buggy path leaks up to [frames] umem frames from the pool *)
  | Umem_exhaust  (** the umempool denies every allocation *)
  | Pmd_stall of { pmd : int }  (** the PMD thread stops making progress *)
  | Pmd_crash of { pmd : int }
      (** the PMD dies at window start (stays dead until restarted) *)
  | Upcall_storm  (** every PMD upcall fails (the slow path refuses) *)
  | Pkt_truncate of { prob : float }
  | Pkt_corrupt of { prob : float }
  | Ct_pressure of { zone : int; limit : int }
      (** force an effective conntrack zone limit of [limit] *)

type fault = {
  f_name : string;
  f_action : action;
  f_start : Ovs_sim.Time.ns;
  f_stop : Ovs_sim.Time.ns;
}

type plan = { p_name : string; p_seed : int; p_faults : fault list }

val plan : ?name:string -> ?seed:int -> fault list -> plan

(** {1 Arming} *)

val arm : plan -> unit
val disarm : unit -> unit
val armed_plan : unit -> plan option

val inject : ?seed:int -> fault -> unit
(** Append one fault to the armed injector, arming an empty plan first
    when nothing is armed (the appctl fault/inject path). *)

val tick : Ovs_sim.Time.ns -> fault list
(** Advance the injector clock to the simulation's wall time. Returns the
    faults whose windows opened with this tick (for window-start side
    effects, e.g. flushing caches when an upcall storm begins); [[]] when
    disarmed. *)

val now : unit -> Ovs_sim.Time.ns

val pending_windows : unit -> bool
(** Any windows still pending/open (or crashed PMDs not yet restarted)?
    Drain loops keep ticking while this holds so every window closes. *)

(** {1 Hook points}

    Each is called from exactly one subsystem; all are a single
    dereference + [None] branch when disarmed. *)

val link_down : port:int -> bool
(** Netdev enqueue: is this port's carrier down right now? *)

val rxq_stalled : port:int -> queue:int -> bool
(** Netdev dequeue: is this (port, queue) stalled right now? *)

val umem_exhausted : unit -> bool
(** Umempool allocation: deny every request while open. *)

val umem_leak : avail:int -> int
(** Umempool: frames to leak out of [avail] right now (0 when quiet). *)

val pmd_stalled : pmd:int -> bool

val pmd_crash_pending : pmd:int -> bool
(** Returns [true] exactly once per crash fault, when its window opens;
    the caller performs the crash transition. *)

val pmd_crashed_at : pmd:int -> Ovs_sim.Time.ns option
(** When the PMD crashed (for the health monitor's restart delay), or
    [None] when it is not currently crashed. *)

val mark_pmd_restarted : pmd:int -> unit

val upcall_storm : unit -> bool
(** PMD upcall: does it fail (the slow path refuses it)? *)

val ct_limit : zone:int -> int option
(** Conntrack commit: forced effective zone limit, when open for [zone]. *)

val mutate : unit -> [ `Truncate of float | `Corrupt ] option
(** Traffic generation: mangle the next offered packet? [`Truncate frac]
    keeps roughly that fraction of the frame; [`Corrupt] flips a header
    byte. Draws from the plan PRNG only while a window is open. *)

(** {1 Rendering} *)

val pp_fault : Format.formatter -> fault -> unit

val render : unit -> string
(** One line per fault of the armed plan with live fire counts
    (appctl fault/list). *)

val fire_counts : unit -> (string * int) list

val of_spec : string -> (fault, string) result
(** Parse an appctl fault spec: a kind ([link_flap], [rxq_stall],
    [umem_leak], [umem_exhaust], [pmd_stall], [pmd_crash],
    [upcall_storm], [pkt_truncate], [pkt_corrupt], [ct_pressure])
    followed by [key=value] tokens. [at]/[for] are milliseconds of
    virtual time (defaults: 0 and 1). *)
