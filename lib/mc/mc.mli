(** A bounded deterministic schedule explorer (mini model checker) for the
    PMD / umempool / upcall concurrency model.

    The simulator is single-threaded, but the system it models is not:
    PMD threads, the fault injector's windows, the health monitor and the
    umempool's reclaim path all interleave in the real OVS process, and
    the interesting bugs (double frame grants, lost packets, rings
    claimed by two threads) live in those interleavings. This module
    drives the per-step actions of that concurrency model — a PMD's rxq
    poll with that burst's upcalls ({!Ovs_datapath.Pmd.poll_rxq}, the
    step the main loop takes), fault-window tick, health sweep, umem
    reclaim, crash sweep — through an explicit scheduler and checks four
    invariant oracles after {e every} step:

    - frame conservation: every umem frame has exactly one owner among
      pool free stack, leak quarantine, fill/completion/rx/tx rings;
    - ring sanity: SPSC index monotonicity plus single-claimant XSK
      ownership against the PMD runtime's assignment;
    - packet conservation, reusing the chaos rig's accounting:
      offered = delivered + accounted drops + in flight;
    - trace accounting: the per-stage cycle sums equal the charged busy
      total.

    The ring-cursor and frame checks are {!Ovs_xsk.Audit}'s, the code the
    domains engine runs too.

    State is destructively mutated, so exploration is stateless-style:
    every schedule re-executes from a fresh model instance, which is what
    makes a violating schedule a {e replayable artifact} — a mode, a seed
    and a byte string of thread ids reproduce the identical violation. *)

(** {1 Bounds} *)

(** Exploration bound. [Tiny] (5 steps) is sized for unit tests, [Small]
    (6 steps, 2 PMDs x 2 rxqs) for exhaustive exploration, [Large]
    (16 steps, two polls per PMD, adds crash/restart) for seeded random
    sampling only. *)
type mode = Tiny | Small | Large

(** {1 Mutations}

    Each mutation flips one guarded invariant in a scratch copy of the
    model — a seeded bug the explorer must find. Used by the mutation
    tests to establish that every oracle can actually fire. *)

type mutation =
  | M_double_grant  (** a fill-ring frame is also pushed back to the pool *)
  | M_second_claim  (** an XSK ring is claimed by a second PMD *)
  | M_leak_frame  (** a frame silently vanishes from the pool *)
  | M_lose_packet  (** an offered packet is discarded uncounted *)
  | M_ring_rewind  (** an rx ring's consumer index moves backwards *)
  | M_untraced_charge  (** PMD work charged outside the stage tracer *)

val mutations : (string * mutation) list

(** {1 Oracles} *)

type oracle =
  | O_ring  (** SPSC monotonicity / single-claimant ownership *)
  | O_frames  (** umem frame conservation *)
  | O_packets  (** packet conservation *)
  | O_trace  (** stage-cycle sums vs charged totals *)

val oracle_name : oracle -> string

type violation = {
  v_step : int;  (** 0-based index into the schedule *)
  v_thread : int;  (** thread id scheduled at that index *)
  v_oracle : oracle;
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** {1 Execution} *)

type schedule = int array
(** Thread ids in scheduling order. An id whose script is exhausted (or
    out of range) is a no-op step — kept so shrunken/hand-edited
    artifacts still replay with stable step indices. *)

val run_schedule : ?mutation:mutation -> mode -> schedule -> violation option
(** Build a fresh model, execute the schedule, check every oracle after
    every step; the first violation stops the run. Deterministic: the
    same (mode, mutation, schedule) always yields the same result. *)

(** {1 Exploration} *)

type outcome = {
  o_mode : mode;
  o_mutation : mutation option;
  o_seed : int;  (** sampling seed; 0 for exhaustive runs *)
  o_explored : int;  (** schedules fully executed *)
  o_pruned : int;  (** DFS subtrees cut by the partial-order reduction *)
  o_violation : (violation * schedule) option;  (** shrunk, if any *)
}

val explore :
  ?mutation:mutation -> ?por:bool -> ?max_schedules:int -> mode -> outcome
(** Exhaustive DFS over interleavings of the per-thread step scripts,
    stopping at the first violation (shrunk before reporting). [por]
    (default: on for the unmutated model, off under mutation) prunes
    schedule prefixes that commute with an already-explored neighbor —
    canonical-order partial-order reduction over a static independence
    relation. Under a mutation the relation no longer describes the step
    semantics, so reduction is disabled. *)

val sample : ?mutation:mutation -> seed:int -> n:int -> mode -> outcome
(** [n] schedules drawn uniformly (splitmix64, deterministic in [seed])
    from the interleavings of the scripts; stops at the first violation
    (shrunk before reporting). The only exploration available at the
    [Large] bound. *)

val render : outcome -> string

(** {1 Replay artifacts} *)

val artifact_string :
  mode:mode -> seed:int -> mutation:mutation option -> schedule -> string
(** [mc1 mode=<m> seed=<n> mut=<name|none> sched=<hex>] — one hex digit
    per scheduled thread id. *)

val artifact_of_outcome : outcome -> string option

val parse_artifact :
  string -> (mode * int * mutation option * schedule, string) result

val replay : string -> (string, string) result
(** Parse an artifact, re-execute its schedule deterministically and
    render what happened — the [appctl mc/replay] implementation. *)
