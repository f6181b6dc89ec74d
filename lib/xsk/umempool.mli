(** The umempool: OVS's userspace allocator for umem frames (paper
    Sec 3.2). Every operation synchronizes because any PMD thread may
    return a frame to any pool; the lock strategy is exactly what
    optimizations O2 (mutex to spinlock) and O3 (per-frame to per-batch)
    change. Statistics feed the cost model.

    Partial-failure contract for batched allocation: {!get_batch} (and
    its alias {!alloc_batch}) returns a possibly-short batch in which
    {e every} returned frame is valid and owned by the caller; the
    shortfall is charged to [stats.exhausted]. There is no rollback —
    the returned list's length is the single source of truth for how
    many frames the caller got. Drop accounting: [stats.exhausted] (and
    the ["umempool_exhausted"] coverage counter) counts allocation
    {e failures}, not packets — packet drops caused by an empty pool are
    counted where the packet dies (the XSK rx path's
    [rx_dropped_no_frame]).

    The pool is also a fault-injection point ({!Ovs_faults.Faults}):
    [Umem_exhaust] denies every allocation while its window is open, and
    [Umem_leak] quietly diverts frames into a quarantine that
    {!reclaim_leaked} (driven by the health monitor) returns to
    circulation. *)

type lock_strategy =
  | Mutex  (** pthread_mutex per operation (pre-O2) *)
  | Spinlock  (** spinlock per operation (O2) *)
  | Spinlock_batched  (** one acquisition per batch (O3) *)

type stats = {
  mutable lock_acquisitions : int;
  mutable frame_ops : int;
  mutable batch_ops : int;
  mutable exhausted : int;  (** allocation failures *)
}

type t = {
  free : int array;
  mutable top : int;
  strategy : lock_strategy;
  stats : stats;
  mutable leaked : int list;
      (** frames diverted by a leak fault, awaiting {!reclaim_leaked} *)
  lk : Mutex.t;
      (** the real lock, taken only in [contended] mode (domains engine) *)
  contended : bool;
}

val create : ?contended:bool -> n_frames:int -> strategy:lock_strategy -> unit -> t
(** [~contended:true] (default [false]) arms the real [Mutex.t]: every
    operation then runs in an actual critical section, and the non-batched
    strategies pay one real acquisition per frame so O3's batching shows
    up in wall-clock time under the domains engine. The default takes no
    lock and is byte-identical to the virtual-time pool it replaces. *)

val available : t -> int

val get : t -> int option
(** One frame, one lock acquisition; [None] when exhausted. *)

val put : t -> int -> unit

val get_batch : t -> int -> int list
(** Up to [n] frames; one lock acquisition under [Spinlock_batched], one
    per frame otherwise. On partial failure returns the partial batch —
    all returned frames valid, shortfall added to [stats.exhausted]. *)

val alloc_batch : t -> int -> int list
(** Alias of {!get_batch} under its OVS name; identical partial-batch
    semantics. *)

val put_batch : t -> int list -> unit

val leaked_count : t -> int
(** Frames currently quarantined by a leak fault. *)

val free_frames : t -> int list
(** Snapshot of the free stack (top first), without lock or stats
    accounting — for invariant checkers such as the schedule explorer's
    frame-conservation oracle. *)

val reclaim_leaked : t -> int
(** Return every quarantined frame to the free stack; returns how many
    came back. The health monitor's leak repair. *)

val lock_cost : t -> Ovs_sim.Costs.t -> float
(** Virtual-time cost of one acquisition under this pool's strategy. *)
