(** The umempool: OVS's userspace allocator for umem frames (Sec 3.2).

    Any PMD thread may need to return a frame to any pool (a packet received
    on one NIC can be transmitted on another), so every operation
    synchronizes. The paper's O2 and O3 optimizations are exactly about this
    structure: O2 replaces the POSIX mutex with a spinlock, O3 coarsens the
    locking from per-frame to per-batch. The pool records its lock and
    frame operations so the datapath can charge the configured costs.

    Batched allocation has partial-failure semantics: {!get_batch} returns
    the frames it could take — possibly fewer than requested, every one of
    them valid — and bumps [stats.exhausted] by the shortfall. Callers must
    treat the returned list's length as authoritative (the XSK refill path
    does: it posts exactly the frames it got). There is no rollback: a
    partially-filled fill ring is useful, an empty one is not.

    The pool is also a fault-injection point ({!Ovs_faults}): an
    exhaustion window denies every allocation, and a leak fault diverts
    frames into [leaked], a quarantine the health monitor can
    {!reclaim_leaked} from — modelling the frame-accounting bugs that
    motivate the drop-accounting audit. *)

module Coverage = Ovs_sim.Coverage
module Faults = Ovs_faults.Faults

let cov_exhausted = Coverage.counter "umempool_exhausted"
let cov_leaked = Coverage.counter "umempool_leaked"
let cov_reclaimed = Coverage.counter "umempool_reclaimed"

type lock_strategy =
  | Mutex  (** pthread_mutex per operation (pre-O2) *)
  | Spinlock  (** spinlock per operation (O2) *)
  | Spinlock_batched  (** one spinlock acquisition per batch (O3) *)

type stats = {
  mutable lock_acquisitions : int;
  mutable frame_ops : int;  (** individual frame get/put operations *)
  mutable batch_ops : int;  (** batched get/put calls *)
  mutable exhausted : int;  (** allocation failures (pool empty) *)
}

type t = {
  free : int array;  (** stack of free frame indices *)
  mutable top : int;
  strategy : lock_strategy;
  stats : stats;
  mutable leaked : int list;
      (** frames a leak fault diverted out of circulation *)
  lk : Mutex.t;
      (** the real lock, taken only in [contended] mode (domains engine) *)
  contended : bool;
}

(** [~contended:true] arms the real [Mutex.t] for cross-domain use: every
    pool operation then runs inside an actual critical section, and the
    non-batched strategies additionally pay one real acquisition per frame
    (the pre-O3 behaviour) so O3's one-lock-per-batch advantage is
    measurable in wall-clock time, not just in charged cycles. The
    default (virtual-time single-thread mode) takes no lock at all and is
    byte-identical to the pre-redesign pool. *)
let create ?(contended = false) ~n_frames ~strategy () =
  {
    free = Array.init n_frames (fun i -> n_frames - 1 - i);
    top = n_frames;
    strategy;
    stats = { lock_acquisitions = 0; frame_ops = 0; batch_ops = 0; exhausted = 0 };
    leaked = [];
    lk = Mutex.create ();
    contended;
  }

let available t = t.top

(* Run [f] as the operation's critical section. In contended mode the
   data-structure work happens under one real acquisition, then [locks - 1]
   further acquire/release pairs generate the per-frame lock traffic the
   non-batched strategies (Mutex, Spinlock) are charged for — real
   cache-line contention proportional to the modeled acquisition count. *)
let with_lock t ~locks f =
  if not t.contended then f ()
  else begin
    Mutex.lock t.lk;
    let r = try f () with e -> Mutex.unlock t.lk; raise e in
    Mutex.unlock t.lk;
    for _ = 2 to locks do
      Mutex.lock t.lk;
      Mutex.unlock t.lk
    done;
    r
  end

let lock_once t = t.stats.lock_acquisitions <- t.stats.lock_acquisitions + 1

let exhaust t n =
  t.stats.exhausted <- t.stats.exhausted + n;
  Coverage.incr ~n cov_exhausted

(* A leak fault silently diverts frames off the top of the free stack. *)
let apply_leak t =
  match Faults.umem_leak ~avail:t.top with
  | 0 -> ()
  | n ->
      for _ = 1 to n do
        t.top <- t.top - 1;
        t.leaked <- t.free.(t.top) :: t.leaked
      done;
      Coverage.incr ~n cov_leaked

(** Take one frame, locking per the strategy. [None] when exhausted. *)
let get t =
  with_lock t ~locks:1 @@ fun () ->
  lock_once t;
  t.stats.frame_ops <- t.stats.frame_ops + 1;
  if Faults.umem_exhausted () then begin
    exhaust t 1;
    None
  end
  else begin
    apply_leak t;
    if t.top = 0 then begin
      exhaust t 1;
      None
    end
    else begin
      t.top <- t.top - 1;
      Some t.free.(t.top)
    end
  end

let push_frame t frame =
  lock_once t;
  t.stats.frame_ops <- t.stats.frame_ops + 1;
  t.free.(t.top) <- frame;
  t.top <- t.top + 1

(* The per-packet release: it builds a critical-section closure only
   when the pool is contended. *)
let put t frame =
  if t.contended then with_lock t ~locks:1 (fun () -> push_frame t frame)
  else push_frame t frame

(** Take up to [n] frames. Under [Spinlock_batched] this is one lock
    acquisition; under the other strategies it costs one per frame.

    Partial failure returns a partial batch: when fewer than [n] frames
    are free, every free frame is returned (all of them valid) and
    [stats.exhausted] grows by the shortfall. The returned length is the
    only truth about how many frames the caller now owns. *)
let get_batch t n =
  let locks = match t.strategy with Spinlock_batched -> 1 | Mutex | Spinlock -> n in
  with_lock t ~locks @@ fun () ->
  t.stats.batch_ops <- t.stats.batch_ops + 1;
  t.stats.lock_acquisitions <- t.stats.lock_acquisitions + locks;
  t.stats.frame_ops <- t.stats.frame_ops + n;
  if Faults.umem_exhausted () then begin
    exhaust t n;
    []
  end
  else begin
    apply_leak t;
    let got = Int.min n t.top in
    if got < n then exhaust t (n - got);
    let rec take i acc =
      if i >= got then acc
      else begin
        t.top <- t.top - 1;
        take (i + 1) (t.free.(t.top) :: acc)
      end
    in
    take 0 []
  end

(** Alias of {!get_batch} under its OVS name, same partial-batch
    semantics. *)
let alloc_batch = get_batch

let put_batch t frames =
  let n = List.length frames in
  let locks = match t.strategy with Spinlock_batched -> 1 | Mutex | Spinlock -> n in
  with_lock t ~locks @@ fun () ->
  t.stats.batch_ops <- t.stats.batch_ops + 1;
  t.stats.lock_acquisitions <- t.stats.lock_acquisitions + locks;
  t.stats.frame_ops <- t.stats.frame_ops + n;
  List.iter
    (fun f ->
      t.free.(t.top) <- f;
      t.top <- t.top + 1)
    frames

let leaked_count t = List.length t.leaked

(** Snapshot of the free stack's frame indices (top of stack first) —
    introspection for invariant checkers, no lock or stats accounting. *)
let free_frames t = List.init t.top (fun i -> t.free.(t.top - 1 - i))

(** Return every quarantined frame to the free stack (the health
    monitor's leak repair). Returns how many came back. *)
let reclaim_leaked t =
  let frames = t.leaked in
  t.leaked <- [];
  let n = List.length frames in
  if n > 0 then begin
    put_batch t frames;
    Coverage.incr ~n cov_reclaimed
  end;
  n

(** Virtual-time cost of one lock acquisition under this pool's strategy. *)
let lock_cost t (costs : Ovs_sim.Costs.t) =
  match t.strategy with
  | Mutex -> costs.Ovs_sim.Costs.mutex_lock
  | Spinlock | Spinlock_batched -> costs.Ovs_sim.Costs.spinlock

let reset_stats t =
  t.stats.lock_acquisitions <- 0;
  t.stats.frame_ops <- 0;
  t.stats.batch_ops <- 0;
  t.stats.exhausted <- 0
