(** Single-producer/single-consumer descriptor ring, the core data
    structure of AF_XDP's four rings (fill, completion, rx, tx).
    Power-of-two sized and index-masked, like the kernel's. Producer and
    consumer operations are counted for the cost model.

    The type is opaque: cursors cannot be mutated from outside. One API
    serves two implementations selected at {!create} time —

    - {b plain} (default): ordinary mutable ints, for the single-threaded
      virtual-time simulator and the schedule explorer;
    - {b atomic} ([~atomic:true]): [Atomic.t] cursors following the SPSC
      publication protocol (slot write sequenced before cursor publish,
      cursor read sequenced before slot read), safe for one producer
      domain and one consumer domain in the real-parallelism engine.

    Both flavours charge identical operation counts, so the virtual-time
    cost model is unaffected by the cursor representation. *)

type desc = { addr : int; len : int }
(** [addr] is a umem frame index; [len] the packet length within it. *)

type t

val create : ?atomic:bool -> size:int -> unit -> t
(** [size] must be a positive power of two. [~atomic:true] selects
    [Atomic.t] cursors with the SPSC publication protocol.
    @raise Invalid_argument on a bad size. *)

val size : t -> int

val prod_idx : t -> int
(** Total descriptors ever produced (monotone, never masked). *)

val cons_idx : t -> int
(** Total descriptors ever consumed (monotone, never masked). *)

val ops : t -> int
(** Producer + consumer ring operations so far, for the cost model. *)

val available : t -> int
(** Descriptors ready to consume. Racy-but-conservative snapshot on an
    atomic ring (exact for the calling side's own next operation). *)

val free_space : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val produce : t -> desc -> bool
(** Produce one descriptor; [false] (dropped) when full. Producer side
    only. *)

val consume : t -> desc option
(** Consume one descriptor, or [None] when empty. Consumer side only. *)

val push : t -> desc -> bool
(** Alias of {!produce}, under the name the datapath has always used. *)

val pop : t -> desc option
(** Alias of {!consume}. *)

val pop_burst : t -> max:int -> desc list
(** Consume up to [max] descriptors, oldest first, as one ring operation —
    batching is the point of optimization O3. The consumer cursor is
    published once, after the whole batch is read. *)

val pop_burst_map : t -> max:int -> (desc -> 'a) -> 'a list
(** {!pop_burst} with each descriptor mapped through [f] as it is read
    (newest first; the list is still oldest first), building one list. *)

val push_burst : t -> desc list -> int
(** Produce a batch; returns how many fit. One ring operation; the
    producer cursor is published once, after the whole batch is written. *)

val peek : t -> int -> desc
(** [peek t i] is the [i]-th pending descriptor (0 = oldest) without
    consuming it. @raise Invalid_argument when fewer than [i+1] pending. *)

val corrupt_rewind_cons : t -> unit
(** Rewind the consumer cursor by one — a deliberate double-consume
    corruption for the schedule explorer's mutation harness
    (M_ring_rewind), proving the ring-sanity oracle catches cursor
    regression. No-op when no descriptor was ever consumed. Not a
    datapath operation. *)
