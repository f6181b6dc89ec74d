(** Network device models.

    One [t] models one interface: a physical multi-queue NIC (under the
    kernel driver, a DPDK userspace driver, or the kernel driver with
    AF_XDP sockets bound), a tap device, one side of a veth pair, or a
    vhostuser port. The model carries exactly the properties the paper's
    experiments vary: queue count, RSS, offload capabilities, link speed,
    per-queue XDP programs (Fig 6) and kernel visibility (Table 1).

    The record types stay concrete — consumers across the tree read and
    mutate device state directly (the datapath assigns [port_no] and
    flips [driver]; scenarios read [stats] and clear [offloads.tso]) —
    but construction and the queue/XDP mechanics go through the functions
    below. *)

type driver =
  | Kernel_driver  (** standard in-kernel driver (kernel OVS, or AF_XDP) *)
  | Dpdk_driver  (** userspace PMD; invisible to kernel tools *)

type rx_policy =
  | Rx_drop  (** full ring: count the packet in [rx_dropped] (default) *)
  | Rx_backpressure
      (** full ring: refuse the packet uncounted; the sender must retry *)

type kind =
  | Physical
  | Tap  (** kernel-backed virtual device; userspace writes via syscalls *)
  | Veth  (** namespace-crossing pair member *)
  | Vhostuser  (** shared-memory virtio rings, no kernel involvement *)

type offloads = {
  mutable rx_csum : bool;
  mutable tx_csum : bool;
  mutable tso : bool;
}

type stats = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_dropped : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
}

type t = {
  name : string;
  kind : kind;
  mutable driver : driver;
  n_queues : int;
  link_gbps : float;
  offloads : offloads;
  rx_queues : Ovs_packet.Buffer.t Queue.t array;
  queue_capacity : int;
  mutable rx_policy : rx_policy;  (** what a full rx ring does *)
  mutable tx_sink : (t -> Ovs_packet.Buffer.t -> unit) option;
      (** where transmitted packets go (the wire, a peer, a VM) *)
  mutable peer : t option;  (** veth peer / wire peer *)
  mutable xdp_progs : Ovs_ebpf.Xdp.t option array;  (** per rx queue *)
  mutable port_no : int;  (** assigned by the datapath when added *)
  stats : stats;
  mutable mac : Ovs_packet.Mac.t;
  mutable up : bool;
  mutable ip_addr : int;  (** for the tools model; 0 = unassigned *)
}

val create :
  ?kind:kind ->
  ?driver:driver ->
  ?queues:int ->
  ?gbps:float ->
  ?queue_capacity:int ->
  ?mac:Ovs_packet.Mac.t ->
  name:string ->
  unit ->
  t

val kernel_visible : t -> bool
(** Is the device under a standard kernel driver (so ip/tcpdump/... work)?
    AF_XDP keeps the kernel driver — the paper's compatibility argument;
    DPDK takes the device away from the kernel. *)

val line_rate_pps : t -> frame_len:int -> float
(** Line rate in packets per second for a frame length, including
    preamble + inter-frame gap (20B). *)

(** {1 Receive side} *)

val enqueue_on : t -> queue:int -> Ovs_packet.Buffer.t -> bool
(** Deliver a packet into [queue]. [true] when accepted. [false] means
    the caller still owns the frame: the packet was dropped-and-counted
    ([rx_dropped] — carrier down or full ring under [Rx_drop]) or refused
    uncounted (full ring under [Rx_backpressure]); recycle it, don't leak
    it. *)

val rss_enqueue : t -> Ovs_packet.Buffer.t -> bool
(** Deliver using receive-side scaling: queue chosen by the packet's
    5-tuple hash, as NIC hardware RSS does. Acceptance as {!enqueue_on}. *)

val dequeue : t -> queue:int -> max:int -> Ovs_packet.Buffer.t list
(** Poll up to [max] packets off one rx queue. A queue stalled by fault
    injection yields nothing; its packets wait in place. *)

val pending : t -> int
(** Packets waiting across all rx queues. *)

(** {1 Transmit side} *)

val set_tx_sink : t -> (t -> Ovs_packet.Buffer.t -> unit) -> unit

val transmit : t -> Ovs_packet.Buffer.t -> unit
(** Transmit a packet out of this device (to its sink, if wired). *)

val connect : t -> t -> unit
(** Wire two devices back-to-back (the testbed's cabling): transmitting
    on one RSS-enqueues into the other. *)

val veth_pair : name_a:string -> name_b:string -> t * t
(** A veth pair: two devices whose transmits cross namespaces into each
    other without copying (Sec 3.4). *)

(** {1 XDP attachment (Fig 6)} *)

val attach_xdp : t -> queue:int -> Ovs_ebpf.Xdp.t -> unit
(** Attach an XDP program to one receive queue (the Mellanox model). *)

val attach_xdp_all : t -> Ovs_ebpf.Xdp.t -> unit
(** Attach to every queue (the Intel model). *)

val detach_xdp : t -> queue:int -> unit
