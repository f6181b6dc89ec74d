(** Network device models.

    One [t] models one interface: a physical multi-queue NIC (under the
    kernel driver, a DPDK userspace driver, or the kernel driver with
    AF_XDP sockets bound), a tap device, one side of a veth pair, or a
    vhostuser port. The model carries exactly the properties the paper's
    experiments vary: queue count, RSS, offload capabilities, link speed,
    per-queue XDP programs (Fig 6's whole-device vs per-queue attachment),
    and kernel visibility (which decides whether Table 1's tools work). *)

module Faults = Ovs_faults.Faults

let cov_link_down = Ovs_sim.Coverage.counter "netdev_link_down_drop"
let cov_rx_overflow = Ovs_sim.Coverage.counter "netdev_rx_overflow"

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

let fresh_stats () =
  { rx_packets = 0; rx_bytes = 0; rx_dropped = 0; tx_packets = 0; tx_bytes = 0 }

let create ?(kind = Physical) ?(driver = Kernel_driver) ?(queues = 1)
    ?(gbps = 10.) ?(queue_capacity = 4096) ?(mac = Ovs_packet.Mac.of_index 0)
    ~name () =
  {
    name;
    kind;
    driver;
    n_queues = queues;
    link_gbps = gbps;
    offloads = { rx_csum = true; tx_csum = true; tso = true };
    rx_queues = Array.init queues (fun _ -> Queue.create ());
    queue_capacity;
    rx_policy = Rx_drop;
    tx_sink = None;
    peer = None;
    xdp_progs = Array.make queues None;
    port_no = -1;
    stats = fresh_stats ();
    mac;
    up = true;
    ip_addr = 0;
  }

(** Is the device under a standard kernel driver (so ip/tcpdump/... work)?
    AF_XDP keeps the kernel driver — that is the compatibility argument of
    the whole paper; DPDK takes the device away from the kernel. *)
let kernel_visible t =
  match (t.kind, t.driver) with
  | _, Dpdk_driver -> false
  | (Physical | Tap | Veth), Kernel_driver -> true
  | Vhostuser, _ -> false

(** Line rate in packets per second for a given frame length, including
    preamble + inter-frame gap (20B). *)
let line_rate_pps t ~frame_len =
  t.link_gbps *. 1e9 /. (8. *. float_of_int (frame_len + 20))

(* -- receive side (packets arriving from the wire / a peer) -- *)

(** Deliver a packet into [queue]. Returns [true] when the device
    accepted it. [false] means the caller still owns the packet's frame:
    either the packet was dropped and counted here ([rx_dropped] — carrier
    down, or a full ring under [Rx_drop]) or it was refused {e uncounted}
    (full ring under [Rx_backpressure]); in both cases the frame can be
    recycled instead of leaked. *)
let enqueue_on t ~queue (pkt : Ovs_packet.Buffer.t) =
  if (not t.up) || Faults.link_down ~port:t.port_no then begin
    t.stats.rx_dropped <- t.stats.rx_dropped + 1;
    Ovs_sim.Coverage.incr cov_link_down;
    false
  end
  else
    let q = t.rx_queues.(queue) in
    if Queue.length q >= t.queue_capacity then
      match t.rx_policy with
      | Rx_drop ->
          t.stats.rx_dropped <- t.stats.rx_dropped + 1;
          Ovs_sim.Coverage.incr cov_rx_overflow;
          false
      | Rx_backpressure -> false
    else begin
      t.stats.rx_packets <- t.stats.rx_packets + 1;
      t.stats.rx_bytes <- t.stats.rx_bytes + Ovs_packet.Buffer.length pkt;
      Queue.push pkt q;
      true
    end

(** Deliver using receive-side scaling: the queue is chosen by the packet's
    5-tuple hash, as NIC hardware RSS does. Requires [rss_hash] set, or
    computes it from the key (hardware does this for free). Returns
    acceptance like {!enqueue_on}. *)
let rss_enqueue t (pkt : Ovs_packet.Buffer.t) =
  let h =
    if pkt.Ovs_packet.Buffer.rss_hash <> 0 then pkt.Ovs_packet.Buffer.rss_hash
    else begin
      let key = Ovs_packet.Flow_key.extract pkt in
      let h = Ovs_packet.Flow_key.rss_hash key in
      pkt.Ovs_packet.Buffer.rss_hash <- h;
      h
    end
  in
  enqueue_on t ~queue:(h mod t.n_queues) pkt

(** Poll up to [max] packets off one rx queue. A stalled queue (fault
    injection) yields nothing; its packets wait in place. *)
let dequeue t ~queue ~max =
  if Faults.rxq_stalled ~port:t.port_no ~queue then []
  else
    let q = t.rx_queues.(queue) in
    (* in queue order, with no reversal: a burst is at most [max] deep *)
    let rec take n =
      if n >= max || Queue.is_empty q then []
      else
        let pkt = Queue.pop q in
        pkt :: take (n + 1)
    in
    take 0

let pending t =
  Array.fold_left (fun n q -> n + Queue.length q) 0 t.rx_queues

(* -- transmit side -- *)

let set_tx_sink t sink = t.tx_sink <- Some sink

(** Transmit a packet out of this device (to its sink, if wired). *)
let transmit t (pkt : Ovs_packet.Buffer.t) =
  t.stats.tx_packets <- t.stats.tx_packets + 1;
  t.stats.tx_bytes <- t.stats.tx_bytes + Ovs_packet.Buffer.length pkt;
  match t.tx_sink with Some sink -> sink t pkt | None -> ()

(** Wire two devices back-to-back (the testbed's cabling): transmitting on
    one RSS-enqueues into the other. *)
let connect a b =
  a.peer <- Some b;
  b.peer <- Some a;
  set_tx_sink a (fun _ pkt -> ignore (rss_enqueue b pkt : bool));
  set_tx_sink b (fun _ pkt -> ignore (rss_enqueue a pkt : bool))

(** Create a veth pair: two devices whose transmits cross namespaces into
    each other without copying (Sec 3.4). *)
let veth_pair ~name_a ~name_b =
  let a = create ~kind:Veth ~name:name_a () in
  let b = create ~kind:Veth ~name:name_b () in
  connect a b;
  (a, b)

(* -- XDP attachment (Fig 6) -- *)

(** Attach an XDP program to one receive queue (the Mellanox model). *)
let attach_xdp t ~queue prog = t.xdp_progs.(queue) <- Some prog

(** Attach to every queue (the Intel model: all traffic hits the program). *)
let attach_xdp_all t prog =
  Array.iteri (fun i _ -> t.xdp_progs.(i) <- Some prog) t.xdp_progs

let detach_xdp t ~queue = t.xdp_progs.(queue) <- None
