(** The datapath interface: one engine, four flavors.

    [Kernel] is the traditional openvswitch.ko module; [Kernel_ebpf] the
    Sec 2.2.2 eBPF prototype; [Dpdk] the all-userspace OVS-DPDK; [Afxdp]
    the paper's contribution, with every optimization of Sec 3.2 as a
    switch. The engine moves real packets through real caches and real
    rings, charging calibrated virtual time to the supplied execution
    contexts; experiments read throughput as packets over the bottleneck
    context's busy time, and CPU usage from the context breakdown. *)

module FK = Ovs_packet.Flow_key
module Costs = Ovs_sim.Costs
module Cpu = Ovs_sim.Cpu

type afxdp_opts = {
  pmd_threads : bool;  (** O1: dedicated poll-mode threads *)
  lock : Ovs_xsk.Umempool.lock_strategy;  (** O2/O3 *)
  metadata : Ovs_xsk.Dp_packet_pool.mode;  (** O4 *)
  csum_offload : bool;  (** O5: emulated checksum offload *)
  copy_mode : bool;  (** XDP_SKB universal fallback (extra copy) *)
  batch_size : int;
  frames_per_queue : int;
      (** umem frames allocated per rx queue (default 4096). The schedule
          explorer shrinks this so rebuilding a model per explored
          schedule stays cheap. *)
}

(** The fully optimized configuration (the merged upstream default). *)
let afxdp_default =
  {
    pmd_threads = true;
    lock = Ovs_xsk.Umempool.Spinlock_batched;
    metadata = Ovs_xsk.Dp_packet_pool.Preallocated;
    csum_offload = true;
    copy_mode = false;
    batch_size = 32;
    frames_per_queue = 4096;
  }

(** The Table 2 ladder: cumulative optimization levels O0..O5. *)
let afxdp_ladder =
  [
    ("none", { afxdp_default with pmd_threads = false; lock = Ovs_xsk.Umempool.Mutex;
               metadata = Ovs_xsk.Dp_packet_pool.Per_packet_alloc; csum_offload = false });
    ("O1", { afxdp_default with lock = Ovs_xsk.Umempool.Mutex;
             metadata = Ovs_xsk.Dp_packet_pool.Per_packet_alloc; csum_offload = false });
    ("O1+O2", { afxdp_default with lock = Ovs_xsk.Umempool.Spinlock;
                metadata = Ovs_xsk.Dp_packet_pool.Per_packet_alloc; csum_offload = false });
    ("O1+O2+O3", { afxdp_default with
                   metadata = Ovs_xsk.Dp_packet_pool.Per_packet_alloc;
                   csum_offload = false });
    ("O1+O2+O3+O4", { afxdp_default with csum_offload = false });
    ("O1+O2+O3+O4+O5", afxdp_default);
  ]

type kind = Kernel | Kernel_ebpf | Dpdk | Afxdp of afxdp_opts

let kind_name = function
  | Kernel -> "kernel"
  | Kernel_ebpf -> "eBPF"
  | Dpdk -> "DPDK"
  | Afxdp _ -> "AF_XDP"

(** How a port is attached to this datapath. *)
type attach =
  | At_phy_kernel  (** kernel driver rx/tx in softirq *)
  | At_phy_dpdk  (** userspace PMD driver *)
  | At_phy_xsk of {
      xsks : Ovs_xsk.Xsk.t array;  (** one per queue *)
      pool : Ovs_xsk.Umempool.t;
      mutable prog : Ovs_ebpf.Xdp.t;  (** replaceable without restarting OVS *)
    }
  | At_tap
  | At_vhost
  | At_veth

type port = {
  dev : Ovs_netdev.Netdev.t;
  attach : attach;
  port_no : int;
}

type t = {
  kind : kind;
  costs : Costs.t;
  core : Dp_core.t;
  mutable ports : port option array;
      (** indexed by port number, which {!add_port} hands out densely
          from 0; grown by doubling *)
  mutable next_port : int;
  mutable serialized_tx : Ovs_sim.Time.ns;
      (** kernel tx-queue critical section accumulation: a rate floor the
          harness applies to the wall time in multiqueue runs *)
  mutable active_queues : int;  (** queues observed carrying traffic *)
  metadata_pool : Ovs_xsk.Dp_packet_pool.t;
  vm : Ovs_ebpf.Vm.t;  (** scratch VM for any per-port XDP programs *)
  latency : Ovs_sim.Quantiles.t;
      (** per-packet sojourn times (ingress stamp to egress), recorded by
          the egress sink via {!record_latency}; empty unless the traffic
          rig arms latency measurement *)
}

let flavor_of_kind = function
  | Kernel -> Dp_core.Flavor_kernel
  | Kernel_ebpf -> Dp_core.Flavor_kernel_ebpf
  | Dpdk | Afxdp _ -> Dp_core.Flavor_userspace

let afxdp_opts t =
  match t.kind with Afxdp o -> o | Kernel | Kernel_ebpf | Dpdk -> afxdp_default

let create ?(costs = Costs.default) ~kind ~pipeline () =
  let core = Dp_core.create ~flavor:(flavor_of_kind kind) ~costs ~pipeline () in
  let opts = match kind with Afxdp o -> o | _ -> afxdp_default in
  Dp_core.set_csum_offload core
    (match kind with
    | Afxdp o -> o.csum_offload
    | Dpdk | Kernel | Kernel_ebpf -> true);
  {
    kind;
    costs;
    core;
    ports = Array.make 8 None;
    next_port = 0;
    serialized_tx = 0.;
    active_queues = 0;
    metadata_pool = Ovs_xsk.Dp_packet_pool.create ~mode:opts.metadata;
    vm = Ovs_ebpf.Vm.create ();
    latency = Ovs_sim.Quantiles.create ();
  }

let port t no = if no >= 0 && no < t.next_port then t.ports.(no) else None
let conntrack t = Dp_core.conntrack t.core
let counters t = Dp_core.counters t.core

(* -- transmit paths (bound into the core's output hook) -- *)

let batchf t = float_of_int (afxdp_opts t).batch_size

(* Transmitting puts a private copy of the live bytes on the wire so umem
   frames can be reused; the copy stands for the NIC's DMA read. (A full
   Buffer.clone would duplicate the whole umem arena for frame-aliased
   buffers, so only the live region is copied, once.) *)
let put_on_wire (dev : Ovs_netdev.Netdev.t) (pkt : Ovs_packet.Buffer.t) =
  let copy = Ovs_packet.Buffer.copy_live pkt in
  copy.Ovs_packet.Buffer.rss_hash <- pkt.Ovs_packet.Buffer.rss_hash;
  copy.Ovs_packet.Buffer.birth_ns <- pkt.Ovs_packet.Buffer.birth_ns;
  Ovs_netdev.Netdev.transmit dev copy

let tx_cost t (charge : Dp_core.charge_fn) (p : port) (pkt : Ovs_packet.Buffer.t) =
  let c = t.costs in
  let len = Ovs_packet.Buffer.length pkt in
  match p.attach with
  | At_phy_kernel ->
      let contended = t.active_queues > 1 in
      let section =
        if contended then c.Costs.txq_serialized_contended
        else c.Costs.txq_lock_serialized
      in
      t.serialized_tx <- t.serialized_tx +. section;
      charge Cpu.Softirq
        (section +. if contended then c.Costs.lock_contended_penalty else 0.)
  | At_phy_dpdk -> charge Cpu.User c.Costs.dpdk_tx
  | At_phy_xsk _ ->
      (* tx descriptor now; the kick syscall and driver work are charged
         per-batch as system time (sendto-driven tx completion) *)
      charge Cpu.User c.Costs.xsk_ring_op;
      charge Cpu.System
        (c.Costs.driver_tx
        +. (c.Costs.xsk_kick_syscall /. batchf t)
        +. (if (afxdp_opts t).copy_mode then
              c.Costs.afxdp_copy_mode_per_byte *. float_of_int len
            else 0.))
  | At_tap -> begin
      match t.kind with
      | Kernel | Kernel_ebpf ->
          (* intra-kernel function call; data already in kernel memory *)
          charge Cpu.Softirq c.Costs.kernel_func_call
      | Dpdk | Afxdp _ ->
          (* sendto(2) on the tap fd, ~2us, amortized over a small batch
             (sendmmsg-style batching caps the damage; Sec 3.3) *)
          charge Cpu.System
            ((c.Costs.sendto_tap /. 4.) +. Costs.copy c ~bytes:len);
          charge Cpu.Softirq c.Costs.tap_rx_kernel
    end
  | At_vhost ->
      charge Cpu.User
        (c.Costs.virtio_ring_op +. c.Costs.vhost_copy_fixed
        +. Costs.copy c ~bytes:len);
      (match t.kind with
      | Afxdp _ ->
          (* the AF_XDP PMD interleaves XSK kicks with vhost work and ends
             up signalling the guest via eventfd per batch; DPDK busy-polls
             both rings and never syscalls *)
          charge Cpu.System (c.Costs.syscall /. batchf t)
      | Dpdk | Kernel | Kernel_ebpf -> ())
  | At_veth -> begin
      match t.kind with
      | Kernel | Kernel_ebpf -> charge Cpu.Softirq c.Costs.veth_cross
      | Dpdk | Afxdp _ ->
          (* userspace reaches a veth through an AF_XDP socket bound to it
             (path A of Fig 5): ring op + amortized kick *)
          charge Cpu.User c.Costs.xsk_ring_op;
          charge Cpu.System
            (c.Costs.driver_tx +. (c.Costs.xsk_kick_syscall /. batchf t));
          charge Cpu.Softirq c.Costs.veth_cross
    end

let bind_output t =
  Dp_core.set_output t.core
    (fun charge port_no pkt ->
      match port t port_no with
      | None -> ()
      | Some p ->
          tx_cost t charge p pkt;
          (* devices without TSO get software GSO: the datapath segments
             oversized TCP frames itself (Sec 6's reimplementation cost) *)
          if
            Ovs_packet.Buffer.length pkt > 1514
            && not p.dev.Ovs_netdev.Netdev.offloads.Ovs_netdev.Netdev.tso
          then begin
            let segs = Ovs_packet.Gso.segment pkt ~mtu:1500 in
            let n = List.length segs in
            if n > 1 then
              charge (Dp_core.fastpath_category t.core)
                (float_of_int n
                *. (t.costs.Costs.tcp_stack_per_packet
                   +. Ovs_sim.Costs.csum t.costs ~bytes:1500));
            List.iter (put_on_wire p.dev) segs
          end
          else put_on_wire p.dev pkt)

(** Add a device to the datapath; attachment is inferred from the device
    kind and the datapath flavor. Returns the port number. *)
let add_port t (dev : Ovs_netdev.Netdev.t) : int =
  let no = t.next_port in
  t.next_port <- t.next_port + 1;
  dev.Ovs_netdev.Netdev.port_no <- no;
  let attach =
    match (dev.Ovs_netdev.Netdev.kind, t.kind) with
    | Ovs_netdev.Netdev.Physical, Kernel | Ovs_netdev.Netdev.Physical, Kernel_ebpf
      -> At_phy_kernel
    | Ovs_netdev.Netdev.Physical, Dpdk ->
        dev.Ovs_netdev.Netdev.driver <- Ovs_netdev.Netdev.Dpdk_driver;
        At_phy_dpdk
    | Ovs_netdev.Netdev.Physical, Afxdp _ ->
        let n = dev.Ovs_netdev.Netdev.n_queues in
        let fpq = (afxdp_opts t).frames_per_queue in
        let umem = Ovs_xsk.Umem.create ~n_frames:(fpq * n) ~ring_size:2048 () in
        let pool =
          Ovs_xsk.Umempool.create ~n_frames:(fpq * n)
            ~strategy:(afxdp_opts t).lock ()
        in
        (* keep half of each queue's frame share in the fill ring so a
           shrunken umem still leaves the pool headroom *)
        let fill_target = Int.min 1024 (fpq / 2) in
        let xskmap =
          Ovs_ebpf.Maps.create ~name:(dev.Ovs_netdev.Netdev.name ^ "_xsk")
            ~kind:Ovs_ebpf.Maps.Xskmap ~max_entries:64
        in
        let xsks =
          Array.init n (fun q ->
              let xsk =
                Ovs_xsk.Xsk.create ~fill_target ~umem ~pool ~queue_id:q ()
              in
              ignore (Ovs_ebpf.Maps.update xskmap (Int64.of_int q) (Int64.of_int q));
              ignore (Ovs_xsk.Xsk.refill xsk 0);
              xsk)
        in
        let prog =
          Ovs_ebpf.Xdp.load_exn ~name:"xsk_default"
            (Ovs_ebpf.Progs.xsk_default ~xskmap)
        in
        Ovs_netdev.Netdev.attach_xdp_all dev prog;
        At_phy_xsk { xsks; pool; prog }
    | Ovs_netdev.Netdev.Tap, _ -> At_tap
    | Ovs_netdev.Netdev.Vhostuser, _ -> At_vhost
    | Ovs_netdev.Netdev.Veth, _ -> At_veth
  in
  if no = Array.length t.ports then
    t.ports <- Array.append t.ports (Array.make (Array.length t.ports) None);
  t.ports.(no) <- Some { dev; attach; port_no = no };
  bind_output t;
  no

(* -- receive paths -- *)

(** Per-packet metadata + key preparation on the userspace fast path,
    then the datapath pass. A software RSS hash is computed from the flow
    key, the way OVS hashes the miniflow; that key is the one the first
    pass looks up, so the packet is extracted once. [charge] bills the
    rx-side work; [charge_pass] goes to the pass unwrapped (see {!poll}). *)
let userspace_rx t (charge : Dp_core.charge_fn) ~(charge_pass : Dp_core.charge_fn)
    pkt ~need_rxhash =
  let c = t.costs in
  Ovs_xsk.Dp_packet_pool.acquire t.metadata_pool;
  charge Cpu.User (Ovs_xsk.Dp_packet_pool.metadata_cost t.metadata_pool c);
  let extracted = need_rxhash && pkt.Ovs_packet.Buffer.rss_hash = 0 in
  if need_rxhash then begin
    (* AF_XDP cannot read NIC hash hints yet (Sec 5.5): software rxhash *)
    charge Cpu.User c.Costs.rxhash_sw;
    if extracted then
      pkt.Ovs_packet.Buffer.rss_hash <- FK.rss_hash (Dp_core.extract_key t.core pkt)
  end;
  (* software checksum validation when the NIC's hint is unavailable *)
  if not (Dp_core.csum_offload t.core) then
    charge Cpu.User (Costs.csum c ~bytes:(Ovs_packet.Buffer.length pkt));
  if extracted then Dp_core.process_extracted t.core charge_pass pkt
  else Dp_core.process t.core charge_pass pkt

(** Poll one port's queue and run every dequeued packet through the
    datapath. [softirq] is the kernel-side context for that queue; [pmd]
    the userspace thread (ignored by kernel flavors). Returns packets
    processed. *)
let poll t ~(softirq : Cpu.ctx) ~(pmd : Cpu.ctx) ?(max = 32) ~port_no ~queue ()
    : int =
  let c = t.costs in
  let p =
    match port t port_no with
    | Some p -> p
    | None -> invalid_arg "Dpif.poll: unknown port"
  in
  let opts = afxdp_opts t in
  let charge_softirq cat ns = Cpu.charge softirq cat ns in
  let charge_pmd cat ns = Cpu.charge pmd cat ns in
  (* Driver/rx-side work is attributed to the rx stage when traced.
     [Dp_core.process] wraps its charge_fn itself, so it must always be
     handed the *raw* closures — wrapping here too would double-count. *)
  let traced (f : Dp_core.charge_fn) : Dp_core.charge_fn =
    match Dp_core.tracer t.core with
    | None -> f
    | Some r ->
        fun cat ns ->
          Ovs_sim.Trace.set_stage r Ovs_sim.Trace.St_rx;
          Ovs_sim.Trace.on_charge r ns;
          f cat ns
  in
  let rx_softirq = traced charge_softirq in
  let rx_pmd = traced charge_pmd in
  match p.attach with
  | At_phy_kernel -> begin
      (* NAPI poll in softirq: interrupt + batch dispatch, then per-packet
         skb allocation, datapath lookup, actions *)
      let pkts = Ovs_netdev.Netdev.dequeue p.dev ~queue ~max in
      let n = List.length pkts in
      if n > 0 then begin
        rx_softirq Cpu.Softirq c.Costs.softirq_dispatch;
        let multiq = t.active_queues > 1 in
        List.iter
          (fun pkt ->
            pkt.Ovs_packet.Buffer.in_port <- port_no;
            rx_softirq Cpu.Softirq
              ((if multiq then c.Costs.skb_alloc_cold else c.Costs.skb_alloc)
              +. if multiq then c.Costs.kmod_rss_penalty else 0.);
            Dp_core.process t.core charge_softirq pkt)
          pkts
      end;
      n
    end
  | At_phy_dpdk -> begin
      let pkts = Ovs_netdev.Netdev.dequeue p.dev ~queue ~max in
      let mq_penalty =
        c.Costs.dpdk_mq_penalty_per_queue *. float_of_int (Int.max 0 (t.active_queues - 1))
      in
      List.iter
        (fun pkt ->
          pkt.Ovs_packet.Buffer.in_port <- port_no;
          rx_pmd Cpu.User (c.Costs.dpdk_rx +. mq_penalty);
          userspace_rx t rx_pmd ~charge_pass:charge_pmd pkt ~need_rxhash:false)
        pkts;
      List.length pkts
    end
  | At_phy_xsk { xsks; pool; prog } -> begin
      let xsk = xsks.(queue) in
      (* kernel side: driver + XDP program + XSK delivery, in softirq *)
      let wire_pkts = Ovs_netdev.Netdev.dequeue p.dev ~queue ~max in
      if wire_pkts <> [] then
        rx_softirq Cpu.Softirq c.Costs.softirq_dispatch;
      List.iter
        (fun (pkt : Ovs_packet.Buffer.t) ->
          (* descriptor + headers ride one cache line; the per-byte DMA
             cost applies to the bytes beyond it *)
          rx_softirq Cpu.Softirq
            (c.Costs.driver_rx_dma
            +. (c.Costs.afxdp_rx_per_byte
               *. float_of_int (Int.max 0 (Ovs_packet.Buffer.length pkt - 256))));
          let action, cost = Ovs_ebpf.Xdp.run prog c pkt in
          rx_softirq Cpu.Softirq cost;
          match action with
          | Ovs_ebpf.Vm.Redirect (Ovs_ebpf.Maps.Devmap, target_port) -> begin
              (* Fig 5 path C: straight to another device at driver level *)
              rx_softirq Cpu.Softirq c.Costs.xdp_redirect;
              match port t target_port with
              | Some target ->
                  (match target.attach with
                  | At_veth -> rx_softirq Cpu.Softirq c.Costs.veth_cross
                  | _ -> ());
                  put_on_wire target.dev pkt
              | None -> ()
            end
          | Ovs_ebpf.Vm.Redirect (_, _) ->
              rx_softirq Cpu.Softirq (2. *. c.Costs.xsk_ring_op);
              if opts.copy_mode then
                rx_softirq Cpu.Softirq
                  (c.Costs.afxdp_copy_mode_per_byte
                  *. float_of_int (Ovs_packet.Buffer.length pkt));
              ignore
                (Ovs_xsk.Xsk.kernel_rx xsk
                   ~birth_ns:pkt.Ovs_packet.Buffer.birth_ns
                   ~off:pkt.Ovs_packet.Buffer.start pkt.Ovs_packet.Buffer.data
                   ~len:(Ovs_packet.Buffer.length pkt))
          | Ovs_ebpf.Vm.Tx ->
              rx_softirq Cpu.Softirq (c.Costs.driver_tx +. c.Costs.xdp_tx);
              put_on_wire p.dev pkt
          | Ovs_ebpf.Vm.Pass ->
              (* up the regular stack (management traffic) *)
              rx_softirq Cpu.Softirq c.Costs.skb_alloc
          | Ovs_ebpf.Vm.Drop | Ovs_ebpf.Vm.Aborted -> ())
        wire_pkts;
      (* userspace side: PMD thread (or the main thread without O1) *)
      let batch = Ovs_xsk.Xsk.rx_burst xsk ~max in
      let n = List.length batch in
      (* refill the fill ring for the next burst — even on an idle poll:
         after a pool-exhaustion episode the fill ring can be empty with
         nothing in flight, and only the refill un-wedges rx *)
      ignore (Ovs_xsk.Xsk.refill xsk n);
      if n > 0 then begin
        rx_pmd Cpu.User c.Costs.xsk_ring_op;  (* one burst pop *)
        if not opts.pmd_threads then
          (* without dedicated threads the main loop polls via syscalls and
             takes scheduler round trips (Sec 3.2, O1: 0.8 -> 4.8 Mpps) *)
          rx_pmd Cpu.System
            (float_of_int n
            *. (c.Costs.syscall +. (0.53 *. c.Costs.context_switch)));
        let lock = Ovs_xsk.Umempool.lock_cost pool c in
        let lock_events =
          match opts.lock with
          | Ovs_xsk.Umempool.Spinlock_batched -> 2.  (* per batch *)
          | Ovs_xsk.Umempool.Mutex | Ovs_xsk.Umempool.Spinlock ->
              2. *. float_of_int n
        in
        rx_pmd Cpu.User
          ((lock_events *. lock) +. (float_of_int n *. c.Costs.umem_frame_op));
        let mq_penalty =
          c.Costs.afxdp_mq_penalty_per_queue
          *. float_of_int (Int.max 0 (t.active_queues - 1))
        in
        List.iter
          (fun (frame, pkt) ->
            pkt.Ovs_packet.Buffer.in_port <- port_no;
            rx_pmd Cpu.User mq_penalty;
            userspace_rx t rx_pmd ~charge_pass:charge_pmd pkt ~need_rxhash:true;
            Ovs_xsk.Xsk.release xsk ~frame)
          batch;
        ignore (Ovs_xsk.Xsk.flush_tx xsk)
      end;
      n
    end
  | At_tap | At_vhost | At_veth -> begin
      (* traffic coming back from a VM/container into the datapath *)
      let pkts = Ovs_netdev.Netdev.dequeue p.dev ~queue ~max in
      List.iter
        (fun pkt ->
          pkt.Ovs_packet.Buffer.in_port <- port_no;
          match t.kind with
          | Kernel | Kernel_ebpf ->
              rx_softirq Cpu.Softirq
                (match p.attach with
                | At_veth -> c.Costs.veth_cross
                | _ -> c.Costs.tap_rx_kernel);
              Dp_core.process t.core charge_softirq pkt
          | Dpdk | Afxdp _ ->
              (match p.attach with
              | At_tap ->
                  (* read(2) from the tap fd, amortized like the tx side *)
                  rx_pmd Cpu.System
                    ((c.Costs.sendto_tap /. 4.)
                    +. Costs.copy c ~bytes:(Ovs_packet.Buffer.length pkt))
              | _ ->
                  rx_pmd Cpu.User
                    (c.Costs.virtio_ring_op +. c.Costs.vhost_copy_fixed
                    +. Costs.copy c ~bytes:(Ovs_packet.Buffer.length pkt)));
              userspace_rx t rx_pmd ~charge_pass:charge_pmd pkt
                ~need_rxhash:(match t.kind with Afxdp _ -> true | _ -> false))
        pkts;
      List.length pkts
    end

(** Tell the datapath how many receive queues are actually carrying
    traffic (drives the kernel's multiqueue contention model). *)
let set_active_queues t n = t.active_queues <- n

(** Swap the XDP program on an AF_XDP physical port — e.g. to route
    container traffic at the driver level (Sec 3.4/3.5). OVS loads and
    unloads XDP programs without restarting. *)
let set_xdp_program t ~port_no prog =
  match port t port_no with
  | Some ({ attach = At_phy_xsk a; dev; _ } : port) ->
      a.prog <- prog;
      Ovs_netdev.Netdev.attach_xdp_all dev prog
  | Some _ | None -> invalid_arg "Dpif.set_xdp_program: not an AF_XDP port"

(** Reset counters and serialized-time accumulators between measurement
    phases (caches and conntrack state are preserved — warm start). *)
let reset_measurement t =
  t.serialized_tx <- 0.;
  Dp_core.reset_counters t.core;
  Ovs_sim.Quantiles.reset t.latency;
  match Dp_core.tracer t.core with
  | Some r -> Ovs_sim.Trace.reset r
  | None -> ()

(* -- the stable command/accessor surface over the sealed record -- *)

let kind t = t.kind
let costs t = t.costs
let ports t = List.filter_map Fun.id (Array.to_list (Array.sub t.ports 0 t.next_port))
let serialized_tx t = t.serialized_tx
let active_queues t = t.active_queues
let latency t = t.latency

(** Record one delivered packet's sojourn time: [now] minus the ingress
    stamp. Unstamped packets (latency measurement off, or a generated
    frame such as a GSO segment's sibling) record nothing — so dropped
    packets can never leak samples; only an egress sink calls this. *)
let record_latency t ~now (pkt : Ovs_packet.Buffer.t) =
  let birth = pkt.Ovs_packet.Buffer.birth_ns in
  if birth >= 0. then
    Ovs_sim.Quantiles.add t.latency (Float.max 0. (now -. birth))

(** Per-queue XSK sockets of an AF_XDP physical port (for the PMD runtime
    to claim ring ownership), or [None] for other attachments. *)
let xsks t ~port_no =
  match port t port_no with
  | Some { attach = At_phy_xsk { xsks; _ }; _ } -> Some xsks
  | Some _ | None -> None

(** The umem pool behind an AF_XDP physical port (for health monitoring
    and frame-leak repair), or [None] for other attachments. *)
let umem_pool t ~port_no =
  match port t port_no with
  | Some { attach = At_phy_xsk { pool; _ }; _ } -> Some pool
  | Some _ | None -> None

let set_emc_enabled t v = Dp_core.set_emc_enabled t.core v
let set_smc_enabled t v = Dp_core.set_smc_enabled t.core v
let set_ccache_enabled t v = Dp_core.set_ccache_enabled t.core v
let ccache_enabled t = Dp_core.ccache_enabled t.core
let set_ccache_autoretrain t thr = Dp_core.set_ccache_autoretrain t.core thr
let ccache_train t charge = Dp_core.ccache_train t.core charge
let ccache_last_train t = Dp_core.ccache_last_train t.core
let ccache_render t = Dp_core.ccache_render t.core
let ccache_selfcheck t keys = Dp_core.ccache_selfcheck t.core keys
let dpcls_stats t = Dp_core.dpcls_stats t.core
let flush_caches t = Dp_core.flush_caches t.core
let revalidate t = Dp_core.revalidate t.core
let pipeline t = Dp_core.pipeline t.core
let swap_pipeline t p = Dp_core.swap_pipeline t.core p
let set_ct_shards t n = Dp_core.set_ct_shards t.core n
let set_revalidator_enabled t v = Dp_core.set_revalidator_enabled t.core v
let revalidator_enabled t = Dp_core.revalidator_enabled t.core
let revalidator_stats t = Dp_core.revalidator_stats t.core
let revalidator_render t add = Dp_core.revalidator_render t.core add
let revalidate_incremental t = Dp_core.revalidate_incremental t.core
let revalidate_check t = Dp_core.revalidate_check t.core
let now t = Dp_core.now t.core
let dump_megaflows t = Dp_core.dump_megaflows t.core
let set_meter t ~id ~rate_pps ~burst = Dp_core.set_meter t.core ~id ~rate_pps ~burst
let meter_stats t ~id = Dp_core.meter_stats t.core ~id
let set_controller t f = Dp_core.set_controller t.core f
let set_time t now = Dp_core.set_now t.core now
let set_upcall_hook t h = Dp_core.set_upcall_hook t.core h
let handle_upcall t charge pkt key = Dp_core.handle_upcall t.core charge pkt key
let fastpath_category t = Dp_core.fastpath_category t.core
let set_tracer t r = Dp_core.set_tracer t.core r
let tracer t = Dp_core.tracer t.core

(** Run one packet straight through the datapath core (no port/driver
    model) — what ofproto/trace uses to walk an injected packet. *)
let process t charge pkt = Dp_core.process t.core charge pkt
