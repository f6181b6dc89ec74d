(** The Sec 5.2 forwarding-rate scenarios: P2P, PVP and PCP loopbacks.

    A TRex-like generator offers minimum-size UDP packets on one physical
    port; the datapath forwards them across the scenario-specific path and
    back out the other port. The measured rate is packets over the busiest
    execution context's virtual time (the pipeline bottleneck), capped at
    line rate; CPU usage is the Table 4 breakdown. *)

module Cpu = Ovs_sim.Cpu
module Costs = Ovs_sim.Costs
module Time = Ovs_sim.Time
module Netdev = Ovs_netdev.Netdev
module Dpif = Ovs_datapath.Dpif
module Pmd = Ovs_datapath.Pmd
module Health = Ovs_datapath.Health
module Faults = Ovs_faults.Faults
module Engine = Ovs_datapath.Engine
module Engine_vt = Ovs_datapath.Engine_vt
module Engine_domains = Ovs_datapath.Engine_domains

type virt = Vm_tap | Vm_vhost | Ct_veth | Ct_xdp | Ct_afpacket

let virt_name = function
  | Vm_tap -> "tap"
  | Vm_vhost -> "vhostuser"
  | Ct_veth -> "veth"
  | Ct_xdp -> "XDP program"
  | Ct_afpacket -> "af_packet"

type topology =
  | P2P
  | PVP of virt
  | PCP of virt
  | Chain of virt * int
      (** a service chain: [hops] virtual network functions in sequence
          (phy0 -> v1 -> ... -> vn -> phy1), each a guest/container
          bounce like the PVP/PCP endpoints. 2–4 hops is the
          NFV-benchmarking sweet spot; [Ct_xdp] is not supported (its
          redirect path bypasses the datapath). *)

type result = {
  rate_mpps : float;
  wall_ns : Ovs_sim.Time.ns;
  cpu : Cpu.breakdown;
  packets : int;
  line_limited : bool;
  pmds : Ovs_datapath.Pmd.report list;
      (** per-PMD breakdowns on a userspace datapath (every one runs
          the poll-mode runtime); empty on the kernel flavours *)
  busy_ns : Ovs_sim.Time.ns;
      (** summed busy time across every execution context — the charged
          total a stage trace's per-stage sums must reproduce *)
  stage_trace : Ovs_sim.Trace.t option;
      (** the measurement phase's per-stage cycle attribution, when the
          run was configured with [trace] *)
}

let pp_result ppf r =
  Fmt.pf ppf "%6.2f Mpps%s  cpu[%a]" r.rate_mpps
    (if r.line_limited then " (line rate)" else "")
    Cpu.pp_breakdown r.cpu

(* per-packet cost of a guest vCPU forwarding between two virtio queues *)
let guest_fwd_cost (c : Costs.t) =
  (2. *. c.Costs.virtio_ring_op) +. 45.

(* a container application echoing through its kernel stack: two socket
   syscalls plus an abbreviated stack traversal each way *)
let container_echo_cost (c : Costs.t) = (2. *. c.Costs.syscall) +. 120.

(** Which fast-path cache layers serve lookups (an ablation knob for the
    design choice Sec 2.1 describes: the kernel community rejected the
    exact-match cache, userspace kept it and later added the SMC). *)
type cache_mode = Cache_default | Cache_none | Cache_smc_only | Cache_emc_smc

type config = {
  kind : Dpif.kind;
  topology : topology;
  n_flows : int;
  frame_len : int;
  queues : int;
  gbps : float;
  warmup : int;
  measure : int;
  cache : cache_mode;
  ccache : bool;
      (** enable (and train after warmup) the computational cache — the
          learned classifier tier between SMC and dpcls *)
  mix : Pktgen.mix;  (** flow-choice distribution over the template set *)
  n_pmds : int;
      (** PMD cores the {!Ovs_datapath.Pmd} runtime shards the [queues]
          rx queues over on a userspace datapath; 0 (the default) means
          one PMD per rx queue. The kernel flavours have no PMD and
          ignore it. *)
  trace : bool;  (** attach a per-stage cycle tracer to the datapath *)
  faults : Faults.plan option;
      (** arm this fault plan over the measurement ({!run_chaos}) *)
  rx_policy : Netdev.rx_policy;  (** ingress NIC's full-ring behavior *)
  strict_match : bool;
      (** P2P: match udp explicitly with a default-drop rule, so mangled
          packets become accounted drops instead of riding a wildcard *)
  ct_zone : int option;
      (** P2P: send traffic through ct(commit) in this zone with an
          invalid-state drop rule (the conntrack-pressure target) *)
  upcall_capacity : int;  (** per-PMD upcall queue bound *)
  retry_capacity : int;
      (** per-PMD retry queue bound — the schedule explorer shrinks both
          so its bounded-queue oracle bites at tiny packet counts *)
  engine : Engine.mode;
      (** which execution engine drives the PMD leg: [`Vt] (default) is
          the deterministic virtual-time scheduler; [`Domains n] runs the
          P2P rig on [n] real OCaml domains and measures wall-clock Mpps *)
  latency : bool;
      (** arm per-packet sojourn-time measurement: the generator becomes
          a paced line-rate core ([offered_mpps]), stamps each packet's
          birth on its arrival clock, and the egress sink records
          sojourns into the datapath's {!Ovs_sim.Quantiles} sketch.
          Off (the default) creates no context and stamps nothing, so
          existing runs stay byte-identical. *)
  offered_mpps : float;
      (** offered rate for the paced latency driver, Mpps; 0. (default)
          offers at line rate *)
  burst : Pktgen.onoff option;
      (** bursty on-off generator mode for the paced driver *)
}

let default_config =
  {
    kind = Dpif.Afxdp Dpif.afxdp_default;
    topology = P2P;
    n_flows = 1;
    frame_len = 64;
    queues = 1;
    gbps = 25.;
    warmup = 4_000;
    measure = 40_000;
    cache = Cache_default;
    ccache = false;
    mix = Pktgen.Uniform;
    n_pmds = 0;
    trace = false;
    faults = None;
    rx_policy = Netdev.Rx_drop;
    strict_match = false;
    ct_zone = None;
    upcall_capacity = 512;
    retry_capacity = 256;
    engine = `Vt;
    latency = false;
    offered_mpps = 0.;
    burst = None;
  }

(** Builder over {!default_config}, so call sites survive new fields. *)
let config ?(kind = default_config.kind) ?(topology = default_config.topology)
    ?(n_flows = default_config.n_flows) ?(frame_len = default_config.frame_len)
    ?(queues = default_config.queues) ?(gbps = default_config.gbps)
    ?(warmup = default_config.warmup) ?(measure = default_config.measure)
    ?(cache = default_config.cache) ?(ccache = default_config.ccache)
    ?(mix = default_config.mix) ?(n_pmds = default_config.n_pmds)
    ?(trace = default_config.trace)
    ?(faults = default_config.faults) ?(rx_policy = default_config.rx_policy)
    ?(strict_match = default_config.strict_match)
    ?(ct_zone = default_config.ct_zone)
    ?(upcall_capacity = default_config.upcall_capacity)
    ?(retry_capacity = default_config.retry_capacity)
    ?(engine = default_config.engine) ?(latency = default_config.latency)
    ?(offered_mpps = default_config.offered_mpps)
    ?(burst = default_config.burst) () =
  { kind; topology; n_flows; frame_len; queues; gbps; warmup; measure; cache;
    ccache; mix; n_pmds; trace; faults; rx_policy; strict_match; ct_zone;
    upcall_capacity; retry_capacity; engine; latency; offered_mpps; burst }

let is_userspace = function
  | Dpif.Dpdk | Dpif.Afxdp _ -> true
  | Dpif.Kernel | Dpif.Kernel_ebpf -> false

(** Everything [run] builds before driving traffic: machine, datapath,
    NICs, execution contexts, the optional PMD runtime and virtual
    endpoint, and the generator — extracted so {!run_chaos} can drive
    one rig through several measurement phases. *)
type rig = {
  r_cfg : config;
  r_machine : Cpu.t;
  r_dp : Dpif.t;
  r_phy0 : Netdev.t;
  r_phy1 : Netdev.t;
  r_p0 : int;
  r_p1 : int;
  r_queues : int;
  r_opts : Dpif.afxdp_opts;
  r_sirq : Cpu.ctx array;
  r_rt : Pmd.t option;  (** the PMD runtime; [None] on the kernel flavours *)
  r_guest : Cpu.ctx;
  r_vdevs : (Netdev.t * int) list;
      (** virtual endpoints in hop order (one for PVP/PCP, 2–4 for
          [Chain]), each with its datapath port *)
  r_pmd_v : Cpu.ctx option;  (** the context polling every virtual port *)
  r_loadgen : Cpu.ctx option;
      (** the paced generator's arrival clock, created only when
          [cfg.latency] — unarmed runs stay byte-identical *)
  r_gen : Pktgen.t;
  r_eng : Engine_vt.t;
      (** the virtual-time engine wrapping the pmd leg; the schedule
          explorer reaches its fine-grained steps through this *)
}

let setup (cfg : config) : rig =
  let costs = Costs.default in
  let machine = Cpu.create () in
  (* the kernel datapath gets every hyperthread's worth of RSS queues *)
  let queues =
    match cfg.kind with
    | Dpif.Kernel | Dpif.Kernel_ebpf -> Int.max cfg.queues (if cfg.n_flows > 1 then 16 else 1)
    | Dpif.Dpdk | Dpif.Afxdp _ -> cfg.queues
  in
  let phy0 = Netdev.create ~name:"eth0" ~queues ~gbps:cfg.gbps () in
  let phy1 = Netdev.create ~name:"eth1" ~queues ~gbps:cfg.gbps () in
  phy0.Netdev.rx_policy <- cfg.rx_policy;
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:4 () in
  let dp = Dpif.create ~costs ~kind:cfg.kind ~pipeline () in
  (match cfg.cache with
  | Cache_default -> ()
  | Cache_none -> Dpif.set_emc_enabled dp false
  | Cache_smc_only ->
      Dpif.set_emc_enabled dp false;
      Dpif.set_smc_enabled dp true
  | Cache_emc_smc -> Dpif.set_smc_enabled dp true);
  if cfg.ccache then Dpif.set_ccache_enabled dp true;
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  if cfg.trace then
    Dpif.set_tracer dp
      (Some (Ovs_sim.Trace.create ~kind:(Dpif.kind_name cfg.kind) ()));

  (* execution contexts *)
  let sirq = Array.init queues (fun i -> Cpu.ctx machine (Printf.sprintf "softirq%d" i)) in
  let opts = match cfg.kind with Dpif.Afxdp o -> o | _ -> Dpif.afxdp_default in
  (* the poll-mode runtime shards the rx queues over cfg.n_pmds cores,
     one per queue by default *)
  let rt =
    if is_userspace cfg.kind then
      Some
        (Pmd.create ~upcall_capacity:cfg.upcall_capacity
           ~retry_capacity:cfg.retry_capacity ~dp ~machine ~softirq:sirq
           ~port_no:p0 ~queues
           ~n_pmds:(if cfg.n_pmds >= 1 then cfg.n_pmds else queues)
           ())
    else None
  in
  let guest = Cpu.ctx machine "guest" in
  let vhost_kthread = Cpu.ctx machine "vhost" in
  let container = Cpu.ctx machine "container" in

  (* virtual endpoint and flow rules *)
  let fk = Ovs_packet.Flow_key.Field.In_port in
  let rule in_port out =
    let m = Ovs_ofproto.Match_.with_field (Ovs_ofproto.Match_.catchall ()) fk in_port in
    Ovs_ofproto.Pipeline.add_flow pipeline ~priority:100 m
      [ Ovs_ofproto.Action.Output out ]
  in
  (* a PVP-style guest bounce: the virtual endpoint forwards everything
     straight back onto its own rx queue *)
  let guest_bounce virt dev =
    Netdev.set_tx_sink dev (fun d pkt ->
        (match virt with
        | Vm_tap ->
            Cpu.charge vhost_kthread Cpu.System
              (costs.Costs.vhost_copy_fixed
              +. Costs.copy costs ~bytes:(Ovs_packet.Buffer.length pkt)
              +. 110.)
        | _ -> ());
        Cpu.charge guest Cpu.Guest (guest_fwd_cost costs);
        ignore (Netdev.enqueue_on d ~queue:0 pkt : bool))
  in
  let vdevs, pmd_v =
    match cfg.topology with
    | P2P ->
        (match (cfg.ct_zone, cfg.strict_match) with
        | Some z, _ ->
            (* traffic commits into a conntrack zone; invalid state (the
               zone-limit verdict) is an accounted drop *)
            ignore
              (Ovs_ofproto.Parser.install_flows pipeline
                 [
                   Printf.sprintf
                     "table=0,priority=100,in_port=%d,ip \
                      actions=ct(commit,zone=%d,table=1)"
                     p0 z;
                   "table=0,priority=1 actions=drop";
                   "table=1,priority=200,ct_state=+trk+inv actions=drop";
                   Printf.sprintf
                     "table=1,priority=100,ct_state=+trk actions=output:%d" p1;
                 ])
        | None, true ->
            (* match the offered traffic exactly, with a default drop —
               mangled packets become accounted drops instead of riding
               an in_port wildcard *)
            ignore
              (Ovs_ofproto.Parser.install_flows pipeline
                 [
                   Printf.sprintf
                     "table=0,priority=100,in_port=%d,udp actions=output:%d"
                     p0 p1;
                   "table=0,priority=1 actions=drop";
                 ])
        | None, false -> rule p0 p1);
        ([], None)
    | PVP virt -> begin
        let kind = match virt with Vm_tap -> Netdev.Tap | _ -> Netdev.Vhostuser in
        let dev = Netdev.create ~kind ~name:"vm0" () in
        let vp = Dpif.add_port dp dev in
        rule p0 vp;
        rule vp p1;
        (* the guest forwards everything straight back *)
        guest_bounce virt dev;
        ([ (dev, vp) ], Some (Cpu.ctx machine "pmd-vm"))
      end
    | Chain (virt, hops) -> begin
        (* a service chain of [hops] PVP-style VNFs: phy0 -> v1 -> ...
           -> vn -> phy1, each hop a guest bounce back into the datapath *)
        if hops < 1 then invalid_arg "Scenario: Chain needs >= 1 hop";
        (match virt with
        | Ct_xdp -> invalid_arg "Scenario: Chain does not support Ct_xdp"
        | _ -> ());
        let kind =
          match virt with
          | Vm_tap -> Netdev.Tap
          | Vm_vhost -> Netdev.Vhostuser
          | Ct_afpacket -> Netdev.Tap
          | Ct_veth | Ct_xdp -> Netdev.Veth
        in
        let devs =
          List.init hops (fun i ->
              let dev =
                Netdev.create ~kind ~name:(Printf.sprintf "vnf%d" i) ()
              in
              let vp = Dpif.add_port dp dev in
              guest_bounce virt dev;
              (dev, vp))
        in
        let rec link prev = function
          | [] -> rule prev p1
          | (_, vp) :: rest ->
              rule prev vp;
              link vp rest
        in
        link p0 devs;
        (devs, Some (Cpu.ctx machine "pmd-vm"))
      end
    | PCP virt -> begin
        let kind =
          match virt with
          | Ct_afpacket -> Netdev.Tap  (* DPDK reaches containers via af_packet *)
          | _ -> Netdev.Veth
        in
        let dev = Netdev.create ~kind ~name:"veth0" () in
        let vp = Dpif.add_port dp dev in
        rule p0 vp;
        rule vp p1;
        (match virt with
        | Ct_xdp -> begin
            (* Fig 5 path C: redirect at the driver; the container bounces
               packets with its own XDP program straight to the egress NIC *)
            let mac_to_dev =
              Ovs_ebpf.Maps.create ~name:"mac2dev" ~kind:Ovs_ebpf.Maps.Devmap
                ~max_entries:64
            in
            ignore
              (Ovs_ebpf.Maps.update mac_to_dev
                 (Int64.of_int (Ovs_packet.Mac.of_index 2))
                 (Int64.of_int vp));
            let prog =
              Ovs_ebpf.Xdp.load_exn ~name:"veth_redirect"
                (Ovs_ebpf.Progs.veth_redirect ~mac_to_dev)
            in
            Dpif.set_xdp_program dp ~port_no:p0 prog;
            Netdev.set_tx_sink dev (fun _ pkt ->
                (* container-side XDP: parse, rewrite, redirect to eth1 *)
                Cpu.charge container Cpu.Softirq
                  (costs.Costs.driver_rx_dma +. costs.Costs.xdp_prog_overhead
                  +. (30. *. costs.Costs.ebpf_insn)
                  +. costs.Costs.xdp_redirect +. costs.Costs.veth_cross
                  +. costs.Costs.driver_tx);
                Netdev.transmit phy1 pkt)
          end
        | _ ->
            Netdev.set_tx_sink dev (fun d pkt ->
                Cpu.charge container Cpu.Softirq (container_echo_cost costs);
                ignore (Netdev.enqueue_on d ~queue:0 pkt : bool)));
        ([ (dev, vp) ], Some (Cpu.ctx machine "pmd-vm"))
      end
  in

  (* sink for measured egress: phy1 counts transmissions via its stats;
     with latency armed it also records each delivered packet's sojourn
     (virtual now minus the birth stamp) — drops never reach it *)
  if cfg.latency then
    Netdev.set_tx_sink phy1 (fun _ pkt ->
        Dpif.record_latency dp ~now:(Cpu.wall machine) pkt)
  else Netdev.set_tx_sink phy1 (fun _ _ -> ());
  let loadgen =
    if cfg.latency then Some (Cpu.ctx machine "loadgen") else None
  in

  let gen =
    Pktgen.create ~mix:cfg.mix ~n_flows:cfg.n_flows ~frame_len:cfg.frame_len ()
  in
  let active = Pktgen.queues_hit gen ~n_queues:queues in
  Dpif.set_active_queues dp active;
  ignore vhost_kthread;
  ignore container;
  {
    r_cfg = cfg;
    r_machine = machine;
    r_dp = dp;
    r_phy0 = phy0;
    r_phy1 = phy1;
    r_p0 = p0;
    r_p1 = p1;
    r_queues = queues;
    r_opts = opts;
    r_sirq = sirq;
    r_rt = rt;
    r_guest = guest;
    r_vdevs = vdevs;
    r_pmd_v = pmd_v;
    r_loadgen = loadgen;
    r_gen = gen;
    r_eng = Engine_vt.create ~dp ~machine ~softirq:sirq ~rt ~port_no:p0 ();
  }

let batch = 32

(* One poll sweep over the rig: the engine advances the phy leg (every
   PMD polls each of its rxqs once; on the kernel flavours each queue's
   softirq polls once), plus every virtual endpoint's return port, in
   hop order. *)
let poll_sweep (r : rig) =
  ignore (Engine_vt.step r.r_eng : int);
  match r.r_pmd_v with
  | Some pmd_vm ->
      List.iter
        (fun (_, vp) ->
          ignore
            (Dpif.poll r.r_dp ~softirq:r.r_sirq.(0) ~pmd:pmd_vm ~port_no:vp
               ~queue:0 ()))
        r.r_vdevs
  | None -> ()

module Dp_core = Ovs_datapath.Dp_core
module Xsk = Ovs_xsk.Xsk

(* packets inside the rig: NIC rx queues, XSK rx rings, PMD upcall and
   retry queues — everything offered but not yet delivered or dropped *)
let in_flight (r : rig) =
  Netdev.pending r.r_phy0
  + List.fold_left (fun a (d, _) -> a + Netdev.pending d) 0 r.r_vdevs
  + (match Dpif.xsks r.r_dp ~port_no:r.r_p0 with
    | Some xs ->
        Array.fold_left (fun a x -> a + Ovs_xsk.Ring.available x.Xsk.rx) 0 xs
    | None -> 0)
  + (match r.r_rt with
    | Some rt -> List.fold_left (fun a p -> a + Pmd.queued p) 0 (Pmd.pmds rt)
    | None -> 0)

(** The conservation ledger: the one definition of where an offered
    packet can end up. A ledger records every drop counter when its phase
    opens, counts the packets the phase offers, and reports each
    counter's movement against that record — so a failed conservation
    check names the counter that moved, by how much, and in which phase.
    {!in_flight} is its in-flight term. *)
module Ledger = struct
  type t = {
    phase : string;
    base : (string * int) list;  (** every drop counter at phase start *)
    tx0 : int;
    mutable offered : int;
    mutable rejected : int;
  }

  (** A phase's books: [offered = delivered + drops + in_flight] when
      nothing vanished. *)
  type diff = {
    d_phase : string;
    d_offered : int;
    d_rejected : int;
        (** refused uncounted under [Rx_backpressure]: never offered *)
    d_delivered : int;
    d_drops : (string * int) list;  (** each drop counter's delta *)
    d_in_flight : int;
  }

  (* every place the rig counts a drop: the ingress NIC, the datapath's
     verdicts, the AF_XDP sockets of both physical ports, and the
     virtual endpoints' rx rings *)
  let counters (r : rig) =
    let xsk f =
      List.fold_left
        (fun a port_no ->
          match Dpif.xsks r.r_dp ~port_no with
          | Some xs -> Array.fold_left (fun a x -> a + f x) a xs
          | None -> a)
        0 [ r.r_p0; r.r_p1 ]
    in
    [
      ("phy0.rx_dropped", r.r_phy0.Netdev.stats.Netdev.rx_dropped);
      ("dp.dropped", (Dpif.counters r.r_dp).Dp_core.dropped);
      ("xsk.rx_dropped_no_frame", xsk (fun x -> x.Xsk.rx_dropped_no_frame));
      ("xsk.rx_dropped_ring_full", xsk (fun x -> x.Xsk.rx_dropped_ring_full));
      ( "vdev.rx_dropped",
        List.fold_left
          (fun a (d, _) -> a + d.Netdev.stats.Netdev.rx_dropped)
          0 r.r_vdevs );
    ]

  let tx (r : rig) = r.r_phy1.Netdev.stats.Netdev.tx_packets

  let open_ (r : rig) phase =
    { phase; base = counters r; tx0 = tx r; offered = 0; rejected = 0 }

  (** Offer one packet at the ingress NIC. A packet the NIC refuses but
      counts (full ring under [Rx_drop], carrier down) is still offered:
      its drop counter balances the books. *)
  let offer l (r : rig) pkt =
    let rxd = r.r_phy0.Netdev.stats.Netdev.rx_dropped in
    if
      Netdev.rss_enqueue r.r_phy0 pkt
      || r.r_phy0.Netdev.stats.Netdev.rx_dropped > rxd
    then l.offered <- l.offered + 1
    else l.rejected <- l.rejected + 1

  let delivered l r = tx r - l.tx0

  let diff l (r : rig) =
    {
      d_phase = l.phase;
      d_offered = l.offered;
      d_rejected = l.rejected;
      d_delivered = delivered l r;
      d_drops =
        List.map2 (fun (c, v0) (_, v) -> (c, v - v0)) l.base (counters r);
      d_in_flight = in_flight r;
    }

  let drops d = List.fold_left (fun a (_, n) -> a + n) 0 d.d_drops

  (** Offered packets neither delivered, nor in a drop counter, nor
      still in flight. *)
  let unaccounted d = d.d_offered - d.d_delivered - drops d - d.d_in_flight

  (** Exact conservation: nothing unaccounted, nothing left in flight. *)
  let conserved d = unaccounted d = 0 && d.d_in_flight = 0

  let render d =
    Printf.sprintf
      "phase %s: offered %d = delivered %d + drops %d [%s] + in flight %d%s"
      d.d_phase d.d_offered d.d_delivered (drops d)
      (match List.filter (fun (_, n) -> n <> 0) d.d_drops with
      | [] -> "no drop counter moved"
      | moved ->
          String.concat ", "
            (List.map (fun (c, n) -> Printf.sprintf "%s %+d" c n) moved))
      d.d_in_flight
      (match unaccounted d with
      | 0 -> ""
      | u -> Printf.sprintf " + %d unaccounted" u)
end

(* -- the phase driver: reset, offer, poll, drain -- *)

(** How a phase paces its offered load: [want] sizes the next batch from
    the packets still to offer, [arrive] runs before each packet (the
    generator's arrival clock), and [settle] runs after each batch's poll
    sweep with the batch size and the wall clock at its start. *)
type pace = {
  want : int -> int;
  arrive : unit -> unit;
  settle : w0:Time.ns -> int -> unit;
}

(* lockstep [batch]-packet bursts with no arrival clock *)
let lockstep = { want = Int.min batch; arrive = ignore; settle = (fun ~w0:_ _ -> ()) }

(* The paced driver behind every latency-armed run. The generator is its
   own line-rate core: each packet charges its inter-arrival gap to
   [loadgen] (the arrival clock — birth stamps come from it) and a
   credit counter converts elapsed server time back into injection
   budget, [credit += rate * dwall]. When the dataplane keeps up, wall
   advances exactly one gap per packet and the loop stays in lockstep;
   when it falls behind, wall outruns the arrival clock, the credit (=
   packets that arrived meanwhile) grows, and the backlog overflows the
   NIC ring into counted rx drops — which is what gives an NDR probe a
   real loss cliff and a latency rung its queueing tail. [rate_pps] 0.
   offers the config's rate (line rate when that is 0. too). *)
let credit_paced (r : rig) loadgen ~rate_pps =
  let cfg = r.r_cfg in
  let rate =
    if rate_pps > 0. then rate_pps
    else if cfg.offered_mpps > 0. then cfg.offered_mpps *. 1e6
    else Netdev.line_rate_pps r.r_phy0 ~frame_len:cfg.frame_len
  in
  let gap = 1e9 /. rate in
  let in_burst = ref 0 in
  let credit = ref (float_of_int batch) in
  {
    want = (fun left -> Int.min (Int.min (int_of_float !credit) left) 4096);
    arrive =
      (fun () ->
        Cpu.charge loadgen Cpu.User gap;
        match cfg.burst with
        | Some b ->
            incr in_burst;
            if !in_burst >= b.Pktgen.on_packets then begin
              in_burst := 0;
              (* generator silence: the arrival clock idles, and the
                 credit the silent period will accrue (wall keeps
                 moving) is cancelled here — packets do not arrive
                 during the off phase, which is what drops the mean
                 offered rate to on / (on + off) *)
              Cpu.charge loadgen Cpu.User b.Pktgen.off_ns;
              credit := !credit -. (rate *. b.Pktgen.off_ns /. 1e9)
            end
        | None -> ());
    settle =
      (fun ~w0 sent ->
        credit := !credit -. float_of_int sent;
        let dwall = Cpu.wall r.r_machine -. w0 in
        (* an idle iteration (no credit, nothing to poll) must still move
           the clock or the loop deadlocks *)
        if dwall <= 0. && sent = 0 then Cpu.charge loadgen Cpu.User (Time.us 1.);
        let dwall = Float.max dwall (Cpu.wall r.r_machine -. w0) in
        credit := !credit +. (rate *. dwall /. 1e9));
  }

(* Virtual wall time only advances through charges; a fault window or a
   rule swap that stops all forwarding would otherwise never close. The
   chaos and reconfig phases model the generator as its own line-rate
   core: each offered packet charges its wire time, and drain sweeps
   that move nothing charge an idle tick. Plain [run] never creates this
   context, so unfaulted runs stay byte-identical. (A latency-armed rig
   already carries it — its arrival clock doubles as the birth stamp.) *)
let generator_core (r : rig) =
  let loadgen =
    match r.r_loadgen with Some lg -> lg | None -> Cpu.ctx r.r_machine "loadgen"
  in
  let pkt_ns =
    1e9 /. Netdev.line_rate_pps r.r_phy0 ~frame_len:r.r_cfg.frame_len
  in
  (loadgen, { lockstep with arrive = (fun () -> Cpu.charge loadgen Cpu.User pkt_ns) })

(** The one phase driver: offer [n] generator packets into [ledger]'s
    books, a batch at a time as [pace] sizes them, each batch followed by
    one poll sweep. [mutate] sees each packet before it is stamped and
    offered; [tick] runs before each sweep, [after_poll] after it. A
    latency-armed rig stamps each packet's birth on its arrival clock. *)
let offer (r : rig) ledger pace ?(mutate = ignore) ?(tick = ignore)
    ?(after_poll = ignore) n =
  let left = ref n in
  while !left > 0 do
    let m = pace.want !left in
    let w0 = Cpu.wall r.r_machine in
    for _ = 1 to m do
      pace.arrive ();
      let pkt = Pktgen.next r.r_gen in
      mutate pkt;
      (match r.r_loadgen with
      | Some lg -> pkt.Ovs_packet.Buffer.birth_ns <- Cpu.busy lg
      | None -> ());
      Ledger.offer ledger r pkt
    done;
    if m > 0 then Engine_vt.note_offered r.r_eng m;
    left := !left - m;
    tick ();
    poll_sweep r;
    after_poll ();
    pace.settle ~w0 m
  done

(* [n] rounded up to whole batches: the lockstep phases offer full
   bursts only *)
let whole_batches n = (n + batch - 1) / batch * batch

(** Run the rig dry without offering: poll sweeps until nothing is in
    flight and [busy ()] is false, or [budget] sweeps have run. With
    [idle], each sweep first charges that arrival clock 1 µs, so virtual
    time moves even while nothing forwards. *)
let drain (r : rig) ?idle ?(busy = fun () -> false) ?(tick = ignore)
    ?(after_poll = ignore) budget =
  let sweeps = ref 0 in
  while (in_flight r > 0 || busy ()) && !sweeps < budget do
    incr sweeps;
    Option.iter (fun lg -> Cpu.charge lg Cpu.User (Time.us 1.)) idle;
    tick ();
    poll_sweep r;
    after_poll ()
  done

(* run the rig dry without injecting, so a measurement phase starts (and
   its predecessor's packets end) on empty queues *)
let quiesce (r : rig) = drain r 10_000

(** Open measurement phase [phase]: zero every clock and measurement
    counter, then open the phase's ledger. *)
let reset (r : rig) phase =
  List.iter Cpu.reset r.r_machine.Cpu.ctxs;
  Dpif.reset_measurement r.r_dp;
  Option.iter Pmd.reset_stats r.r_rt;
  Ledger.open_ r phase

(** {!reset} from a clean slate: the rig drained and the generator's
    flow-choice stream rewound, so phases replay identical traffic and
    their rates compare at exact-determinism tightness. *)
let replay (r : rig) phase =
  quiesce r;
  Pktgen.reset r.r_gen;
  reset r phase

(** Offer [n] packets the way plain runs do: credit-paced on a
    latency-armed rig, otherwise in whole lockstep batches. *)
let drive ?ledger (r : rig) n =
  let ledger =
    match ledger with Some l -> l | None -> Ledger.open_ r "drive"
  in
  match r.r_loadgen with
  | Some loadgen -> offer r ledger (credit_paced r loadgen ~rate_pps:0.) n
  | None -> offer r ledger lockstep (whole_batches n)

(* warm caches and megaflows; then train the computational cache over
   the warmed-up megaflows (its charge lands in warm-up time, which the
   next phase reset zeroes) *)
let warm (r : rig) =
  drive r r.r_cfg.warmup;
  if r.r_cfg.ccache then
    ignore
      (Dpif.ccache_train r.r_dp (fun cat ns -> Cpu.charge r.r_sirq.(0) cat ns)
        : Ovs_nmu.Ccache.train_stats option)

(* a phase's wall time: the busiest context or the serialized egress *)
let phase_wall (r : rig) =
  Float.max (Float.max (Cpu.wall r.r_machine) (Dpif.serialized_tx r.r_dp)) 1.

(* One replayed measurement phase: drive [n] packets, return (delivered,
   rate in pps over the phase's wall time). *)
let measure_phase (r : rig) n =
  let ledger = replay r "measure" in
  drive ~ledger r n;
  let delivered = Ledger.delivered ledger r in
  (delivered, float_of_int delivered /. phase_wall r *. 1e9)

(* -- latency and NDR probes (require a latency-armed rig) -- *)

let loadgen_exn (r : rig) =
  match r.r_loadgen with
  | Some lg -> lg
  | None -> invalid_arg "Scenario: rig not latency-armed (config ~latency:true)"

(** One clean-slate measurement of the sojourn-time distribution:
    quiesce, reset, offer [n] packets at [rate_pps] (0. = the config's
    offered rate) through the paced driver, then drain so every
    still-queued packet egresses or is dropped before the sketch is
    read. Returns (delivered, the datapath's sketch) — the sketch's
    count equals delivered exactly (drops record nothing), the
    conservation the latency gates enforce. *)
let measure_latency (r : rig) ?(rate_pps = 0.) n =
  let loadgen = loadgen_exn r in
  let ledger = replay r "latency" in
  offer r ledger (credit_paced r loadgen ~rate_pps) n;
  quiesce r;
  (Ledger.delivered ledger r, Dpif.latency r.r_dp)

(** One RFC 2544 probe: offer [n] packets at [rate_pps], drain, report
    offered vs delivered for {!Ndr.search}'s loss-free test. *)
let ndr_probe (r : rig) ~rate_pps n : Ndr.probe_result =
  let delivered, _ = measure_latency r ~rate_pps n in
  { Ndr.offered = n; delivered }

(* -- the real-parallelism leg: [`Domains n] -- *)

(* The P2P rig on real domains: the generator's pre-built templates
   become the injector's wire frames. *)
let domains_config ?(oracles = false) ?lock ?frames_per_queue ?ring_size
    (cfg : config) ~n_domains ~translate =
  (match cfg.topology with
  | P2P -> ()
  | PVP _ | PCP _ | Chain _ ->
      invalid_arg "Scenario: only P2P runs on real domains");
  let gen =
    Pktgen.create ~mix:cfg.mix ~n_flows:cfg.n_flows ~frame_len:cfg.frame_len ()
  in
  let templates =
    Array.map
      (fun (b : Ovs_packet.Buffer.t) ->
        Bytes.sub b.Ovs_packet.Buffer.data b.Ovs_packet.Buffer.start
          b.Ovs_packet.Buffer.len)
      gen.Pktgen.templates
  in
  Engine_domains.config ~n_domains ~frame_len:cfg.frame_len
    ~target:cfg.measure ~upcall_capacity:cfg.upcall_capacity ~oracles
    ~latency:cfg.latency ?lock ?frames_per_queue ?ring_size ~translate
    ~templates ()

(** Drive the P2P scenario through {!Ovs_datapath.Engine_domains}: the
    generator's pre-built templates become the injector's wire frames,
    [cfg.measure] packets are offered, and the readout is wall-clock
    Mpps. Returns the engine stats and any oracle violations (empty with
    [oracles:false], the default). Only P2P is meaningful here — the
    virtual endpoints are virtual-time constructs. *)
let run_multicore ?oracles ?lock ?frames_per_queue ?ring_size (cfg : config)
    ~n_domains () : Engine.stats * string list =
  let eng =
    Engine_domains.create
      (domains_config ?oracles ?lock ?frames_per_queue ?ring_size cfg
         ~n_domains
         ~translate:(fun _ -> true) (* P2P: one wildcard rule, port0 -> port1 *))
  in
  Engine_domains.start eng;
  let stats = Engine_domains.stop eng in
  (stats, Engine_domains.violations eng)

(* Adapt engine stats to the scenario result shape: wall-clock rate, no
   virtual-time CPU breakdown (domains burn real cores; the Table 4
   accounting belongs to the [`Vt] engine). *)
let result_of_engine_stats (s : Engine.stats) : result =
  let machine = Cpu.create () in
  {
    rate_mpps = s.Engine.s_mpps;
    wall_ns = s.Engine.s_wall_ns;
    cpu = Cpu.breakdown ~poll_floor:[] machine ~wall:1.;
    packets = s.Engine.s_delivered;
    line_limited = false;
    pmds = [];
    busy_ns =
      List.fold_left
        (fun a (u : Engine.unit_load) -> a +. u.Engine.ul_busy_ns)
        0. s.Engine.s_units_detail;
    stage_trace = None;
  }

let run (cfg : config) : result =
  match cfg.engine with
  | `Domains n ->
      let stats, viols = run_multicore cfg ~n_domains:n () in
      List.iter
        (fun v -> Fmt.epr "[multicore] oracle violation: %s@." v)
        viols;
      result_of_engine_stats stats
  | `Vt ->
  let r = setup cfg in
  let machine = r.r_machine and dp = r.r_dp and rt = r.r_rt in
  (* warm up caches and megaflows, then measure straight on *)
  warm r;
  let ledger = reset r "measure" in
  drive ~ledger r cfg.measure;
  let delivered = Ledger.delivered ledger r in
  let wall = phase_wall r in
  let raw_rate = float_of_int delivered /. wall *. 1e9 in
  let line = Netdev.line_rate_pps r.r_phy0 ~frame_len:cfg.frame_len in
  let line_limited = raw_rate > line in
  let rate = Float.min raw_rate line in
  (* polling threads burn their core regardless of load *)
  let poll_floor =
    (* in the XDP-redirect container path the PMD threads see no traffic
       at all, so OVS need not dedicate cores to it (Table 4: 1.0) *)
    (if
       is_userspace cfg.kind && r.r_opts.Dpif.pmd_threads
       && cfg.topology <> PCP Ct_xdp
     then
       (match rt with Some rt -> Pmd.ctxs rt | None -> [])
       @ (match r.r_pmd_v with Some p -> [ p ] | None -> [])
     else [])
    @
    match cfg.topology with
    (* the guests run poll-mode forwarders *)
    | PVP _ | Chain _ -> [ r.r_guest ]
    | P2P | PCP _ -> []
  in
  let cpu = Cpu.breakdown ~poll_floor machine ~wall in
  let busy_ns =
    List.fold_left (fun acc ctx -> acc +. Cpu.busy ctx) 0. machine.Cpu.ctxs
  in
  {
    rate_mpps = rate /. 1e6;
    wall_ns = wall;
    cpu;
    packets = delivered;
    line_limited;
    pmds = (match rt with Some rt -> Pmd.reports ~wall rt | None -> []);
    busy_ns;
    stage_trace = Dpif.tracer dp;
  }

(* -- chaos: three measurement phases on one rig -- *)

(** What {!run_chaos} measures: an unfaulted baseline phase, a faulted
    phase (plan armed, health monitor sweeping, drained to empty), and a
    post-recovery phase on the same warm rig. Conservation is exact
    bookkeeping over the faulted phase: every offered packet is either
    delivered or in a drop counter, with nothing left in flight. *)
type chaos_result = {
  c_plan : string;
  c_baseline_mpps : float;
  c_faulted_mpps : float;  (** includes the drain: degraded throughput *)
  c_post_mpps : float;
  c_recovery_ns : Time.ns option;
      (** duration of the last completed unhealthy episode *)
  c_restarts : int;  (** PMD restarts performed by the health monitor *)
  c_repairs : int;
  c_fired : (string * int) list;  (** per-fault fire counts *)
  c_health : string;  (** dpif/health-show at end of the faulted phase *)
  c_latency_count : int;
      (** sojourn samples the sketch recorded over the faulted phase, or
          -1 with latency off. Conservation demands exactly one sample
          per delivered packet: a mangled or crash-killed packet that
          leaked its timestamp would make this exceed the ledger's
          delivered count. *)
  c_ledger : Ledger.diff;
      (** the faulted phase's books, counter by counter: offered,
          delivered, each drop counter, the [Rx_backpressure] rejects and
          what is left in flight after the drain ({!Ledger.conserved}) *)
}

(* Advance the fault clock to [now] and run the window-open side effects
   the subsystems do not trigger themselves. *)
let fault_tick (r : rig) ~now =
  List.iter
    (fun (f : Faults.fault) ->
      match f.Faults.f_action with
      | Faults.Upcall_storm ->
          (* the storm begins with a cache flush: every packet misses
             into the (refusing) upcall queue *)
          Dpif.flush_caches r.r_dp
      | Faults.Ct_pressure { zone; limit } ->
          (* table pressure early-drops existing connections; they must
             re-commit against the forced limit and fail into +inv *)
          ignore
            (Ovs_conntrack.Conntrack.evict_to_limit (Dpif.conntrack r.r_dp)
               ~zone ~limit
              : int)
      | _ -> ())
    (Faults.tick now)

(* the armed plan's packet mangling, applied as the generator emits *)
let mangle (pkt : Ovs_packet.Buffer.t) =
  match Faults.mutate () with
  | Some (`Truncate frac) ->
      pkt.Ovs_packet.Buffer.len <-
        Int.max 4 (int_of_float (frac *. float_of_int pkt.Ovs_packet.Buffer.len))
  | Some `Corrupt ->
      (* clobber the ethertype: the frame stops being IP *)
      Ovs_packet.Buffer.set_u8 pkt 12 0xff
  | None -> ()

let run_chaos (cfg : config) (plan : Faults.plan) : chaos_result =
  let cfg = { cfg with faults = Some plan } in
  let r = setup cfg in
  let machine = r.r_machine and dp = r.r_dp in
  let loadgen, pace = generator_core r in
  warm r;

  (* phase A: unfaulted baseline on the warm rig *)
  let _, baseline_pps = measure_phase r cfg.measure in

  (* phase B: the same traffic with the plan armed, then drained until
     every window has closed, every queue is empty and the monitor
     reports healthy *)
  let ledger = replay r "faulted" in
  let health = Health.create ~dp ?rt:r.r_rt () in
  Faults.arm plan;
  let tick () =
    let now = Cpu.wall machine in
    fault_tick r ~now;
    ignore (Health.check health ~now : int)
  in
  offer r ledger pace ~mutate:mangle ~tick (whole_batches cfg.measure);
  drain r ~idle:loadgen ~tick
    ~busy:(fun () -> Faults.pending_windows () || not (Health.healthy health))
    200_000;
  let books = Ledger.diff ledger r in
  let wall_b = Float.max (Cpu.wall machine) 1. in
  let faulted_pps = float_of_int books.Ledger.d_delivered /. wall_b *. 1e9 in
  let restarts =
    match r.r_rt with
    | Some rt -> List.fold_left (fun a p -> a + Pmd.restarts p) 0 (Pmd.pmds rt)
    | None -> 0
  in
  let health_text = Health.render health ~now:(Cpu.wall machine) in
  let fired = Faults.fire_counts () in
  let lat_count =
    if cfg.latency then Ovs_sim.Quantiles.count (Dpif.latency dp) else -1
  in
  Faults.disarm ();

  (* phase C: post-recovery, unfaulted again *)
  let _, post_pps = measure_phase r cfg.measure in
  {
    c_plan = plan.Faults.p_name;
    c_baseline_mpps = baseline_pps /. 1e6;
    c_faulted_mpps = faulted_pps /. 1e6;
    c_post_mpps = post_pps /. 1e6;
    c_recovery_ns = Health.last_recovery health;
    c_restarts = restarts;
    c_repairs = Health.repairs health;
    c_fired = fired;
    c_health = health_text;
    c_latency_count = lat_count;
    c_ledger = books;
  }

(* -- live reconfiguration: OVSDB-driven control churn on a running rig -- *)

module Reconfig = Ovs_ofproto.Reconfig
module Ofconn = Ovs_ofproto.Ofconn
module Reval = Ovs_revalidator.Revalidator

(** What one churn event cost, measured between its application and the
    next event (or the end of the run): the revalidator's dirty set, the
    re-translations, the megaflows evicted, the oracle divergences (must
    be 0) and the upcall burst the invalidation storm provoked. *)
type churn_event = {
  e_at_s : float;
  e_label : string;  (** ["flow_mods"], ["swap two-phase"] or ["swap naive"] *)
  e_flow_mods : int;
  e_dirty : int;
  e_retx : int;
  e_evicted : int;
  e_divergences : int;
  e_upcalls : int;
}

(** One reconfiguration run: [cfg.measure] packets offered while the
    plan's events fire on the virtual clock. Conservation is the same
    exact bookkeeping as {!run_chaos}: {!Ledger.unaccounted} of
    [rc_ledger] counts packets that are neither delivered nor in any drop
    counter — table-miss packets translated against an incomplete
    classifier emit no actions and vanish uncounted, which is precisely
    the naive swap's loss window. A hitless run vanishes nothing and
    conserves. *)
type reconfig_result = {
  rc_plan : string;
  rc_leg : string;
  rc_events : churn_event list;
  rc_flow_mods : int;  (** FLOW_MODs that travelled the wire *)
  rc_ovsdb_rows : int;  (** churn rows round-tripped through the database *)
  rc_divergences : int;  (** incremental vs flush-all, summed (want 0) *)
  rc_upcalls : int;
  rc_upgrade : Reconfig.upgrade_report option;  (** the last swap's bill *)
  rc_lat_count : int;  (** sojourn samples, -1 with latency off *)
  rc_p50_ns : float;
  rc_p99_ns : float;
  rc_ledger : Ledger.diff;  (** the churn phase's books, counter by counter *)
}

(* Everything recorded when a swap begins, so its report can be settled
   exactly once the run has drained (in-flight = 0). *)
type swap_mark = {
  m_style : Reconfig.swap_style;
  m_w0 : Time.ns;
  m_books : Ledger.diff;  (** the phase's books when the swap began *)
  m_ups0 : int;
  m_shadow_rules : int;
  m_mods : int;
  m_evicted : int;
}

(** Apply [plan] against a running rig while traffic flows. Every rule
    change rides the wire (OVSDB rows -> FLOW_MOD bytes -> {!Ofconn});
    the incremental revalidator is armed and checked against the
    flush-all oracle at every event. [naive_window] is how many packets
    the naive swap leaves in flight between its delete barrage and its
    replacement adds — the loss window the two-phase path closes. *)
let run_reconfig ?(naive_window = 512) (cfg : config) (plan : Reconfig.plan) :
    reconfig_result =
  let r = setup cfg in
  let machine = r.r_machine and dp = r.r_dp in
  let loadgen, pace = generator_core r in
  warm r;
  Dpif.set_revalidator_enabled dp true;
  let ledger = replay r "churn" in

  (* the plan rides the management channel: stored as one OVSDB
     transaction, then read back row by row — the switch never sees the
     in-memory plan object *)
  let db = Ovs_ovsdb.Db.create ~schema:Reconfig.schema () in
  Reconfig.store_plan db plan;
  let ovsdb_rows = Ovs_ovsdb.Db.row_count db ~table:"Churn_op" in
  let plan = Reconfig.load_plan db ~name:plan.Reconfig.plan_name in

  let tx () = Ledger.delivered ledger r in
  let ups () = (Dpif.counters dp).Dp_core.upcalls in
  let injected = ref 0 in
  let flow_mods = ref 0 and divergences = ref 0 in
  let events = ref [] and burst_mark = ref None in
  let marks = ref None and rec_pending = ref None and recovery = ref 0. in

  (* recovery probe: the first delivery after a swap's new table set is
     in place closes the measured outage *)
  let probe_recovery () =
    match !rec_pending with
    | Some (w0, txm) when tx () > txm ->
        recovery := Cpu.wall machine -. w0;
        rec_pending := None
    | _ -> ()
  in
  let inject n =
    offer r ledger pace ~after_poll:probe_recovery n;
    injected := !injected + n
  in

  (* close the previous event's upcall-burst window *)
  let close_burst () =
    match (!burst_mark, !events) with
    | Some u0, e :: rest ->
        events := { e with e_upcalls = ups () - u0 } :: rest;
        burst_mark := None
    | _ -> ()
  in
  let reval_cum () =
    match Dpif.revalidator_stats dp with
    | Some s -> (s.Reval.st_dirty, s.Reval.st_retranslated, s.Reval.st_evicted)
    | None -> (0, 0, 0)
  in
  let apply_event (ev : Reconfig.event) =
    close_burst ();
    let u_start = ups () in
    let d0, rt0, _ = reval_cum () in
    let n_mods = ref 0 and evicted = ref 0 and divs = ref 0 in
    let label = ref "flow_mods" in
    let plain, swaps =
      List.partition
        (function Reconfig.Swap _ -> false | _ -> true)
        ev.Reconfig.ops
    in
    if plain <> [] then begin
      let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
      n_mods := !n_mods + Reconfig.apply_ops conn plain;
      (* the rule diff hits the megaflow cache: incremental sweep,
         proved against the flush-all oracle *)
      let _full, incr_ev, div = Dpif.revalidate_check dp in
      evicted := !evicted + incr_ev;
      divs := !divs + div
    end;
    List.iter
      (function
        | Reconfig.Swap { swap_style; swap_flows } ->
            label := "swap " ^ Reconfig.pp_style swap_style;
            let m0 =
              {
                m_style = swap_style;
                m_w0 = Cpu.wall machine;
                m_books = Ledger.diff ledger r;
                m_ups0 = ups ();
                m_shadow_rules = 0;
                m_mods = 0;
                m_evicted = 0;
              }
            in
            let mark =
              match swap_style with
              | Reconfig.Two_phase ->
                  (* phase 1: populate the complete shadow off to the
                     side — the live classifier serves traffic untouched
                     meanwhile *)
                  let shadow, smods =
                    Reconfig.build_shadow ~like:(Dpif.pipeline dp) swap_flows
                  in
                  (* phase 2: one pointer store + megaflow revalidation *)
                  let ev_evicted = Dpif.swap_pipeline dp shadow in
                  {
                    m0 with
                    m_shadow_rules = Ovs_ofproto.Pipeline.flow_count shadow;
                    m_mods = smods;
                    m_evicted = ev_evicted;
                  }
              | Reconfig.Naive ->
                  (* in-place: delete everything, revalidate (storm #1 —
                     the cache follows the now-empty tables), let traffic
                     run into the hole, then install the replacement and
                     revalidate again (storm #2 evicts the drop-cached
                     misses) *)
                  let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
                  let dm = Reconfig.apply_ops conn [ Reconfig.Delete "" ] in
                  let _, ev1, div1 = Dpif.revalidate_check dp in
                  inject
                    (Int.min naive_window (Int.max 0 (cfg.measure - !injected)));
                  let am =
                    Reconfig.apply_ops conn
                      (List.map (fun l -> Reconfig.Insert l) swap_flows)
                  in
                  let _, ev2, div2 = Dpif.revalidate_check dp in
                  divs := !divs + div1 + div2;
                  { m0 with m_mods = dm + am; m_evicted = ev1 + ev2 }
            in
            n_mods := !n_mods + mark.m_mods;
            evicted := !evicted + mark.m_evicted;
            marks := Some mark;
            rec_pending := Some (mark.m_w0, tx ())
        | _ -> ())
      swaps;
    let d1, rt1, _ = reval_cum () in
    flow_mods := !flow_mods + !n_mods;
    divergences := !divergences + !divs;
    events :=
      {
        e_at_s = ev.Reconfig.at_s;
        e_label = !label;
        e_flow_mods = !n_mods;
        (* a swap rebuilds the revalidator (fresh counters): clamp *)
        e_dirty = Int.max 0 (d1 - d0);
        e_retx = Int.max 0 (rt1 - rt0);
        e_evicted = !evicted;
        e_divergences = !divs;
        e_upcalls = 0;  (* settled by close_burst at the next event *)
      }
      :: !events;
    burst_mark := Some u_start
  in

  let pending = ref plan.Reconfig.events in
  let fire_due () =
    match !pending with
    | ev :: rest when Cpu.wall machine >= ev.Reconfig.at_s *. 1e9 ->
        pending := rest;
        apply_event ev;
        true
    | _ -> false
  in
  while !injected < cfg.measure do
    inject (Int.min batch (cfg.measure - !injected));
    while fire_due () do () done
  done;
  (* drain: events past the traffic tail still fire on the idle clock *)
  drain r ~idle:loadgen
    ~busy:(fun () -> !pending <> [])
    ~tick:(fun () -> ignore (fire_due () : bool))
    ~after_poll:probe_recovery 200_000;
  close_burst ();
  (* a swap that never saw a post-cutover delivery charges the whole
     remaining run as its outage *)
  (match !rec_pending with
  | Some (w0, _) ->
      recovery := Cpu.wall machine -. w0;
      rec_pending := None
  | None -> ());

  let books = Ledger.diff ledger r in
  let upgrade =
    Option.map
      (fun m ->
        let w_off = books.Ledger.d_offered - m.m_books.Ledger.d_offered in
        let w_del = books.Ledger.d_delivered - m.m_books.Ledger.d_delivered in
        let w_drops = Ledger.drops books - Ledger.drops m.m_books in
        {
          Reconfig.up_style = m.m_style;
          up_leg = Dpif.kind_name cfg.kind;
          up_shadow_rules = m.m_shadow_rules;
          up_flow_mods = m.m_mods;
          up_evicted = m.m_evicted;
          up_upcall_burst = ups () - m.m_ups0;
          up_offered = w_off;
          up_delivered = w_del;
          up_lost = w_off - w_del - w_drops;
          up_recovery_ns = !recovery;
        })
      !marks
  in
  let lat = Dpif.latency dp in
  {
    rc_plan = plan.Reconfig.plan_name;
    rc_leg = Dpif.kind_name cfg.kind;
    rc_events = List.rev !events;
    rc_flow_mods = !flow_mods;
    rc_ovsdb_rows = ovsdb_rows;
    rc_divergences = !divergences;
    rc_upcalls = ups ();
    rc_upgrade = upgrade;
    rc_lat_count =
      (if cfg.latency then Ovs_sim.Quantiles.count lat else -1);
    rc_p50_ns = (if cfg.latency then Ovs_sim.Quantiles.p50 lat else 0.);
    rc_p99_ns = (if cfg.latency then Ovs_sim.Quantiles.p99 lat else 0.);
    rc_ledger = books;
  }

(** The real-parallelism cutover: drive the P2P rig on OCaml domains
    while the slow path consults a live classifier pointer held in an
    [Atomic.t]; halfway through the offered target the shadow pipeline
    (built through the wire, as always) replaces it in one atomic store.
    PMD domains keep polling throughout — there is no barrier. Returns
    the engine stats, the oracle violations (armed), and how many
    packets had been delivered when the cutover landed (proof it
    happened mid-run). Both rule sets must forward the template flows:
    the hitless property under domains is that the atomic pointer swap
    never presents a half-built classifier to a racing translation. *)
let run_reconfig_multicore ?(n_domains = 2) (cfg : config)
    ~(flows_before : string list) ~(flows_after : string list) () :
    Engine.stats * string list * int =
  let wire_pipeline flows =
    let like = Ovs_ofproto.Pipeline.create ~n_tables:4 () in
    Ovs_ofproto.Pipeline.set_ports like [ 0; 1 ];
    let p, _mods = Reconfig.build_shadow ~like flows in
    p
  in
  let live = Atomic.make (wire_pipeline flows_before) in
  let translate key =
    (Ovs_ofproto.Pipeline.translate (Atomic.get live) key)
      .Ovs_ofproto.Pipeline.odp_actions
    <> []
  in
  let eng =
    Engine_domains.create
      (domains_config ~oracles:true cfg ~n_domains ~translate)
  in
  let cut_at = cfg.measure / 2 in
  Engine_domains.start eng;
  let seen = ref 0 and spins = ref 0 in
  while !seen < cut_at && !spins < 1_000_000_000 do
    incr spins;
    seen := !seen + Engine_domains.step eng
  done;
  (* the cutover: one atomic store while every PMD domain races on *)
  Atomic.set live (wire_pipeline flows_after);
  let at_cutover = !seen in
  let stats = Engine_domains.stop eng in
  (stats, Engine_domains.violations eng, at_cutover)
