(* p2p-emc: the AF_XDP datapath on the P2P Scenario rig with one PMD.
   64-byte UDP over 1,000 uniformly mixed flows, all EMC-resident after
   warm-up, one in_port -> output rule. A burst is 32 rx enqueues on the
   ingress NIC and one engine step. *)

module Scenario = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen
module Dpif = Ovs_datapath.Dpif
module Pmd = Ovs_datapath.Pmd
module Engine_vt = Ovs_datapath.Engine_vt
module Netdev = Ovs_netdev.Netdev
module Cpu = Ovs_sim.Cpu
module Buffer = Ovs_packet.Buffer
module Ring = Ovs_xsk.Ring
module Umempool = Ovs_xsk.Umempool
module H = Harness

let n_flows = 1_000
let frame_len = 64
let setup_runs = 25
let chunk_pkts = 8_192
let probes = 20_000

(* the charged-rate oracle: Scenario.run on this config, warm enough
   that every flow is EMC-resident before it measures *)
let oracle_warmup = 20_000
let oracle_measure = 40_000

(* Charged rates of two EMC-hit phases differ only when a seed's flows
   collide in an EMC set and a few packets fall through to dpcls. *)
let oracle_tolerance = 1e-3

let config ?(warmup = 4_000) ?(measure = 40_000) () =
  Scenario.config ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~topology:Scenario.P2P
    ~n_flows ~frame_len ~n_pmds:1 ~warmup ~measure ()

type traced = {
  w : Walk.t;
  ring : Ring.t;
  pool : Umempool.t;
  gc : H.gc_acc;
  wpkts : Buffer.t array;  (** the walk's copies of the burst *)
}

type rig = {
  r : Scenario.rig;
  gen : Pktgen.t;
  pkts : Buffer.t array;  (** the next burst, built off the clock *)
  tr : traced option;
}

let dp rig = rig.r.Scenario.r_dp
let delivered rig = rig.r.Scenario.r_phy1.Netdev.stats.Netdev.tx_packets

let drops rig =
  rig.r.Scenario.r_phy0.Netdev.stats.Netdev.rx_dropped
  + (Dpif.counters (dp rig)).Ovs_datapath.Dp_core.dropped

(* the walk's copies of the burst, stamped with the ingress port the
   datapath stamps on receive *)
let copy_for_walk rig =
  Option.iter
    (fun t ->
      Array.iteri
        (fun i p ->
          let c = Buffer.clone p in
          c.Buffer.in_port <- rig.r.Scenario.r_p0;
          t.wpkts.(i) <- c)
        rig.pkts)
    rig.tr

let prepare rig () =
  for i = 0 to H.burst - 1 do
    rig.pkts.(i) <- Pktgen.next rig.gen
  done;
  copy_for_walk rig;
  H.burst

let offer rig =
  let r = rig.r in
  for i = 0 to H.burst - 1 do
    ignore (Netdev.rss_enqueue r.Scenario.r_phy0 rig.pkts.(i) : bool)
  done;
  Engine_vt.note_offered r.Scenario.r_eng H.burst;
  ignore (Engine_vt.step r.Scenario.r_eng : int)

(* The traced burst: the datapath under its own spans (their sum is the
   burst time booked for mpps), then the layer walk over the same
   packets, including the 32-frame umem and ring bursts of the rx path. *)
let fire_traced rig t =
  let w = t.w and r = rig.r in
  let t0 = H.now () in
  Walk.enter w Walk.k_burst;
  H.with_gc t.gc (fun () ->
      Walk.enter w Walk.k_rx;
      for i = 0 to H.burst - 1 do
        ignore (Netdev.rss_enqueue r.Scenario.r_phy0 rig.pkts.(i) : bool)
      done;
      Walk.leave w;
      Walk.enter w Walk.k_poll;
      Engine_vt.note_offered r.Scenario.r_eng H.burst;
      ignore (Engine_vt.step r.Scenario.r_eng : int);
      Walk.leave w);
  let t1 = H.now () in
  Walk.enter w Walk.k_umem;
  let frames = Umempool.alloc_batch t.pool H.burst in
  Walk.leave w;
  Walk.enter w Walk.k_ring;
  ignore (Ring.push_burst t.ring (List.map (fun addr -> { Ring.addr; len = frame_len }) frames) : int);
  let descs = Ring.pop_burst t.ring ~max:H.burst in
  Walk.leave w;
  Walk.enter w Walk.k_umem;
  Umempool.put_batch t.pool (List.map (fun d -> d.Ring.addr) descs);
  Walk.leave w;
  Array.iter (fun p -> Walk.pass w p) t.wpkts;
  Walk.drain w;
  Walk.leave w;
  Perfbench.Spans.end_burst w.Walk.sp;
  (t1 - t0, 0.)

let fire rig () =
  match rig.tr with None -> H.timed (fun () -> offer rig) | Some t -> fire_traced rig t

let build ~seed ~traced () =
  let r = Scenario.setup (config ()) in
  let gen = Pktgen.create ~seed ~n_flows ~frame_len () in
  let tr =
    if not traced then None
    else
      let d = r.Scenario.r_dp in
      Some
        {
          w =
            Walk.create ~keep:64 ~deferred:true
              ~csum_offload:(Dpif.afxdp_opts d).Dpif.csum_offload
              (fun () -> Dpif.pipeline d);
          ring = Ring.create ~size:2048 ();
          pool =
            Umempool.create ~n_frames:4096
              ~strategy:(Dpif.afxdp_opts d).Dpif.lock ();
          gc = H.gc_acc ();
          wpkts = Array.make H.burst (Buffer.clone gen.Pktgen.templates.(0));
        }
  in
  let rig = { r; gen; pkts = Array.make H.burst gen.Pktgen.templates.(0); tr } in
  (* warm-up: the flows in order, in whole bursts, so they are
     EMC-resident, then random bursts that also reach the last few *)
  Array.iteri
    (fun i t ->
      rig.pkts.(i mod H.burst) <- Buffer.clone t;
      if i mod H.burst = H.burst - 1 then begin
        copy_for_walk rig;
        ignore (fire rig ())
      end)
    (Array.sub gen.Pktgen.templates 0 (n_flows - (n_flows mod H.burst)));
  for _ = 1 to 200 do
    ignore (prepare rig ());
    ignore (fire rig ())
  done;
  Scenario.quiesce r;
  rig

let reset_measurement rig =
  let r = rig.r in
  List.iter Cpu.reset r.Scenario.r_machine.Cpu.ctxs;
  Dpif.reset_measurement r.Scenario.r_dp;
  Option.iter Pmd.reset_stats r.Scenario.r_rt;
  Option.iter
    (fun t ->
      Walk.reset_counters t.w;
      H.reset_gc t.gc;
      Perfbench.Spans.reset t.w.Walk.sp)
    rig.tr

(* Charged virtual-time rate since [reset_measurement], computed the way
   Scenario.run computes it. *)
let charged_pps rig ~delivered =
  let r = rig.r in
  let wall =
    Float.max
      (Float.max (Cpu.wall r.Scenario.r_machine) (Dpif.serialized_tx r.Scenario.r_dp))
      1.
  in
  float_of_int delivered /. wall *. 1e9

(* Slow-path latency: with the datapath caches flushed, one packet through
   the rig misses every tier and its upcall is translated and installed
   inside the engine step. Each probe starts from an empty minor heap, so
   the tail is the slow path's own and not where a collection happened
   to fall (allocation is measured by alloc_words_per_pkt). *)
let probe rig () =
  let r = rig.r in
  let c = Dpif.counters r.Scenario.r_dp in
  Dpif.flush_caches r.Scenario.r_dp;
  Gc.minor ();
  let pkt = Pktgen.next rig.gen in
  let u0 = c.Ovs_datapath.Dp_core.upcalls in
  let t0 = H.now () in
  ignore (Netdev.rss_enqueue r.Scenario.r_phy0 pkt : bool);
  Engine_vt.note_offered r.Scenario.r_eng 1;
  ignore (Engine_vt.step r.Scenario.r_eng : int);
  let t1 = H.now () in
  if c.Ovs_datapath.Dp_core.upcalls > u0 then t1 - t0 else -1

(* Conservation over everything offered after set-up. *)
let conservation rig ~offered ~d0 ~x0 =
  Scenario.quiesce rig.r;
  let accounted = delivered rig - d0 + (drops rig - x0) in
  let in_flight = Scenario.in_flight rig.r in
  ( offered - accounted,
    H.check "conservation"
      (offered = accounted && in_flight = 0)
      (Printf.sprintf "offered %d, delivered+dropped %d, in flight %d" offered
         accounted in_flight) )

let measured ~seed ~seconds ~traced ~n_setups =
  let rig, setup_s, n = H.setups n_setups (build ~seed ~traced) in
  let ph = H.phase ~chunk_pkts in
  reset_measurement rig;
  let d0 = delivered rig and x0 = drops rig in
  H.measure ph ~seconds ~prepare:(prepare rig) ~fire:(fire rig)
    ~delivered:(fun () -> delivered rig);
  (rig, ph, setup_s, n, d0, x0)

let run_e2e ~seed ~seconds =
  let rig, ph, setup_s, n_setups, d0, x0 =
    measured ~seed ~seconds ~traced:false ~n_setups:setup_runs
  in
  Scenario.quiesce rig.r;
  let charged = charged_pps rig ~delivered:(delivered rig - d0) in
  let upcalls = H.upcall_samples probes (probe rig) in
  let offered = ph.H.offered + probes in
  let failed, cons = conservation rig ~offered ~d0 ~x0 in
  let oracle =
    (Scenario.run (config ~warmup:oracle_warmup ~measure:oracle_measure ()))
      .Scenario.rate_mpps *. 1e6
  in
  let values, report, sampled = H.e2e_values ph ~setup_s ~n_setups ~upcalls in
  {
    H.values;
    attempted = offered;
    failed;
    checks =
      [
        cons;
        sampled;
        H.check "charged-oracle"
          (Float.abs (charged -. oracle) <= oracle_tolerance *. oracle)
          (Printf.sprintf "measured phase %.1f pps charged, Scenario.run %.1f pps" charged
             oracle);
      ];
    report =
      report
      @ [ Printf.sprintf "  charged rate %.1f pps (Scenario.run: %.1f pps)" charged oracle ];
  }

let run_traced ~seed ~seconds =
  let _, base, _, _, _, _ = measured ~seed ~seconds:(seconds /. 2.) ~traced:false ~n_setups:1 in
  let rig, ph, _, _, d0, x0 = measured ~seed ~seconds:(seconds /. 2.) ~traced:true ~n_setups:1 in
  let t = Option.get rig.tr in
  let packets = ph.H.offered in
  let checks = Walk.counter_checks t.w (Dpif.counters (dp rig)) in
  let busy =
    List.fold_left (fun a c -> a +. Cpu.busy c) 0. rig.r.Scenario.r_machine.Cpu.ctxs
  in
  let values =
    Walk.layer_values t.w ~dp:(dp rig) ~packets ~gc:t.gc ~charged_ns:busy
      ~install_us_per_rule:0. ~sweep_budget:0
  in
  let failed, cons = conservation rig ~offered:packets ~d0 ~x0 in
  Walk.traced_outcome t.w ~name:"p2p-emc" ~seed ~base ~ph ~values ~checks:(cons :: checks) ~failed
