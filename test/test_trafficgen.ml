(* Tests for workload generation and the three experiment models. These
   assert the *relationships* the paper reports, not absolute numbers. *)

module Scenario = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen
module Tcp_model = Ovs_trafficgen.Tcp_model
module Rr = Ovs_trafficgen.Rr_model
module Dpif = Ovs_datapath.Dpif

let check = Alcotest.check

(* -- Pktgen -- *)

let test_pktgen_flow_diversity () =
  let g = Pktgen.create ~n_flows:100 ~frame_len:64 () in
  let seen = Hashtbl.create 128 in
  for _ = 1 to 500 do
    let pkt = Pktgen.next g in
    let k = Ovs_packet.Flow_key.extract pkt in
    Hashtbl.replace seen (Ovs_packet.Flow_key.hash k) ()
  done;
  Alcotest.(check bool) "most flows appear" true (Hashtbl.length seen > 60)

let test_pktgen_single_flow () =
  let g = Pktgen.create ~n_flows:1 ~frame_len:64 () in
  let h (p : Ovs_packet.Buffer.t) = p.Ovs_packet.Buffer.rss_hash in
  let first = h (Pktgen.next g) in
  for _ = 1 to 20 do
    check Alcotest.int "same flow" first (h (Pktgen.next g))
  done

let test_pktgen_frame_len () =
  let g = Pktgen.create ~n_flows:4 ~frame_len:1518 () in
  check Alcotest.int "frame length" 1518 (Ovs_packet.Buffer.length (Pktgen.next g))

let test_pktgen_valid_packets () =
  let g = Pktgen.create ~n_flows:10 ~frame_len:64 () in
  for _ = 1 to 20 do
    let pkt = Pktgen.next g in
    (match Ovs_packet.Ethernet.parse pkt with
    | Some _ -> ()
    | None -> Alcotest.fail "bad ethernet");
    match Ovs_packet.Ipv4.parse pkt with
    | Some ip ->
        Alcotest.(check bool) "valid ip csum" true
          (Ovs_packet.Checksum.verify pkt.Ovs_packet.Buffer.data
             ~off:(Ovs_packet.Buffer.abs pkt pkt.Ovs_packet.Buffer.l3_ofs)
             ~len:Ovs_packet.Ipv4.header_len);
        ignore ip
    | None -> Alcotest.fail "bad ip"
  done

let test_pktgen_queues_hit () =
  let one = Pktgen.create ~n_flows:1 ~frame_len:64 () in
  check Alcotest.int "one flow, one queue" 1 (Pktgen.queues_hit one ~n_queues:16);
  let many = Pktgen.create ~n_flows:512 ~frame_len:64 () in
  Alcotest.(check bool) "many flows spread" true (Pktgen.queues_hit many ~n_queues:16 >= 12)

(* -- Zipf-skewed flow mix (seeded, deterministic) -- *)

let hashes g n = List.init n (fun _ -> (Pktgen.next g).Ovs_packet.Buffer.rss_hash)

let test_pktgen_zipf_deterministic () =
  let mk () = Pktgen.create ~seed:11 ~mix:(Pktgen.Zipf 1.2) ~n_flows:256 ~frame_len:64 () in
  Alcotest.(check (list int)) "same seed, same sequence" (hashes (mk ()) 400)
    (hashes (mk ()) 400)

let test_pktgen_zipf_reset_replays () =
  let g = Pktgen.create ~seed:5 ~mix:(Pktgen.Zipf 0.9) ~n_flows:128 ~frame_len:64 () in
  let first = hashes g 300 in
  Pktgen.reset g;
  Alcotest.(check (list int)) "reset replays the choices" first (hashes g 300)

let test_pktgen_zipf_skew () =
  let top_share mix =
    let g = Pktgen.create ~seed:11 ~mix ~n_flows:256 ~frame_len:64 () in
    let counts = Hashtbl.create 256 in
    for _ = 1 to 5_000 do
      let h = (Pktgen.next g).Ovs_packet.Buffer.rss_hash in
      Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h))
    done;
    float_of_int (Hashtbl.fold (fun _ c m -> max c m) counts 0) /. 5_000.
  in
  let zipf = top_share (Pktgen.Zipf 1.2) and uniform = top_share Pktgen.Uniform in
  Alcotest.(check bool) "elephant flow dominates" true (zipf > 0.15);
  Alcotest.(check bool) "far above the uniform top flow" true (zipf > 5. *. uniform)

(* Property: under any exponent and seed, the Zipf mix only ever emits the
   template set, and two generators with equal seeds agree packet by
   packet (determinism is what makes cache experiments reproducible). *)
let prop_zipf_deterministic =
  QCheck.Test.make ~count:30 ~name:"zipf mix deterministic for any seed/exponent"
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, s10) ->
      let mix = Pktgen.Zipf (float_of_int s10 /. 10.) in
      let mk () = Pktgen.create ~seed ~mix ~n_flows:64 ~frame_len:64 () in
      hashes (mk ()) 100 = hashes (mk ()) 100)

(* -- connection churn -- *)

(* Drive a churning generator through a fixed virtual-time schedule and
   record (rebirth events, packet stream): two generators with the same
   seed must agree on both — rebirths are pure in (seed, slot,
   generation), so the whole flow schedule is reproducible. *)
let churn_schedule () =
  let g =
    Pktgen.create ~seed:21 ~mix:(Pktgen.Zipf 0.9)
      ~churn:{ Pktgen.flows_per_s = 1000. } ~n_flows:100 ~frame_len:64 ()
  in
  let events = ref [] and stream = ref [] in
  for tick = 1 to 40 do
    let now = float_of_int tick *. 25e6 (* 25 ms *) in
    let reborn = Pktgen.churn_tick g ~now in
    events := (tick, reborn) :: !events;
    for _ = 1 to 5 do
      stream := (Pktgen.next g).Ovs_packet.Buffer.rss_hash :: !stream
    done
  done;
  (g, List.rev !events, List.rev !stream)

let test_churn_deterministic () =
  let _, ev1, st1 = churn_schedule () in
  let _, ev2, st2 = churn_schedule () in
  Alcotest.(check bool) "same seed, same rebirth schedule" true (ev1 = ev2);
  Alcotest.(check (list int)) "same seed, same packet stream" st1 st2;
  Alcotest.(check bool) "churn actually happened" true
    (List.exists (fun (_, r) -> r <> []) ev1)

let test_churn_rebirth_changes_flow () =
  let g =
    Pktgen.create ~seed:3 ~churn:{ Pktgen.flows_per_s = 100. } ~n_flows:10
      ~frame_len:64 ()
  in
  let before =
    Array.map (fun p -> p.Ovs_packet.Buffer.rss_hash) g.Pktgen.templates
  in
  (* one full slot lifetime: every slot must have been reborn once *)
  ignore (Pktgen.churn_tick g ~now:(Pktgen.slot_lifetime_ns g *. 1.01));
  Array.iteri
    (fun i h ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d reborn" i)
        true
        (g.Pktgen.templates.(i).Ovs_packet.Buffer.rss_hash <> h))
    before

let test_churn_reset_replays () =
  let g, ev1, st1 = churn_schedule () in
  Pktgen.reset g;
  let events = ref [] and stream = ref [] in
  for tick = 1 to 40 do
    let now = float_of_int tick *. 25e6 in
    events := (tick, Pktgen.churn_tick g ~now) :: !events;
    for _ = 1 to 5 do
      stream := (Pktgen.next g).Ovs_packet.Buffer.rss_hash :: !stream
    done
  done;
  Alcotest.(check bool) "reset replays rebirths" true (ev1 = List.rev !events);
  Alcotest.(check (list int)) "reset replays the stream" st1 (List.rev !stream)

(* -- Scenario relationships (the evaluation's qualitative claims) -- *)

let quick cfg = Scenario.run { cfg with Scenario.warmup = 2000; measure = 10_000 }

let p2p kind n_flows =
  quick { Scenario.default_config with kind; n_flows; gbps = 25. }

let test_fig2_ordering () =
  (* DPDK > kernel > eBPF, eBPF within 10-25% of kernel *)
  let k = (p2p Dpif.Kernel 1).Scenario.rate_mpps in
  let d = (p2p Dpif.Dpdk 1).Scenario.rate_mpps in
  let e = (p2p Dpif.Kernel_ebpf 1).Scenario.rate_mpps in
  Alcotest.(check bool) "DPDK fastest" true (d > k);
  Alcotest.(check bool) "eBPF slower than kernel" true (e < k);
  Alcotest.(check bool) "eBPF within 25%" true (e > 0.75 *. k)

let test_table2_ladder_monotone () =
  let rates =
    List.map
      (fun (_, o) -> (p2p (Dpif.Afxdp o) 1).Scenario.rate_mpps)
      Dpif.afxdp_ladder
  in
  let rec increasing = function
    | a :: b :: rest -> a < b && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "each optimization helps" true (increasing rates);
  (match rates with
  | first :: _ ->
      Alcotest.(check bool) "O1 alone is ~6x (0.8 -> 4.8)" true
        (List.nth rates 1 > 5. *. first)
  | [] -> Alcotest.fail "no ladder")

let test_fig9_flows_hurt_userspace_help_kernel () =
  let d1 = (p2p Dpif.Dpdk 1).Scenario.rate_mpps in
  let dk = (p2p Dpif.Dpdk 1000).Scenario.rate_mpps in
  Alcotest.(check bool) "1000 flows slower for DPDK" true (dk < d1);
  let k1 = (p2p Dpif.Kernel 1).Scenario.rate_mpps in
  let kk = (p2p Dpif.Kernel 1000).Scenario.rate_mpps in
  Alcotest.(check bool) "1000 flows faster for kernel (RSS)" true (kk > k1)

let test_fig9_kernel_burns_cores () =
  let r = p2p Dpif.Kernel 1000 in
  Alcotest.(check bool) "fast but not efficient: ~8+ cores" true
    (r.Scenario.cpu.Ovs_sim.Cpu.bd_total > 7.);
  let d = p2p Dpif.Dpdk 1000 in
  Alcotest.(check bool) "DPDK pinned to one core" true
    (abs_float (d.Scenario.cpu.Ovs_sim.Cpu.bd_total -. 1.0) < 0.11)

let test_fig9_pvp_vhost_beats_tap () =
  let run virt =
    quick
      { Scenario.default_config with topology = Scenario.PVP virt; gbps = 25. }
  in
  let tap = run Scenario.Vm_tap and vhost = run Scenario.Vm_vhost in
  Alcotest.(check bool) "vhostuser always better than tap" true
    (vhost.Scenario.rate_mpps > 2. *. tap.Scenario.rate_mpps)

let test_fig9_pcp_xdp_wins () =
  let run kind topology = quick { Scenario.default_config with kind; topology; gbps = 25. } in
  let xdp = run (Dpif.Afxdp Dpif.afxdp_default) (Scenario.PCP Scenario.Ct_xdp) in
  let kernel = run Dpif.Kernel (Scenario.PCP Scenario.Ct_veth) in
  let dpdk = run Dpif.Dpdk (Scenario.PCP Scenario.Ct_afpacket) in
  Alcotest.(check bool) "AF_XDP best for containers (Outcome 2)" true
    (xdp.Scenario.rate_mpps > kernel.Scenario.rate_mpps
    && xdp.Scenario.rate_mpps > dpdk.Scenario.rate_mpps)

let test_fig12_scaling_and_gap () =
  let run kind queues =
    (quick { Scenario.default_config with kind; queues; n_flows = 256; gbps = 25. })
      .Scenario.rate_mpps
  in
  let a1 = run (Dpif.Afxdp Dpif.afxdp_default) 1 in
  let a6 = run (Dpif.Afxdp Dpif.afxdp_default) 6 in
  let d6 = run Dpif.Dpdk 6 in
  Alcotest.(check bool) "queues help AF_XDP" true (a6 > 1.5 *. a1);
  Alcotest.(check bool) "AF_XDP sublinear (tops out ~12M)" true (a6 < 4. *. a1);
  Alcotest.(check bool) "DPDK above AF_XDP at 6 queues" true (d6 > a6)

(* -- TCP model -- *)

let test_fig8_offload_ladders () =
  let c = Ovs_sim.Costs.default in
  let gbps cfg = (Tcp_model.run c cfg).Tcp_model.gbps in
  let vhost csum tso =
    {
      Tcp_model.datapath = Tcp_model.Dp_afxdp_poll;
      virt = Tcp_model.Vhost;
      offloads = { Tcp_model.csum; tso };
      cross_host = false;
      link_gbps = 10.;
    }
  in
  let none = gbps (vhost false false) in
  let csum = gbps (vhost true false) in
  let tso = gbps (vhost true true) in
  Alcotest.(check bool) "csum offload helps" true (csum > none);
  Alcotest.(check bool) "TSO helps a lot (3x+)" true (tso > 3. *. csum)

let test_fig8_polling_beats_interrupt () =
  let c = Ovs_sim.Costs.default in
  let tap dp =
    {
      Tcp_model.datapath = dp;
      virt = Tcp_model.Tap;
      offloads = { Tcp_model.csum = false; tso = false };
      cross_host = true;
      link_gbps = 10.;
    }
  in
  let intr = (Tcp_model.run c (tap Tcp_model.Dp_afxdp_interrupt)).Tcp_model.gbps in
  let poll = (Tcp_model.run c (tap Tcp_model.Dp_afxdp_poll)).Tcp_model.gbps in
  Alcotest.(check bool) "polling beats interrupt (Fig 8a)" true (poll > intr)

let test_fig8_container_kernel_beats_afxdp_tcp () =
  (* Outcome 1: for container TCP, in-kernel still wins *)
  let c = Ovs_sim.Costs.default in
  let veth dp csum tso =
    (Tcp_model.run c
       {
         Tcp_model.datapath = dp;
         virt = Tcp_model.Veth;
         offloads = { Tcp_model.csum; tso };
         cross_host = false;
         link_gbps = 10.;
       })
      .Tcp_model.gbps
  in
  Alcotest.(check bool) "kernel veth TSO beats AF_XDP veth TSO" true
    (veth Tcp_model.Dp_kernel true true > veth Tcp_model.Dp_afxdp_poll true true)

let test_fig8_line_rate_cap () =
  let c = Ovs_sim.Costs.default in
  let r =
    Tcp_model.run c
      {
        Tcp_model.datapath = Tcp_model.Dp_kernel;
        virt = Tcp_model.Veth;
        offloads = { Tcp_model.csum = true; tso = true };
        cross_host = true;
        link_gbps = 10.;
      }
  in
  Alcotest.(check bool) "cross-host capped below 10G" true (r.Tcp_model.gbps < 10.)

let test_fig8_all_bars_positive () =
  let c = Ovs_sim.Costs.default in
  List.iter
    (fun (name, cfg, _) ->
      let r = Tcp_model.run c cfg in
      if r.Tcp_model.gbps <= 0. then Alcotest.failf "%s non-positive" name)
    Tcp_model.figure8_bars

let test_fig8_within_2x_of_paper () =
  let c = Ovs_sim.Costs.default in
  List.iter
    (fun (name, cfg, paper) ->
      let g = (Tcp_model.run c cfg).Tcp_model.gbps in
      if g < paper /. 2. || g > paper *. 2. then
        Alcotest.failf "%s: model %.1f vs paper %.1f beyond 2x" name g paper)
    Tcp_model.figure8_bars

(* -- RR model -- *)

let test_fig10_orderings () =
  let c = Ovs_sim.Costs.default in
  let run cfg = Rr.run (Rr.interhost_path c cfg) in
  let k = run Rr.Rr_kernel and a = run Rr.Rr_afxdp and d = run Rr.Rr_dpdk in
  Alcotest.(check bool) "kernel slowest" true
    (k.Rr.p50_us > a.Rr.p50_us && k.Rr.p50_us > d.Rr.p50_us);
  Alcotest.(check bool) "AF_XDP barely trails DPDK" true
    (a.Rr.p50_us -. d.Rr.p50_us < 6.);
  Alcotest.(check bool) "percentiles ordered" true
    (k.Rr.p50_us <= k.Rr.p90_us && k.Rr.p90_us <= k.Rr.p99_us);
  Alcotest.(check bool) "kernel has the fattest tail" true
    (k.Rr.p99_us -. k.Rr.p50_us > d.Rr.p99_us -. d.Rr.p50_us)

let test_fig11_orderings () =
  let c = Ovs_sim.Costs.default in
  let run cfg = Rr.run (Rr.intrahost_container_path c cfg) in
  let k = run Rr.Rr_kernel and a = run Rr.Rr_afxdp and d = run Rr.Rr_dpdk in
  Alcotest.(check bool) "kernel ~ AF_XDP" true (abs_float (k.Rr.p50_us -. a.Rr.p50_us) < 4.);
  Alcotest.(check bool) "DPDK much slower for containers" true
    (d.Rr.p50_us > 3. *. k.Rr.p50_us);
  Alcotest.(check bool) "DPDK tail beyond 200us" true (d.Rr.p99_us > 200.)

let test_rr_transactions_inverse_of_latency () =
  let c = Ovs_sim.Costs.default in
  let r = Rr.run (Rr.interhost_path c Rr.Rr_dpdk) in
  (* transactions/s ~ 1e6 / mean-latency-in-us; sanity band *)
  Alcotest.(check bool) "transaction rate plausible" true
    (r.Rr.transactions_per_s > 1e6 /. (r.Rr.p99_us *. 1.5)
    && r.Rr.transactions_per_s < 1e6 /. (r.Rr.p50_us /. 1.5))

let test_rr_deterministic () =
  let c = Ovs_sim.Costs.default in
  let a = Rr.run ~seed:3 (Rr.interhost_path c Rr.Rr_kernel) in
  let b = Rr.run ~seed:3 (Rr.interhost_path c Rr.Rr_kernel) in
  check (Alcotest.float 1e-9) "deterministic" a.Rr.p99_us b.Rr.p99_us

(* -- the conservation ledger: one drop counter moves per cause -- *)

module Ledger = Scenario.Ledger
module Chaos = Ovs_trafficgen.Chaos

(* The phase's books conserve and exactly [counter] moved. *)
let check_one_counter counter (books : Ledger.diff) =
  let moved = List.filter (fun (_, n) -> n <> 0) books.Ledger.d_drops in
  check
    Alcotest.(list string)
    (Printf.sprintf "only %s moved (%s)" counter (Ledger.render books))
    [ counter ] (List.map fst moved);
  check Alcotest.bool
    (Printf.sprintf "books conserve (%s)" (Ledger.render books))
    true (Ledger.conserved books)

(* offer past the NIC ring's capacity with no poll, then drain *)
let test_ledger_nic_overflow () =
  let r = Scenario.setup (Scenario.config ~kind:Dpif.Kernel ()) in
  let ledger = Scenario.reset r "overflow" in
  let extra = 100 in
  for _ = 1 to r.Scenario.r_phy0.Ovs_netdev.Netdev.queue_capacity + extra do
    Ledger.offer ledger r (Pktgen.next r.Scenario.r_gen)
  done;
  Scenario.quiesce r;
  let books = Ledger.diff ledger r in
  check_one_counter "phy0.rx_dropped" books;
  check Alcotest.int "the overflow is the drop count" extra (Ledger.drops books)

let chaos_books plan leg =
  let spec = List.find (fun s -> s.Chaos.s_name = plan) Chaos.catalog in
  let cfg = { (Chaos.leg_config spec leg) with Scenario.measure = 8_000 } in
  (Scenario.run_chaos cfg spec.Chaos.s_plan).Scenario.c_ledger

let test_ledger_umem_exhaust () =
  check_one_counter "xsk.rx_dropped_no_frame"
    (chaos_books "umem_exhaust" Chaos.Afxdp_leg)

let test_ledger_mangled_drop () =
  check_one_counter "dp.dropped" (chaos_books "pkt_mangle" Chaos.Kernel_leg)

(* a guest whose virtual NIC is down drops every bounced packet *)
let test_ledger_vdev_overflow () =
  let r =
    Scenario.setup
      (Scenario.config ~kind:Dpif.Dpdk
         ~topology:(Scenario.PVP Scenario.Vm_vhost) ())
  in
  List.iter (fun (d, _) -> d.Ovs_netdev.Netdev.up <- false) r.Scenario.r_vdevs;
  let ledger = Scenario.reset r "vdev" in
  Scenario.drive ~ledger r 320;
  Scenario.quiesce r;
  let books = Ledger.diff ledger r in
  check_one_counter "vdev.rx_dropped" books;
  check Alcotest.int "every offered packet dropped at the guest" 320
    (Ledger.drops books)

(* a leak the books cannot place is named, with its phase *)
let test_ledger_names_a_leak () =
  let r = Scenario.setup (Scenario.config ~kind:Dpif.Kernel ()) in
  let ledger = Scenario.reset r "leaky" in
  Ledger.offer ledger r (Pktgen.next r.Scenario.r_gen);
  ignore (Ovs_netdev.Netdev.dequeue r.Scenario.r_phy0 ~queue:0 ~max:1);
  let books = Ledger.diff ledger r in
  check Alcotest.int "one packet unaccounted" 1 (Ledger.unaccounted books);
  check Alcotest.string "rendered books"
    "phase leaky: offered 1 = delivered 0 + drops 0 [no drop counter \
     moved] + in flight 0 + 1 unaccounted"
    (Ledger.render books)

let () =
  Alcotest.run "ovs_trafficgen"
    [
      ( "pktgen",
        [
          Alcotest.test_case "flow diversity" `Quick test_pktgen_flow_diversity;
          Alcotest.test_case "single flow" `Quick test_pktgen_single_flow;
          Alcotest.test_case "frame length" `Quick test_pktgen_frame_len;
          Alcotest.test_case "valid packets" `Quick test_pktgen_valid_packets;
          Alcotest.test_case "queues hit" `Quick test_pktgen_queues_hit;
          Alcotest.test_case "zipf deterministic" `Quick test_pktgen_zipf_deterministic;
          Alcotest.test_case "zipf reset replays" `Quick test_pktgen_zipf_reset_replays;
          Alcotest.test_case "zipf skew" `Quick test_pktgen_zipf_skew;
          Alcotest.test_case "churn deterministic" `Quick
            test_churn_deterministic;
          Alcotest.test_case "churn rebirth changes flow" `Quick
            test_churn_rebirth_changes_flow;
          Alcotest.test_case "churn reset replays" `Quick
            test_churn_reset_replays;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_zipf_deterministic ] );
      ( "scenario",
        [
          Alcotest.test_case "fig2 ordering" `Slow test_fig2_ordering;
          Alcotest.test_case "table2 ladder monotone" `Slow test_table2_ladder_monotone;
          Alcotest.test_case "fig9 flow count effects" `Slow
            test_fig9_flows_hurt_userspace_help_kernel;
          Alcotest.test_case "fig9 kernel burns cores" `Slow test_fig9_kernel_burns_cores;
          Alcotest.test_case "fig9 vhost beats tap" `Slow test_fig9_pvp_vhost_beats_tap;
          Alcotest.test_case "fig9 pcp xdp wins" `Slow test_fig9_pcp_xdp_wins;
          Alcotest.test_case "fig12 scaling and gap" `Slow test_fig12_scaling_and_gap;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "nic ring overflow" `Quick test_ledger_nic_overflow;
          Alcotest.test_case "umem exhaust" `Quick test_ledger_umem_exhaust;
          Alcotest.test_case "strict_match mangled drop" `Quick
            test_ledger_mangled_drop;
          Alcotest.test_case "vdev overflow" `Quick test_ledger_vdev_overflow;
          Alcotest.test_case "names a leak" `Quick test_ledger_names_a_leak;
        ] );
      ( "tcp_model",
        [
          Alcotest.test_case "offload ladders" `Quick test_fig8_offload_ladders;
          Alcotest.test_case "polling beats interrupt" `Quick
            test_fig8_polling_beats_interrupt;
          Alcotest.test_case "container kernel wins TCP" `Quick
            test_fig8_container_kernel_beats_afxdp_tcp;
          Alcotest.test_case "line rate cap" `Quick test_fig8_line_rate_cap;
          Alcotest.test_case "all bars positive" `Quick test_fig8_all_bars_positive;
          Alcotest.test_case "within 2x of paper" `Quick test_fig8_within_2x_of_paper;
        ] );
      ( "rr_model",
        [
          Alcotest.test_case "fig10 orderings" `Quick test_fig10_orderings;
          Alcotest.test_case "fig11 orderings" `Quick test_fig11_orderings;
          Alcotest.test_case "transactions inverse latency" `Quick
            test_rr_transactions_inverse_of_latency;
          Alcotest.test_case "deterministic" `Quick test_rr_deterministic;
        ] );
    ]
