(* Tests for the poll-mode runtime: rxq sharding, per-PMD counter
   attribution, bounded upcall queues, and the schedule-explorer steps
   reproducing the fused main loop. *)

module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Pmd = Ovs_datapath.Pmd
module Netdev = Ovs_netdev.Netdev
module Scenario = Ovs_trafficgen.Scenario
module Cpu = Ovs_sim.Cpu
module Faults = Ovs_faults.Faults
module Time = Ovs_sim.Time
module B = Ovs_packet.Build

let check = Alcotest.check

type rig = {
  dp : Dpif.t;
  phy0 : Netdev.t;
  phy1 : Netdev.t;
  p0 : int;
  machine : Cpu.t;
  softirq : Cpu.ctx array;
}

let make_rig ?(queues = 4) () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:8 () in
  let dp = Dpif.create ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~pipeline () in
  let phy0 = Netdev.create ~name:"eth0" ~queues () in
  let phy1 = Netdev.create ~name:"eth1" ~queues () in
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  ignore
    (Ovs_ofproto.Parser.install_flows pipeline
       [ Printf.sprintf "table=0,priority=10,in_port=%d actions=output:%d" p0 p1 ]);
  let machine = Cpu.create () in
  let softirq =
    Array.init queues (fun i -> Cpu.ctx machine (Printf.sprintf "softirq%d" i))
  in
  { dp; phy0; phy1; p0; machine; softirq }

let make_rt ?upcall_capacity ?(queues = 4) ~n_pmds (r : rig) =
  Pmd.create ?upcall_capacity ~dp:r.dp ~machine:r.machine ~softirq:r.softirq
    ~port_no:r.p0 ~queues ~n_pmds ()

(* every (port, queue) appears exactly once, on a valid pmd id *)
let check_partition ~queues ~n_pmds rt =
  let rows = Pmd.assignment rt in
  check Alcotest.int "every rxq assigned" queues (List.length rows);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (_port, queue, pmd) ->
      Alcotest.(check bool) "no rxq on two PMDs" false (Hashtbl.mem seen queue);
      Hashtbl.add seen queue ();
      Alcotest.(check bool) "queue id in range" true (queue >= 0 && queue < queues);
      Alcotest.(check bool) "pmd id in range" true (pmd >= 0 && pmd < n_pmds))
    rows

let test_assignment_is_partition () =
  List.iter
    (fun (queues, n_pmds) ->
      let r = make_rig ~queues () in
      let rt = make_rt ~queues ~n_pmds r in
      check_partition ~queues ~n_pmds rt;
      (* the partition property survives a cycles-based rebalance *)
      Pmd.rebalance rt;
      check_partition ~queues ~n_pmds rt)
    [ (1, 1); (4, 1); (4, 2); (4, 4); (6, 4); (8, 3) ]

let drive ?(flows = 64) rt (r : rig) ~n =
  let injected = ref 0 in
  while !injected < n do
    for _ = 1 to 32 do
      ignore (Netdev.rss_enqueue r.phy0 (B.udp ~src_port:(1000 + (!injected mod flows)) ()) : bool);
      incr injected
    done;
    ignore (Pmd.poll_all rt)
  done;
  (* drain any residue so counters settle *)
  while Pmd.poll_all rt > 0 do
    ()
  done

let test_per_pmd_totals_match_aggregate () =
  let r = make_rig () in
  let rt = make_rt ~n_pmds:3 r in
  drive rt r ~n:2_000;
  let agg = Dpif.counters r.dp in
  let sum f = List.fold_left (fun acc p -> acc + f (Pmd.stats_of p)) 0 (Pmd.pmds rt) in
  check Alcotest.int "rx sums to aggregate" agg.Dp_core.packets
    (sum (fun s -> s.Pmd.rx_packets));
  check Alcotest.int "emc hits sum" agg.Dp_core.emc_hits
    (sum (fun s -> s.Pmd.emc_hits));
  check Alcotest.int "megaflow hits sum" agg.Dp_core.dpcls_hits
    (sum (fun s -> s.Pmd.megaflow_hits));
  check Alcotest.int "misses sum" agg.Dp_core.upcalls (sum (fun s -> s.Pmd.miss));
  (* nothing was lost: every rx packet is a hit or a successful miss *)
  check Alcotest.int "hits + miss = rx"
    (sum (fun s -> s.Pmd.rx_packets))
    (sum (fun s -> s.Pmd.emc_hits + s.Pmd.smc_hits + s.Pmd.megaflow_hits + s.Pmd.miss));
  Alcotest.(check bool) "multiple PMDs saw traffic" true
    (List.length
       (List.filter (fun p -> (Pmd.stats_of p).Pmd.rx_packets > 0) (Pmd.pmds rt))
    > 1)

let test_upcall_overflow_counts_lost () =
  let r = make_rig () in
  (* capacity 2 with a 32-packet burst of distinct megaflow-missing flows:
     the EMC/dpcls are empty on first contact, so one burst overflows *)
  let rt = make_rt ~upcall_capacity:2 ~n_pmds:1 r in
  Dpif.flush_caches r.dp;
  for i = 0 to 31 do
    ignore (Netdev.enqueue_on r.phy0 ~queue:0 (B.udp ~src_port:(2000 + i) ()) : bool)
  done;
  ignore (Pmd.poll_all rt);
  let lost = List.fold_left (fun acc p -> acc + (Pmd.stats_of p).Pmd.lost) 0 (Pmd.pmds rt) in
  Alcotest.(check bool) "overflow increments lost" true (lost > 0);
  let agg = Dpif.counters r.dp in
  Alcotest.(check bool) "lost packets are dropped" true (agg.Dp_core.dropped >= lost);
  (* the runtime keeps working afterwards: the surviving upcalls installed
     the megaflow, so the next burst forwards without loss *)
  let tx0 = r.phy1.Netdev.stats.Netdev.tx_packets in
  for i = 0 to 31 do
    ignore (Netdev.enqueue_on r.phy0 ~queue:0 (B.udp ~src_port:(2000 + i) ()) : bool)
  done;
  ignore (Pmd.poll_all rt);
  check Alcotest.int "no deadlock, burst forwarded" 32
    (r.phy1.Netdev.stats.Netdev.tx_packets - tx0)

(* The schedule explorer drives a PMD through step_poll, step_retry and
   step_drain; its findings hold for the real loop only if those steps
   are poll_all. Twin 2-PMD/2-rxq rigs see the same traffic under an
   upcall-storm window (so parked upcalls take the retry path): one runs
   poll_all, the other the three steps per rxq. After every sweep the
   Dp_core counters, the per-PMD stats (all but rxq_cycles), each
   context's charged busy ns and the delivered count must agree. *)
let test_steps_are_the_loop () =
  let storm =
    Faults.plan ~name:"steps" ~seed:7
      [
        {
          Faults.f_name = "storm";
          f_action = Faults.Upcall_storm;
          f_start = Time.us 30.;
          f_stop = Time.us 50.;
        };
      ]
  in
  let snapshot (r : rig) rt =
    let c = Dpif.counters r.dp in
    let pmd p =
      let s = Pmd.stats_of p in
      Printf.sprintf
        "rx=%d emc=%d smc=%d mf=%d miss=%d lost=%d retried=%d polls=%d idle=%d"
        s.Pmd.rx_packets s.Pmd.emc_hits s.Pmd.smc_hits s.Pmd.megaflow_hits
        s.Pmd.miss s.Pmd.lost s.Pmd.retried s.Pmd.polls s.Pmd.idle_polls
    in
    let busy (ctx : Cpu.ctx) =
      Printf.sprintf "%s=%.17g" ctx.Cpu.name (Cpu.busy ctx)
    in
    String.concat " | "
      ([
         Printf.sprintf
           "packets=%d passes=%d upcalls=%d emc=%d smc=%d dpcls=%d \
            dropped=%d sent=%d delivered=%d"
           c.Dp_core.packets c.Dp_core.passes c.Dp_core.upcalls
           c.Dp_core.emc_hits c.Dp_core.smc_hits c.Dp_core.dpcls_hits
           c.Dp_core.dropped c.Dp_core.sent
           r.phy1.Netdev.stats.Netdev.tx_packets;
       ]
      @ List.map pmd (Pmd.pmds rt)
      @ List.map busy r.machine.Cpu.ctxs)
  in
  let run sweep =
    let r = make_rig ~queues:2 () in
    let rt = make_rt ~queues:2 ~n_pmds:2 r in
    Faults.arm storm;
    let pmd_wall () =
      List.fold_left (fun a p -> Float.max a (Cpu.busy (Pmd.pmd_ctx p))) 0.
        (Pmd.pmds rt)
    in
    let trail = ref [] in
    let sweep () =
      sweep rt;
      trail := snapshot r rt :: !trail
    in
    for round = 0 to 39 do
      (* the storm begins with a cache flush, as in the chaos rig: every
         packet misses into the refusing upcall queue *)
      if Faults.tick (pmd_wall ()) <> [] then Dpif.flush_caches r.dp;
      for i = 0 to 15 do
        ignore
          (Netdev.rss_enqueue r.phy0
             (B.udp ~src_port:(3000 + (round mod 4 * 16) + i) ())
            : bool)
      done;
      sweep ()
    done;
    ignore (Faults.tick (Time.ms 1.) : Faults.fault list);
    for _ = 1 to 8 do
      sweep ()
    done;
    Faults.disarm ();
    let retried =
      List.fold_left (fun a p -> a + (Pmd.stats_of p).Pmd.retried) 0 (Pmd.pmds rt)
    in
    (List.rev !trail, retried, r.phy1.Netdev.stats.Netdev.tx_packets)
  in
  let fused, retried, sent = run (fun rt -> ignore (Pmd.poll_all rt : int)) in
  let stepped, _, _ =
    run (fun rt ->
        Pmd.handle_crashes rt;
        List.iter
          (fun p ->
            List.iter
              (fun rxq ->
                ignore (Pmd.step_poll rt p rxq : int);
                Pmd.step_retry rt p;
                Pmd.step_drain rt p)
              (Pmd.rxqs_of p))
          (Pmd.pmds rt))
  in
  Alcotest.(check bool) "the storm parked upcalls for retry" true (retried > 0);
  Alcotest.(check bool) "traffic was forwarded" true (sent > 0);
  check Alcotest.(list string) "identical after every sweep" fused stepped

let test_scaling_and_reports () =
  let run n_pmds =
    Scenario.run
      (Scenario.config ~gbps:100. ~n_flows:512 ~n_pmds ~queues:4 ~warmup:2000
         ~measure:10_000 ())
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "4 PMDs beat 1 PMD" true
    (r4.Scenario.rate_mpps > r1.Scenario.rate_mpps);
  check Alcotest.int "four PMD reports" 4 (List.length r4.Scenario.pmds);
  List.iter
    (fun (rep : Pmd.report) ->
      Alcotest.(check bool) "every PMD processed packets" true
        (rep.Pmd.r_stats.Pmd.rx_packets > 0);
      Alcotest.(check bool) "cycles per packet positive" true
        (rep.Pmd.r_cycles_per_pkt > 0.))
    r4.Scenario.pmds;
  (* the appctl renderings hold the right figures *)
  let stats_text = Ovs_tools.Tools.pmd_stats_show r4.Scenario.pmds in
  let rxq_text = Ovs_tools.Tools.pmd_rxq_show r4.Scenario.pmds in
  Alcotest.(check bool) "pmd-stats-show lists all cores" true
    (List.for_all
       (fun i ->
         Astring.String.is_infix ~affix:(Printf.sprintf "core_id %d" i) stats_text)
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "pmd-rxq-show lists queues" true
    (Astring.String.is_infix ~affix:"queue-id:" rxq_text)

let test_coverage_counters_fire () =
  Ovs_sim.Coverage.reset ();
  let r = make_rig () in
  let rt = make_rt ~n_pmds:2 r in
  drive rt r ~n:500;
  Alcotest.(check bool) "pmd_poll counted" true (Ovs_sim.Coverage.read "pmd_poll" > 0);
  Alcotest.(check bool) "emc hits counted" true
    (Ovs_sim.Coverage.read "dpif_emc_hit" > 0);
  Alcotest.(check bool) "upcalls counted" true
    (Ovs_sim.Coverage.read "dpif_upcall" > 0);
  match Ovs_tools.Tools.appctl "coverage/show" with
  | Ovs_tools.Tools.Ok_output text ->
      Alcotest.(check bool) "coverage/show renders" true
        (Astring.String.is_infix ~affix:"dpif_emc_hit" text)
  | Ovs_tools.Tools.Not_supported m -> Alcotest.fail m

let () =
  Alcotest.run "ovs_pmd"
    [
      ( "pmd",
        [
          Alcotest.test_case "rxq assignment is a partition" `Quick
            test_assignment_is_partition;
          Alcotest.test_case "per-PMD totals equal aggregate" `Quick
            test_per_pmd_totals_match_aggregate;
          Alcotest.test_case "upcall overflow -> lost, no deadlock" `Quick
            test_upcall_overflow_counts_lost;
          Alcotest.test_case "poll_all = step_poll; step_retry; step_drain"
            `Quick test_steps_are_the_loop;
          Alcotest.test_case "scaling + appctl reports" `Quick
            test_scaling_and_reports;
          Alcotest.test_case "coverage counters fire" `Quick
            test_coverage_counters_fire;
        ] );
    ]
