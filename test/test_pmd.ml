(* Tests for the poll-mode runtime: rxq sharding, per-PMD counter
   attribution, and upcalls resolved (or failed) in the step that
   received them. *)

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

let make_rt ?(queues = 4) ~n_pmds (r : rig) =
  Pmd.create ~dp:r.dp ~machine:r.machine ~softirq:r.softirq
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

(* One PMD step runs its own misses: with an upcall-storm window open
   every upcall of the burst fails inside the poll that received it, so
   each received packet is already sent or counted dropped when poll_all
   returns (nothing waits in a queue for a later step), and [lost] counts
   exactly the misses. One rxq, so poll_all is exactly one step. After
   the window the next burst of fresh flows forwards in full. *)
let test_storm_fails_upcalls_in_step () =
  let r = make_rig ~queues:1 () in
  let rt = make_rt ~queues:1 ~n_pmds:1 r in
  Faults.arm
    (Faults.plan ~name:"storm" ~seed:7
       [
         {
           Faults.f_name = "storm";
           f_action = Faults.Upcall_storm;
           f_start = 0.;
           f_stop = Time.ms 1.;
         };
       ]);
  Fun.protect ~finally:Faults.disarm (fun () ->
      ignore (Faults.tick 0. : Faults.fault list);
      Dpif.flush_caches r.dp;
      let burst base n =
        for i = 0 to n - 1 do
          ignore
            (Netdev.enqueue_on r.phy0 ~queue:0 (B.udp ~src_port:(base + i) ())
              : bool)
        done;
        ignore (Pmd.poll_all rt : int)
      in
      burst 2000 16;
      let s = Pmd.stats_of (List.hd (Pmd.pmds rt)) in
      let agg = Dpif.counters r.dp in
      let sent = r.phy1.Netdev.stats.Netdev.tx_packets in
      check Alcotest.int "the burst was received" 16 s.Pmd.rx_packets;
      check Alcotest.int "every received packet is sent or dropped"
        s.Pmd.rx_packets (sent + agg.Dp_core.dropped);
      let misses =
        s.Pmd.rx_packets - s.Pmd.emc_hits - s.Pmd.smc_hits - s.Pmd.megaflow_hits
      in
      check Alcotest.int "every flow missed" 16 misses;
      check Alcotest.int "lost = misses" misses s.Pmd.lost;
      ignore (Faults.tick (Time.ms 1.) : Faults.fault list);
      burst 3000 32;
      check Alcotest.int "after the window, the burst is forwarded" 32
        (r.phy1.Netdev.stats.Netdev.tx_packets - sent))

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
          Alcotest.test_case "upcall storm fails upcalls in the step" `Quick
            test_storm_fails_upcalls_in_step;
          Alcotest.test_case "scaling + appctl reports" `Quick
            test_scaling_and_reports;
          Alcotest.test_case "coverage counters fire" `Quick
            test_coverage_counters_fire;
        ] );
    ]
