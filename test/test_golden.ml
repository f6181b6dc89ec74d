(* Golden tests for the appctl text surfaces: pmd-stats-show,
   dpif/cache-hierarchy-show, dpif/health-show and fault/list rendered
   from one small deterministic fixture and compared against the exact
   expected text, so formatting drift is caught instead of silently
   shipped. The simulator is deterministic (virtual clock, seeded PRNGs),
   so these strings are stable across runs and machines; if you change a
   renderer on purpose, update the goldens here to match. *)

module Dpif = Ovs_datapath.Dpif
module Pmd = Ovs_datapath.Pmd
module Health = Ovs_datapath.Health
module Faults = Ovs_faults.Faults
module Scenario = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen
module Netdev = Ovs_netdev.Netdev
module Time = Ovs_sim.Time
module Tools = Ovs_tools.Tools

(* The mc explorer's small model: AF_XDP with a shrunken umem, 2 PMDs x
   2 rxqs, 16 preloaded packets, one fault tick inside the umem-leak
   window, each rxq polled once (its upcalls run in the same step), one
   health sweep. *)
let fixture () =
  let opts = { Dpif.afxdp_default with Dpif.frames_per_queue = 128 } in
  let cfg =
    Scenario.config ~kind:(Dpif.Afxdp opts) ~n_flows:8 ~queues:2 ~n_pmds:2
      ~trace:true ()
  in
  let rig = Scenario.setup cfg in
  let rt =
    match rig.Scenario.r_rt with Some rt -> rt | None -> assert false
  in
  let health = Health.create ~dp:rig.Scenario.r_dp ~rt () in
  Faults.arm
    (Faults.plan ~name:"golden" ~seed:7
       [
         {
           Faults.f_name = "leak";
           f_action = Faults.Umem_leak { frames = 32 };
           f_start = Time.us 50.;
           f_stop = Time.us 150.;
         };
         {
           Faults.f_name = "storm";
           f_action = Faults.Upcall_storm;
           f_start = Time.us 150.;
           f_stop = Time.us 1000.;
         };
       ]);
  for _ = 1 to 16 do
    ignore
      (Netdev.rss_enqueue rig.Scenario.r_phy0 (Pktgen.next rig.Scenario.r_gen))
  done;
  ignore (Faults.tick (Time.us 100.));
  List.iter
    (fun pmd ->
      List.iter
        (fun rxq -> ignore (Pmd.poll_rxq rt pmd rxq : int))
        (Pmd.rxqs_of pmd))
    (Pmd.pmds rt);
  ignore (Health.check health ~now:(Time.us 100.));
  (rig, rt, health)

let golden name expected actual =
  Alcotest.(check string) (name ^ " output matches golden") (String.trim expected)
    (String.trim actual)

let with_fixture f () =
  let rig, rt, health = fixture () in
  Fun.protect ~finally:Faults.disarm (fun () -> f rig rt health)

let appctl_ok cmd = function
  | Tools.Ok_output s -> s
  | Tools.Not_supported e -> Alcotest.failf "%s unsupported: %s" cmd e

let test_pmd_stats _rig rt _health =
  golden "dpif-netdev/pmd-stats-show"
    {|pmd thread numa_id 0 core_id 0:
  packets received: 9
  emc hits: 0
  smc hits: 0
  megaflow hits: 8
  miss with success upcall: 1
  miss with failed upcall: 0
  avg cycles per packet: 3126 (28136/9)
  idle cycles: 971864 (97.19%)
  processing cycles: 28136 (2.81%)
pmd thread numa_id 0 core_id 1:
  packets received: 7
  emc hits: 4
  smc hits: 0
  megaflow hits: 3
  miss with success upcall: 0
  miss with failed upcall: 0
  avg cycles per packet: 207 (1449/7)
  idle cycles: 998551 (99.86%)
  processing cycles: 1449 (0.14%)|}
    (Tools.pmd_stats_show (Pmd.reports ~wall:(Time.ms 1.) rt))

let test_cache_hierarchy rig _rt _health =
  golden "dpif/cache-hierarchy-show"
    {|cache hierarchy: 16 packets, 16 datapath passes
  tier             hits     hit%     cycles/hit
  emc                 4    25.0%           27.0
  smc                 0     0.0%            0.0
  ccache              0     0.0%            0.0
  dpcls              11    68.8%           30.0
  upcall              1     6.2%
  dpcls: 1 subtables, 1 megaflows, 0.52 mean probes/lookup
  ccache: absent (never enabled)|}
    (appctl_ok "dpif/cache-hierarchy-show"
       (Tools.appctl ~dp:rig.Scenario.r_dp "dpif/cache-hierarchy-show"))

let test_health_show _rig _rt health =
  golden "dpif/health-show"
    {|health: DEGRADED
  pmd0: alive, 0 restarts, rx 9, lost 0
  pmd1: alive, 0 restarts, rx 7, lost 0
  port 0 (eth0): carrier up, pending 0, rx_dropped 0, umem 160 free / 32 leaked
  port 1 (eth1): carrier up, pending 0, rx_dropped 0, umem 192 free / 0 leaked
  recoveries: 0 (repairs 0)
  unhealthy for 0.0 ns|}
    (appctl_ok "dpif/health-show" (Tools.appctl ~health "dpif/health-show"))

(* latency-show renders from the datapath's sojourn sketch; the fixture
   never arms latency measurement, so the empty surface is the honest
   first golden, and a handful of hand-fed samples pin the table *)
let test_latency_show_empty rig _rt _health =
  golden "dpif/latency-show (empty)"
    {|per-packet sojourn (ns): 0 samples, +/-1% per quantile
  (empty: run traffic with latency measurement armed)|}
    (appctl_ok "dpif/latency-show"
       (Tools.appctl ~dp:rig.Scenario.r_dp "dpif/latency-show"))

let test_latency_show rig _rt _health =
  let q = Dpif.latency rig.Scenario.r_dp in
  List.iter
    (Ovs_sim.Quantiles.add q)
    [ 800.; 1_000.; 1_000.; 1_200.; 5_000.; 25_000.; 90_000.; 1_000_000. ];
  golden "dpif/latency-show"
    {|per-packet sojourn (ns): 8 samples, +/-1% per quantile
  stat               ns
  mean         140500.0
  min             800.0
  p50            1205.4
  p95         1005514.1
  p99         1005514.1
  p999        1005514.1
  max         1000000.0|}
    (appctl_ok "dpif/latency-show"
       (Tools.appctl ~dp:rig.Scenario.r_dp "dpif/latency-show"))

(* revalidator-show: the fixture never arms the revalidator, so the
   disabled surface is the honest first golden; the populated one drives
   a tiny standalone datapath through one full megaflow lifecycle —
   install, dirty on a rule add, re-translate, evict, re-install *)
let test_revalidator_show_empty rig _rt _health =
  golden "dpif/revalidator-show (disabled)"
    {|revalidator: disabled (arm with set_revalidator_enabled)|}
    (appctl_ok "dpif/revalidator-show"
       (Tools.appctl ~dp:rig.Scenario.r_dp "dpif/revalidator-show"))

let test_revalidator_show () =
  let module Pipeline = Ovs_ofproto.Pipeline in
  let module Match_ = Ovs_ofproto.Match_ in
  let module FK = Ovs_packet.Flow_key in
  let pipeline = Pipeline.create ~n_tables:1 () in
  Pipeline.add_flow pipeline ~table:0 ~priority:0 (Match_.catchall ())
    [ Ovs_ofproto.Action.Output 1 ];
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  ignore (Dpif.add_port dp (Netdev.create ~name:"rv0" ()));
  ignore (Dpif.add_port dp (Netdev.create ~name:"rv1" ()));
  Dpif.set_revalidator_enabled dp true;
  let pkt () =
    let p =
      Ovs_packet.Build.udp ~src_ip:0x0A000002 ~dst_ip:0x0A000001
        ~src_port:1111 ~dst_port:2222 ()
    in
    p.Ovs_packet.Buffer.in_port <- 0;
    p
  in
  let charge _ _ = () in
  Dpif.process dp charge (pkt ());
  (* a higher-priority drop rule steals the megaflow's lookup: the sweep
     must mark it dirty, re-translate, and evict the stale entry *)
  Pipeline.add_flow pipeline ~table:0 ~priority:100
    (Match_.with_field (Match_.catchall ()) FK.Field.Nw_dst 0x0A000001)
    [];
  ignore (Dpif.revalidate_incremental dp);
  Dpif.process dp charge (pkt ());
  golden "dpif/revalidator-show"
    {|revalidator: enabled
  megaflows tracked: 1
  sweeps: 1
  rules added: 1, removed: 0 (read from the rule journal)
  dirty: 1, re-translated: 1, evicted: 1|}
    (appctl_ok "dpif/revalidator-show"
       (Tools.appctl ~dp "dpif/revalidator-show"))

let test_fault_list _rig _rt _health =
  golden "fault/list"
    {|plan "golden" (seed 7) at 100.00 us:
  leak: umem_leak frames=32 window [50.00 us, 150.00 us]  fired 32
  storm: upcall_storm window [150.00 us, 1.00 ms]  fired 0|}
    (appctl_ok "fault/list" (Tools.appctl "fault/list"))

(* upgrade-show: a process that never cut over renders the honest empty
   surface; a report from a finished swap pins the full rendering *)
let test_upgrade_show_none () =
  golden "dpif/upgrade-show (none)"
    {|upgrade: none performed (run a swap through the reconfig rig first)|}
    (appctl_ok "dpif/upgrade-show" (Tools.appctl "dpif/upgrade-show"))

let test_upgrade_show () =
  let module Reconfig = Ovs_ofproto.Reconfig in
  let report =
    {
      Reconfig.up_style = Reconfig.Two_phase;
      up_leg = "DPDK";
      up_shadow_rules = 3;
      up_flow_mods = 3;
      up_evicted = 1;
      up_upcall_burst = 1;
      up_offered = 18944;
      up_delivered = 18944;
      up_lost = 0;
      up_recovery_ns = 48340.;
    }
  in
  golden "dpif/upgrade-show"
    {|upgrade: two-phase cutover on DPDK
  shadow rules: 3 (3 flow_mods on the wire)
  invalidation storm: 1 megaflows evicted, 1 upcalls
  window: offered 18944 delivered 18944 lost 0
  time to recovery: 48340 ns|}
    (appctl_ok "dpif/upgrade-show"
       (Tools.appctl ~upgrade:report "dpif/upgrade-show"))

(* churn-apply: a one-table standalone datapath, a two-op plan committed
   as OVSDB rows and applied through the monitor; the live surface
   reports exactly what travelled the wire and what the classifier holds *)
let churn_dp () =
  let module Pipeline = Ovs_ofproto.Pipeline in
  let pipeline = Pipeline.create ~n_tables:1 () in
  Pipeline.add_flow pipeline ~table:0 ~priority:0
    (Ovs_ofproto.Match_.catchall ())
    [ Ovs_ofproto.Action.Output 1 ];
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  ignore (Dpif.add_port dp (Netdev.create ~name:"ca0" ()));
  ignore (Dpif.add_port dp (Netdev.create ~name:"ca1" ()));
  dp

let test_churn_apply () =
  golden "ovsdb/churn-apply"
    {|applied 2 ops from 2 OVSDB rows (2 flow_mods, 0 errors); 1 rules now installed, 0 megaflows revalidated away|}
    (appctl_ok "ovsdb/churn-apply"
       (Tools.appctl ~dp:(churn_dp ())
          "ovsdb/churn-apply @0 insert \
           table=0,priority=10,udp,actions=output:1\n\
           @0.001 delete table=0,udp"))

let test_churn_apply_no_dp () =
  match Tools.appctl "ovsdb/churn-apply @0 insert table=0,actions=output:1" with
  | Tools.Not_supported e ->
      golden "ovsdb/churn-apply (no datapath)"
        {|ovsdb/churn-apply @0 insert table=0,actions=output:1: no datapath supplied|}
        e
  | Tools.Ok_output _ ->
      Alcotest.fail "churn-apply without a datapath should be unsupported"

(* policy/show + policy/check need no datapath fixture: the catalog,
   the compiler and the checker are all deterministic pure code *)
let test_policy_show () =
  golden "policy/show chain3"
    {|policy chain3: 3-step filter chain
  filter nw_dst=10.0.1.0/24; filter tp_dst=53; fwd(1)
compiled: 2 tables, 1 paths, 4 rules|}
    (appctl_ok "policy/show" (Tools.appctl "policy/show chain3"))

let test_policy_check () =
  golden "policy/check chain3"
    {|policy chain3: PROVED translate(compile(p)) = eval(p) over 16 cubes (4 rules)|}
    (appctl_ok "policy/check" (Tools.appctl "policy/check chain3"))

let () =
  Alcotest.run "ovs_golden"
    [
      ( "appctl",
        [
          Alcotest.test_case "pmd-stats-show" `Quick (with_fixture test_pmd_stats);
          Alcotest.test_case "cache-hierarchy-show" `Quick
            (with_fixture test_cache_hierarchy);
          Alcotest.test_case "health-show" `Quick (with_fixture test_health_show);
          Alcotest.test_case "latency-show empty" `Quick
            (with_fixture test_latency_show_empty);
          Alcotest.test_case "latency-show" `Quick
            (with_fixture test_latency_show);
          Alcotest.test_case "revalidator-show disabled" `Quick
            (with_fixture test_revalidator_show_empty);
          Alcotest.test_case "revalidator-show" `Quick test_revalidator_show;
          Alcotest.test_case "fault/list" `Quick (with_fixture test_fault_list);
          Alcotest.test_case "upgrade-show none" `Quick test_upgrade_show_none;
          Alcotest.test_case "upgrade-show" `Quick test_upgrade_show;
          Alcotest.test_case "churn-apply" `Quick test_churn_apply;
          Alcotest.test_case "churn-apply no dp" `Quick test_churn_apply_no_dp;
          Alcotest.test_case "policy/show" `Quick test_policy_show;
          Alcotest.test_case "policy/check" `Quick test_policy_check;
        ] );
    ]
