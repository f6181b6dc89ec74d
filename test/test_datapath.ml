(* Tests for the datapath engine: forwarding, cache hierarchy, upcalls,
   recirculation, action execution, per-flavor behaviour. *)

module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Netdev = Ovs_netdev.Netdev
module Cpu = Ovs_sim.Cpu
module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build

let check = Alcotest.check

type rig = {
  dp : Dpif.t;
  pipeline : Ovs_ofproto.Pipeline.t;
  phy0 : Netdev.t;
  phy1 : Netdev.t;
  p0 : int;
  p1 : int;
  softirq : Cpu.ctx;
  pmd : Cpu.ctx;
}

let make_rig ?(kind = Dpif.Afxdp Dpif.afxdp_default) ?(queues = 1) () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:8 () in
  let dp = Dpif.create ~kind ~pipeline () in
  let phy0 = Netdev.create ~name:"eth0" ~queues () in
  let phy1 = Netdev.create ~name:"eth1" ~queues () in
  let p0 = Dpif.add_port dp phy0 in
  let p1 = Dpif.add_port dp phy1 in
  let machine = Cpu.create () in
  {
    dp;
    pipeline;
    phy0;
    phy1;
    p0;
    p1;
    softirq = Cpu.ctx machine "softirq";
    pmd = Cpu.ctx machine "pmd";
  }

let forward_rule r =
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [ Printf.sprintf "table=0,priority=10,in_port=%d actions=output:%d" r.p0 r.p1 ])

let push_and_poll ?(pkt = B.udp ()) r =
  ignore (Netdev.enqueue_on r.phy0 ~queue:0 pkt : bool);
  ignore (Dpif.poll r.dp ~softirq:r.softirq ~pmd:r.pmd ~port_no:r.p0 ~queue:0 ())

let tx_count r = r.phy1.Netdev.stats.Netdev.tx_packets

let all_kinds =
  [
    ("kernel", Dpif.Kernel);
    ("ebpf", Dpif.Kernel_ebpf);
    ("dpdk", Dpif.Dpdk);
    ("afxdp", Dpif.Afxdp Dpif.afxdp_default);
  ]

let test_forwarding_all_kinds () =
  List.iter
    (fun (name, kind) ->
      let r = make_rig ~kind () in
      forward_rule r;
      for _ = 1 to 5 do
        push_and_poll r
      done;
      Alcotest.(check bool) (name ^ " forwards") true (tx_count r = 5))
    all_kinds

let test_upcall_once_then_cached () =
  let r = make_rig () in
  forward_rule r;
  for _ = 1 to 10 do
    push_and_poll r
  done;
  let c = Dpif.counters r.dp in
  check Alcotest.int "one upcall" 1 c.Dp_core.upcalls;
  Alcotest.(check bool) "EMC hits after warmup" true (c.Dp_core.emc_hits >= 8)

let test_kernel_has_no_emc () =
  let r = make_rig ~kind:Dpif.Kernel () in
  forward_rule r;
  for _ = 1 to 5 do
    push_and_poll r
  done;
  let c = Dpif.counters r.dp in
  check Alcotest.int "kernel never hits EMC" 0 c.Dp_core.emc_hits;
  Alcotest.(check bool) "kernel uses megaflow table" true (c.Dp_core.dpcls_hits >= 4)

let test_megaflow_covers_microflows () =
  (* a port-only rule installs a megaflow wide enough for any 5-tuple *)
  let r = make_rig () in
  forward_rule r;
  push_and_poll r ~pkt:(B.udp ~src_port:1 ());
  push_and_poll r ~pkt:(B.udp ~src_port:2 ());
  push_and_poll r ~pkt:(B.udp ~src_port:3 ());
  let c = Dpif.counters r.dp in
  check Alcotest.int "still one upcall" 1 c.Dp_core.upcalls

let test_rule_changes_invalidate_caches () =
  let r = make_rig () in
  forward_rule r;
  push_and_poll r;
  check Alcotest.int "forwarded" 1 (tx_count r);
  (* change policy to drop; caches must be flushed for it to take effect *)
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [ Printf.sprintf "table=0,priority=100,in_port=%d actions=drop" r.p0 ]);
  Dpif.flush_caches r.dp;
  push_and_poll r;
  check Alcotest.int "dropped after flush" 1 (tx_count r)

let test_set_field_rewrites_packet_bytes () =
  let r = make_rig () in
  let new_mac = "02:00:00:00:00:63" in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [
         Printf.sprintf
           "table=0,priority=10,in_port=%d actions=set_field:%s->dl_dst,output:%d"
           r.p0 new_mac r.p1;
       ]);
  Netdev.set_tx_sink r.phy1 (fun _ pkt ->
      check Alcotest.string "dst mac rewritten" new_mac
        (Ovs_packet.Mac.to_string (Ovs_packet.Ethernet.get_dst pkt)));
  push_and_poll r

let test_vlan_push_on_output () =
  let r = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [
         Printf.sprintf "table=0,priority=10,in_port=%d actions=push_vlan:100,output:%d"
           r.p0 r.p1;
       ]);
  Netdev.set_tx_sink r.phy1 (fun _ pkt ->
      match Ovs_packet.Ethernet.parse pkt with
      | Some e ->
          check Alcotest.int "vid" 100 (Ovs_packet.Ethernet.vlan_vid e.Ovs_packet.Ethernet.vlan_tci)
      | None -> Alcotest.fail "parse tagged");
  push_and_poll r

let test_ct_recirculation () =
  let r = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [
         Printf.sprintf "table=0,priority=10,ip,in_port=%d actions=ct(commit,zone=3,table=2)" r.p0;
         Printf.sprintf "table=2,priority=10,ct_state=+trk actions=output:%d" r.p1;
       ]);
  push_and_poll r ~pkt:(B.tcp ~flags:Ovs_packet.Tcp.Flags.syn ());
  check Alcotest.int "forwarded after recirc" 1 (tx_count r);
  let c = Dpif.counters r.dp in
  check Alcotest.int "two datapath passes" 2 c.Dp_core.passes;
  Alcotest.(check bool) "connection committed" true
    (Ovs_conntrack.Conntrack.active_conns (Dpif.conntrack r.dp) = 1)

(* Resharding the connection table keeps its zone limits, and refuses
   while connections are live rather than dropping them. *)
let test_set_ct_shards () =
  let r = make_rig () in
  let module Ct = Ovs_conntrack.Conntrack in
  Ct.set_zone_limit (Dpif.conntrack r.dp) ~zone:3 ~limit:1;
  Dpif.set_ct_shards r.dp 4;
  let ct = Dpif.conntrack r.dp in
  let commit sport = Ct.commit ct ~now:0. ~zone:3 (FK.extract (B.udp ~src_port:sport ())) in
  Alcotest.(check bool) "first commit" true (commit 1 <> None);
  Alcotest.(check bool) "zone limit carried over" true (commit 2 = None);
  Alcotest.check_raises "live connections"
    (Invalid_argument "Conntrack.reshard: connections are live") (fun () ->
      Dpif.set_ct_shards r.dp 2);
  check Alcotest.int "connection kept" 1 (Ct.active_conns (Dpif.conntrack r.dp))

let test_ct_state_firewall_blocks_unsolicited () =
  let r = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [
         (* only established or locally-initiated traffic may pass *)
         Printf.sprintf "table=0,priority=10,ip,in_port=%d actions=ct(zone=1,table=2)" r.p0;
         Printf.sprintf "table=2,priority=100,ct_state=+trk+est actions=output:%d" r.p1;
         "table=2,priority=50,ct_state=+trk+new actions=drop";
       ]);
  (* unsolicited SYN: tracked as new -> dropped *)
  push_and_poll r ~pkt:(B.tcp ~flags:Ovs_packet.Tcp.Flags.syn ());
  check Alcotest.int "unsolicited blocked" 0 (tx_count r)

let test_ct_related_icmp_admitted () =
  let r = make_rig ~kind:Dpif.Dpdk () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [
         Printf.sprintf "table=0,priority=10,ip,in_port=%d actions=ct(zone=1,table=2)" r.p0;
         Printf.sprintf "table=2,priority=100,ct_state=+trk+rel,ip actions=output:%d" r.p1;
         Printf.sprintf "table=2,priority=90,ct_state=+trk+new,udp actions=ct(commit,zone=1),output:%d" r.p1;
         "table=2,priority=50 actions=drop";
       ]);
  (* the offending flow commits a connection *)
  let offending = B.udp ~src_port:50 ~dst_port:53 () in
  push_and_poll r ~pkt:offending;
  check Alcotest.int "flow admitted" 1 (tx_count r);
  (* an ICMP error quoting it rides the +rel rule *)
  let err =
    B.icmp_error ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.9.9.9")
      ~offending:(B.udp ~src_port:50 ~dst_port:53 ()) ()
  in
  push_and_poll r ~pkt:err;
  check Alcotest.int "related ICMP admitted" 2 (tx_count r);
  (* an ICMP error about an unknown flow is dropped *)
  let stranger =
    B.icmp_error ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.9.9.9")
      ~offending:(B.udp ~src_port:999 ~dst_port:999 ()) ()
  in
  push_and_poll r ~pkt:stranger;
  check Alcotest.int "unrelated ICMP dropped" 2 (tx_count r)

let test_tunnel_push_then_pop_roundtrip () =
  (* host A encapsulates; host B decapsulates and delivers *)
  let a = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows a.pipeline
       [
         Printf.sprintf
           "table=0,priority=10,in_port=%d \
            actions=geneve_push(vni=9,remote=192.168.0.2,local=192.168.0.1,remote_mac=02:00:00:00:00:10,local_mac=02:00:00:00:00:11,out=%d)"
           a.p0 a.p1;
       ]);
  let b = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows b.pipeline
       [
         Printf.sprintf "table=0,priority=10,in_port=%d,udp,tp_dst=6081 actions=tnl_pop:2" b.p0;
         Printf.sprintf "table=2,priority=10,tun_id=9 actions=output:%d" b.p1;
         "table=2,priority=1 actions=drop";
       ]);
  (* wire host A's egress into host B's ingress *)
  Netdev.set_tx_sink a.phy1 (fun _ pkt ->
      ignore (Netdev.enqueue_on b.phy0 ~queue:0 pkt : bool));
  let original = B.udp ~src_port:4242 () in
  let payload = Ovs_packet.Buffer.contents original in
  Netdev.set_tx_sink b.phy1 (fun _ pkt ->
      check Alcotest.bytes "inner packet delivered intact" payload
        (Ovs_packet.Buffer.contents pkt));
  push_and_poll a ~pkt:original;
  ignore (Dpif.poll b.dp ~softirq:b.softirq ~pmd:b.pmd ~port_no:b.p0 ~queue:0 ());
  check Alcotest.int "delivered on host B" 1 (tx_count b)

let test_serialized_tx_accounting () =
  let r = make_rig ~kind:Dpif.Kernel () in
  forward_rule r;
  Dpif.set_active_queues r.dp 1;
  push_and_poll r;
  let single = Dpif.serialized_tx r.dp in
  Alcotest.(check bool) "some serialized time" true (single > 0.);
  Dpif.reset_measurement r.dp;
  Dpif.set_active_queues r.dp 4;
  push_and_poll r;
  Alcotest.(check bool) "contended section is longer" true
    (Dpif.serialized_tx r.dp > single)

let test_xdp_program_swap_devmap_redirect () =
  let r = make_rig () in
  forward_rule r;
  (* veth port to receive driver-level redirects *)
  let veth = Netdev.create ~kind:Netdev.Veth ~name:"veth0" () in
  let vp = Dpif.add_port r.dp veth in
  let mac_to_dev =
    Ovs_ebpf.Maps.create ~name:"m2d" ~kind:Ovs_ebpf.Maps.Devmap ~max_entries:8
  in
  ignore
    (Ovs_ebpf.Maps.update mac_to_dev
       (Int64.of_int (Ovs_packet.Mac.of_index 2))
       (Int64.of_int vp));
  let prog =
    Ovs_ebpf.Xdp.load_exn ~name:"veth_redirect"
      (Ovs_ebpf.Progs.veth_redirect ~mac_to_dev)
  in
  Dpif.set_xdp_program r.dp ~port_no:r.p0 prog;
  let hits = ref 0 in
  Netdev.set_tx_sink veth (fun _ _ -> incr hits);
  (* matching mac goes straight to the veth, bypassing userspace *)
  push_and_poll r ~pkt:(B.udp ~dst_mac:(Ovs_packet.Mac.of_index 2) ());
  check Alcotest.int "redirected at driver level" 1 !hits;
  check Alcotest.int "userspace never saw it" 0 (Dpif.counters r.dp).Dp_core.packets

let test_userspace_cost_charged_to_user () =
  let r = make_rig ~kind:Dpif.Dpdk () in
  forward_rule r;
  push_and_poll r;
  Alcotest.(check bool) "user time" true (r.pmd.Cpu.times.Cpu.user > 0.);
  check (Alcotest.float 0.0) "dpdk: no softirq" 0. r.softirq.Cpu.times.Cpu.softirq

let test_kernel_cost_charged_to_softirq () =
  let r = make_rig ~kind:Dpif.Kernel () in
  forward_rule r;
  push_and_poll r;
  Alcotest.(check bool) "softirq time" true (r.softirq.Cpu.times.Cpu.softirq > 0.);
  check (Alcotest.float 0.0) "kernel: no PMD user time" 0. r.pmd.Cpu.times.Cpu.user

let test_afxdp_splits_cost () =
  let r = make_rig () in
  forward_rule r;
  push_and_poll r;
  Alcotest.(check bool) "softirq side (driver+XDP)" true (r.softirq.Cpu.times.Cpu.softirq > 0.);
  Alcotest.(check bool) "user side (PMD)" true (r.pmd.Cpu.times.Cpu.user > 0.);
  Alcotest.(check bool) "system side (tx kick)" true (r.pmd.Cpu.times.Cpu.system > 0.)

let test_afxdp_ladder_monotone_cost () =
  (* each optimization must not make the per-packet cost worse *)
  let costs =
    List.map
      (fun (_, opts) ->
        let r = make_rig ~kind:(Dpif.Afxdp opts) () in
        forward_rule r;
        for _ = 1 to 50 do
          push_and_poll r
        done;
        Cpu.busy r.pmd +. (Cpu.busy r.softirq *. 0.))
      Dpif.afxdp_ladder
  in
  let rec monotone = function
    | a :: b :: rest -> a >= b -. 1e-6 && monotone (b :: rest)
    | _ -> true
  in
  (* skip the no-PMD entry whose cost lands differently *)
  match costs with
  | _ :: optimized -> Alcotest.(check bool) "O1..O5 monotone" true (monotone optimized)
  | [] -> Alcotest.fail "no ladder"

let test_ebpf_slower_than_kernel () =
  let cost kind =
    let r = make_rig ~kind () in
    forward_rule r;
    for _ = 1 to 50 do
      push_and_poll r
    done;
    Cpu.busy r.softirq
  in
  let k = cost Dpif.Kernel and e = cost Dpif.Kernel_ebpf in
  Alcotest.(check bool) "sandbox overhead (Takeaway 4)" true (e > k)

let test_gso_on_non_tso_device () =
  (* oversized frames come from TSO-capable guests; use the DPDK flavor
     whose phy rx has no 2KB umem frame limit *)
  let r = make_rig ~kind:Dpif.Dpdk () in
  forward_rule r;
  (* egress NIC without TSO: a 5000B TCP frame must leave as MTU segments *)
  r.phy1.Netdev.offloads.Netdev.tso <- false;
  let sizes = ref [] in
  Netdev.set_tx_sink r.phy1 (fun _ pkt ->
      sizes := Ovs_packet.Buffer.length pkt :: !sizes);
  push_and_poll r ~pkt:(B.tcp ~payload_len:5000 ());
  check Alcotest.int "four segments" 4 (List.length !sizes);
  List.iter
    (fun s -> Alcotest.(check bool) "within MTU" true (s <= 1514))
    !sizes;
  (* with TSO the big frame passes through whole *)
  let r2 = make_rig ~kind:Dpif.Dpdk () in
  forward_rule r2;
  let sizes2 = ref [] in
  Netdev.set_tx_sink r2.phy1 (fun _ pkt ->
      sizes2 := Ovs_packet.Buffer.length pkt :: !sizes2);
  push_and_poll r2 ~pkt:(B.tcp ~payload_len:5000 ());
  check Alcotest.int "one TSO frame" 1 (List.length !sizes2)

let test_smc_serves_after_emc_disabled () =
  let r = make_rig () in
  forward_rule r;
  Dpif.set_emc_enabled r.dp false;
  Dpif.set_smc_enabled r.dp true;
  for _ = 1 to 10 do
    push_and_poll r
  done;
  let c = Dpif.counters r.dp in
  check Alcotest.int "EMC bypassed" 0 c.Dp_core.emc_hits;
  check Alcotest.int "still one upcall" 1 c.Dp_core.upcalls;
  (* the SMC absorbed the steady state: at most the first couple of
     packets needed the dpcls *)
  Alcotest.(check bool) "dpcls not hit per packet" true (c.Dp_core.dpcls_hits <= 2);
  check Alcotest.int "all forwarded" 10 (tx_count r)

(* flush_caches empties the SMC too: with the EMC off, a packet after
   the flush must not keep a flushed megaflow's actions via an SMC hit *)
let test_flush_caches_flushes_smc () =
  let r = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [ Printf.sprintf "table=0,priority=10 actions=output:%d" r.p1 ]);
  Dpif.set_emc_enabled r.dp false;
  Dpif.set_smc_enabled r.dp true;
  push_and_poll r;
  check Alcotest.int "forwarded" 1 (tx_count r);
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [ "table=0,priority=100 actions=drop" ]);
  Dpif.flush_caches r.dp;
  let smc_hits = (Dpif.counters r.dp).Dp_core.smc_hits in
  push_and_poll r;
  check Alcotest.int "dropped after flush" 1 (tx_count r);
  check Alcotest.int "no SMC hit after flush" smc_hits
    (Dpif.counters r.dp).Dp_core.smc_hits

let test_meter_action_executes () =
  let r = make_rig () in
  ignore
    (Ovs_ofproto.Parser.install_flows r.pipeline
       [ Printf.sprintf "table=0,priority=10,in_port=%d actions=meter:1,output:%d" r.p0 r.p1 ]);
  push_and_poll r;
  check Alcotest.int "metered packet still forwarded" 1 (tx_count r)

(* -- rxq scheduling -- *)

module Rxq = Ovs_datapath.Rxq_sched

let test_rxq_round_robin () =
  let a = Rxq.round_robin ~n_queues:6 ~n_pmds:2 in
  check (Alcotest.list Alcotest.int) "alternating" [ 0; 1; 0; 1; 0; 1 ]
    (Array.to_list a.Rxq.queue_to_pmd)

let test_rxq_cycles_beats_round_robin_on_skew () =
  (* one hot queue, five cold ones: round-robin strands the hot queue with
     a cold partner while cycles-based isolates it *)
  let loads = [| 10.; 1.; 1.; 1.; 1.; 1. |] in
  let rr = Rxq.round_robin ~n_queues:6 ~n_pmds:2 in
  let cb = Rxq.cycles_based ~loads ~n_pmds:2 in
  let rr_imb = Rxq.imbalance rr ~loads and cb_imb = Rxq.imbalance cb ~loads in
  Alcotest.(check bool) "cycles-based no worse" true (cb_imb <= rr_imb +. 1e-9);
  Alcotest.(check bool) "cycles-based near optimal" true (cb_imb < 1.45);
  Alcotest.(check bool) "effective scaling ordering" true
    (Rxq.effective_scaling cb ~loads >= Rxq.effective_scaling rr ~loads)

let test_rxq_uniform_loads_balanced () =
  let loads = Array.make 8 1. in
  let cb = Rxq.cycles_based ~loads ~n_pmds:4 in
  check (Alcotest.float 1e-9) "perfect balance" 1.0 (Rxq.imbalance cb ~loads)

(* -- dumps -- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let test_dump_flows_and_megaflows () =
  let r = make_rig () in
  forward_rule r;
  for _ = 1 to 5 do
    push_and_poll r
  done;
  let lines = Ovs_ofproto.Pipeline.dump_flows r.pipeline in
  check Alcotest.int "one rule" 1 (List.length lines);
  Alcotest.(check bool) "hit counter visible" true
    (contains (List.hd lines) "n_packets=1");  (* megaflow absorbed the rest *)
  let mf = Dpif.dump_megaflows r.dp in
  check Alcotest.int "one megaflow" 1 (List.length mf);
  Alcotest.(check bool) "megaflow matches in_port" true
    (contains (List.hd mf) "in_port=");
  Alcotest.(check bool) "megaflow shows fast-path hits" true
    (contains (List.hd mf) "packets:")

let () =
  Alcotest.run "ovs_datapath"
    [
      ( "forwarding",
        [
          Alcotest.test_case "all kinds forward" `Quick test_forwarding_all_kinds;
          Alcotest.test_case "upcall once then cached" `Quick test_upcall_once_then_cached;
          Alcotest.test_case "kernel has no EMC" `Quick test_kernel_has_no_emc;
          Alcotest.test_case "megaflow covers microflows" `Quick
            test_megaflow_covers_microflows;
          Alcotest.test_case "rule changes flush caches" `Quick
            test_rule_changes_invalidate_caches;
        ] );
      ( "actions",
        [
          Alcotest.test_case "set_field rewrites bytes" `Quick
            test_set_field_rewrites_packet_bytes;
          Alcotest.test_case "vlan push" `Quick test_vlan_push_on_output;
          Alcotest.test_case "ct recirculation" `Quick test_ct_recirculation;
          Alcotest.test_case "ct_state firewall" `Quick
            test_ct_state_firewall_blocks_unsolicited;
          Alcotest.test_case "related ICMP admitted" `Quick
            test_ct_related_icmp_admitted;
          Alcotest.test_case "tunnel push/pop across hosts" `Quick
            test_tunnel_push_then_pop_roundtrip;
          Alcotest.test_case "meter action" `Quick test_meter_action_executes;
          Alcotest.test_case "software GSO on egress" `Quick test_gso_on_non_tso_device;
          Alcotest.test_case "SMC layer" `Quick test_smc_serves_after_emc_disabled;
          Alcotest.test_case "ct reshard" `Quick test_set_ct_shards;
          Alcotest.test_case "flush_caches flushes the SMC" `Quick
            test_flush_caches_flushes_smc;
        ] );
      ( "costing",
        [
          Alcotest.test_case "serialized tx accounting" `Quick
            test_serialized_tx_accounting;
          Alcotest.test_case "dpdk charges user" `Quick test_userspace_cost_charged_to_user;
          Alcotest.test_case "kernel charges softirq" `Quick
            test_kernel_cost_charged_to_softirq;
          Alcotest.test_case "afxdp splits cost" `Quick test_afxdp_splits_cost;
          Alcotest.test_case "ladder monotone" `Quick test_afxdp_ladder_monotone_cost;
          Alcotest.test_case "ebpf slower than kernel" `Quick test_ebpf_slower_than_kernel;
        ] );
      ( "xdp",
        [
          Alcotest.test_case "program swap + devmap redirect" `Quick
            test_xdp_program_swap_devmap_redirect;
        ] );
      ( "rxq_sched",
        [
          Alcotest.test_case "round robin" `Quick test_rxq_round_robin;
          Alcotest.test_case "cycles-based on skew" `Quick
            test_rxq_cycles_beats_round_robin_on_skew;
          Alcotest.test_case "uniform balanced" `Quick test_rxq_uniform_loads_balanced;
        ] );
      ( "dumps",
        [ Alcotest.test_case "dump-flows and megaflows" `Quick test_dump_flows_and_megaflows ] );
    ]
