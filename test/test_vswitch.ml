(* Tests for the vswitchd layer: kernel compatibility detection, switch
   configuration, restart/upgrade/crash models (Sec 6). *)

module V = Ovs_core.Vswitch
module K = Ovs_core.Kernel_compat
module U = Ovs_core.Upgrade
module Dpif = Ovs_datapath.Dpif
module Netdev = Ovs_netdev.Netdev

let check = Alcotest.check

(* -- kernel_compat -- *)

let test_version_parse_compare () =
  let v53 = K.parse "5.3.0-42-generic" in
  check Alcotest.int "major" 5 v53.K.major;
  check Alcotest.int "minor" 3 v53.K.minor;
  Alcotest.(check bool) "5.3 >= 4.18" true (K.at_least v53 (K.v 4 18));
  Alcotest.(check bool) "4.14 < 4.18" false (K.at_least (K.v 4 14) (K.v 4 18))

let test_mode_selection () =
  let mode k native zc = K.select_mode ~kernel:k ~driver_native:native ~driver_zerocopy:zc in
  Alcotest.(check bool) "pre-4.18 unavailable" true
    (mode (K.v 4 14) true true = K.Xdp_unavailable);
  Alcotest.(check bool) "4.18 basic driver: skb mode" true
    (mode (K.v 4 18) false false = K.Xdp_skb);
  Alcotest.(check bool) "native without zc" true
    (mode (K.v 5 3) true false = K.Xdp_drv_copy);
  Alcotest.(check bool) "full zero-copy" true
    (mode (K.v 5 3) true true = K.Xdp_drv_zerocopy);
  Alcotest.(check bool) "zc driver but old kernel falls back" true
    (mode (K.v 4 19) true true = K.Xdp_drv_copy)

let test_mode_implies_opts () =
  (match K.afxdp_opts_of_mode K.Xdp_unavailable with
  | None -> ()
  | Some _ -> Alcotest.fail "unavailable must not configure");
  (match K.afxdp_opts_of_mode K.Xdp_skb with
  | Some o -> Alcotest.(check bool) "skb mode copies" true o.Dpif.copy_mode
  | None -> Alcotest.fail "skb mode configures");
  match K.afxdp_opts_of_mode K.Xdp_drv_zerocopy with
  | Some o -> Alcotest.(check bool) "zerocopy avoids the copy" false o.Dpif.copy_mode
  | None -> Alcotest.fail "zc mode configures"

let test_need_wakeup_version () =
  Alcotest.(check bool) "5.4 has need_wakeup" true (K.has_need_wakeup (K.v 5 4));
  Alcotest.(check bool) "5.3 lacks it" false (K.has_need_wakeup (K.v 5 3))

let test_attach_models () =
  Alcotest.(check bool) "mellanox per-queue" true
    (K.attach_model ~vendor:`Mellanox = K.Per_queue);
  Alcotest.(check bool) "intel whole-device" true
    (K.attach_model ~vendor:`Intel = K.Whole_device)

(* -- vswitch -- *)

let test_vswitch_rejects_old_kernel_afxdp () =
  Alcotest.check_raises "AF_XDP needs 4.18"
    (Invalid_argument "Vswitch.create: AF_XDP requires kernel >= 4.18")
    (fun () ->
      ignore (V.create ~config:{ V.default_config with V.kernel = K.v 4 14 } ()))

let test_vswitch_forwards () =
  let sw = V.create () in
  let machine = Ovs_sim.Cpu.create () in
  let ctx = Ovs_sim.Cpu.ctx machine "main" in
  let a = Netdev.create ~name:"p0" () and b = Netdev.create ~name:"p1" () in
  let pa = V.add_port sw a and pb = V.add_port sw b in
  V.add_flow sw (Printf.sprintf "in_port=%d actions=output:%d" pa pb);
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa;
  check Alcotest.int "forwarded" 1 b.Netdev.stats.Netdev.tx_packets;
  Alcotest.(check bool) "port lookup by name" true (V.port_number sw "p0" = Some pa)

let test_vswitch_restart_preserves_rules () =
  let sw = V.create () in
  let machine = Ovs_sim.Cpu.create () in
  let ctx = Ovs_sim.Cpu.ctx machine "main" in
  let a = Netdev.create ~name:"p0" () and b = Netdev.create ~name:"p1" () in
  let pa = V.add_port sw a in
  let pb = V.add_port sw b in
  V.set_meter sw ~id:1 ~rate_pps:1000. ~burst:4. ();
  V.add_flow sw (Printf.sprintf "in_port=%d actions=meter:1,output:%d" pa pb);
  let ctrl = Ovs_ofproto.Controller.create ~ports:[ pa; pb ] in
  V.connect_controller sw ctrl;
  V.add_flow sw (Printf.sprintf "in_port=%d actions=controller" pb);
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa;
  V.restart sw;
  (* ports must be re-attached after restart (the devices survive) *)
  let pa' = Ovs_datapath.Dpif.add_port sw.V.dp a in
  let pb' = Ovs_datapath.Dpif.add_port sw.V.dp b in
  check Alcotest.int "port numbering stable" pa pa';
  check Alcotest.int "port numbering stable 2" pb pb';
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa;
  check Alcotest.int "rules survive restart" 2 b.Netdev.stats.Netdev.tx_packets;
  check Alcotest.int "restart counted" 1 sw.V.restarts;
  (* the meter comes back with its rate and a full 4-packet bucket: of
     ten packets in one instant, four pass *)
  for _ = 1 to 9 do
    V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa
  done;
  check Alcotest.int "meter survives restart" 5 b.Netdev.stats.Netdev.tx_packets;
  Alcotest.(check (option (pair int int)))
    "meter counts restart" (Some (4, 6)) (V.meter_stats sw ~id:1);
  (* the controller stays connected to the new datapath *)
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pb;
  check Alcotest.int "packet_in after restart" 1
    ctrl.Ovs_ofproto.Controller.packet_ins

let test_crash_outcomes_by_architecture () =
  let crash kind =
    let sw = V.create ~config:{ V.default_config with V.datapath = kind } () in
    V.inject_datapath_bug sw
  in
  (match crash Dpif.Kernel with
  | V.Host_panic -> ()
  | V.Process_restart _ -> Alcotest.fail "kernel bug must panic the host");
  (match crash (Dpif.Afxdp Dpif.afxdp_default) with
  | V.Process_restart { core_dump = true } -> ()
  | _ -> Alcotest.fail "userspace bug restarts with a core dump");
  match crash Dpif.Kernel_ebpf with
  | V.Process_restart { core_dump = false } -> ()
  | _ -> Alcotest.fail "verified eBPF cannot crash anything"

let test_meters_configuration () =
  let sw = V.create () in
  V.set_meter sw ~id:1 ~rate_pps:1000. ();
  Alcotest.(check bool) "meter stored" true (V.meter_stats sw ~id:1 <> None);
  Alcotest.(check bool) "datapath bucket configured" true
    (V.meter_stats sw ~id:1 = Some (0, 0))

let test_meter_enforces_rate () =
  let sw = V.create () in
  let machine = Ovs_sim.Cpu.create () in
  let ctx = Ovs_sim.Cpu.ctx machine "main" in
  let a = Netdev.create ~name:"m0" () and b = Netdev.create ~name:"m1" () in
  let pa = V.add_port sw a and pb = V.add_port sw b in
  (* 1000 pps with a 10-packet burst *)
  V.set_meter sw ~id:1 ~rate_pps:1000. ~burst:10. ();
  V.add_flow sw (Printf.sprintf "in_port=%d actions=meter:1,output:%d" pa pb);
  (* 100 packets arriving in the same instant: only the burst passes *)
  for _ = 1 to 100 do
    V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa
  done;
  check Alcotest.int "burst passed" 10 b.Netdev.stats.Netdev.tx_packets;
  (match V.meter_stats sw ~id:1 with
  | Some (passed, dropped) ->
      check Alcotest.int "meter passed" 10 passed;
      check Alcotest.int "meter dropped" 90 dropped
  | None -> Alcotest.fail "meter stats");
  (* one virtual second later the bucket has refilled *)
  V.set_time sw (Ovs_sim.Time.s 1.);
  for _ = 1 to 5 do
    V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa
  done;
  check Alcotest.int "refilled tokens admit more" 15 b.Netdev.stats.Netdev.tx_packets

let test_del_flows_and_revalidation () =
  let sw = V.create () in
  let machine = Ovs_sim.Cpu.create () in
  let ctx = Ovs_sim.Cpu.ctx machine "main" in
  let a = Netdev.create ~name:"d0" () and b = Netdev.create ~name:"d1" () in
  let pa = V.add_port sw a and pb = V.add_port sw b in
  V.add_flow sw (Printf.sprintf "priority=10,in_port=%d,udp actions=output:%d" pa pb);
  V.add_flow sw (Printf.sprintf "priority=10,in_port=%d,tcp actions=output:%d" pa pb);
  (* warm the megaflows *)
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa;
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.tcp ()) ~port_no:pa;
  check Alcotest.int "both flows forwarded" 2 b.Netdev.stats.Netdev.tx_packets;
  check Alcotest.int "two megaflows installed" 2 (List.length (V.dump_megaflows sw));
  (* delete only the UDP rule; the revalidator must evict its megaflow *)
  check Alcotest.int "one rule deleted" 1 (V.del_flows sw "udp");
  check Alcotest.int "one rule left" 1
    (List.length (V.dump_flows sw));
  (* UDP now drops (table miss), TCP keeps flowing *)
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.udp ()) ~port_no:pa;
  check Alcotest.int "udp no longer forwarded" 2 b.Netdev.stats.Netdev.tx_packets;
  V.inject sw ~machine_ctx:ctx (Ovs_packet.Build.tcp ()) ~port_no:pa;
  check Alcotest.int "tcp unaffected" 3 b.Netdev.stats.Netdev.tx_packets

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_dump_flows_readable () =
  let sw = V.create () in
  let a = Netdev.create ~name:"e0" () in
  let pa = V.add_port sw a in
  V.add_flow sw (Printf.sprintf "table=3,priority=7,in_port=%d actions=drop" pa);
  match V.dump_flows sw ~table:3 with
  | [ line ] ->
      Alcotest.(check bool) "table shown" true
        (String.length line > 8 && String.sub line 0 8 = "table=3,");
      Alcotest.(check bool) "priority shown" true (contains line "priority=7")
  | l -> Alcotest.failf "expected one line, got %d" (List.length l)

let test_reactive_controller_loop () =
  (* three hosts on a switch whose only policy is "punt to controller";
     the reactive L2 controller floods unknowns, learns sources, and pins
     known paths with FLOW_MODs so the datapath takes over *)
  let sw = V.create () in
  let machine = Ovs_sim.Cpu.create () in
  let ctx = Ovs_sim.Cpu.ctx machine "main" in
  let devs = List.init 3 (fun i -> Netdev.create ~name:(Printf.sprintf "h%d" i) ()) in
  let ports = List.map (V.add_port sw) devs in
  let ctrl = Ovs_ofproto.Controller.create ~ports in
  V.connect_controller sw ctrl;
  V.add_flow sw "priority=1 actions=controller";
  let dev i = List.nth devs i and port i = List.nth ports i in
  let tx i = (dev i).Netdev.stats.Netdev.tx_packets in
  let mac i = Ovs_packet.Mac.of_index (50 + i) in
  let pkt ~from ~to_ = Ovs_packet.Build.udp ~src_mac:(mac from) ~dst_mac:(mac to_) () in
  (* host0 -> host1: both unknown, so the controller floods to 1 and 2 *)
  V.inject sw ~machine_ctx:ctx (pkt ~from:0 ~to_:1) ~port_no:(port 0);
  check Alcotest.int "flooded to h1" 1 (tx 1);
  check Alcotest.int "flooded to h2" 1 (tx 2);
  check Alcotest.int "one packet_in" 1 ctrl.Ovs_ofproto.Controller.packet_ins;
  (* host1 -> host0: the controller knows host0 now, unicasts and installs
     a flow *)
  V.inject sw ~machine_ctx:ctx (pkt ~from:1 ~to_:0) ~port_no:(port 1);
  check Alcotest.int "unicast to h0" 1 (tx 0);
  check Alcotest.int "h2 not flooded again" 1 (tx 2);
  check Alcotest.int "flow pinned" 1 ctrl.Ovs_ofproto.Controller.flow_mods_sent;
  (* the pinned flow now serves the fast path: no more packet_ins *)
  V.inject sw ~machine_ctx:ctx (pkt ~from:1 ~to_:0) ~port_no:(port 1);
  check Alcotest.int "fast path, no controller" 2 ctrl.Ovs_ofproto.Controller.packet_ins;
  check Alcotest.int "still delivered" 2 (tx 0)

(* -- upgrade model -- *)

let test_upgrade_costs_ordering () =
  let km = U.upgrade U.Arch_kernel_module in
  let us = U.upgrade U.Arch_userspace in
  let eb = U.upgrade U.Arch_ebpf in
  Alcotest.(check bool) "kernel module needs reboot" true km.U.needs_reboot;
  Alcotest.(check bool) "userspace does not" false us.U.needs_reboot;
  Alcotest.(check bool) "kernel disrupts workloads" true km.U.workloads_disrupted;
  Alcotest.(check bool) "downtime ordering" true
    (eb.U.dataplane_downtime_s < us.U.dataplane_downtime_s
    && us.U.dataplane_downtime_s < km.U.dataplane_downtime_s);
  Alcotest.(check bool) "vendor revalidation only for modules" true
    (km.U.needs_vendor_revalidation && not us.U.needs_vendor_revalidation)

let test_fleet_disruption_scale () =
  let hours arch = U.annual_fleet_disruption_hours arch ~hosts:1000 ~fixes_per_year:6 in
  Alcotest.(check bool) "userspace orders of magnitude cheaper" true
    (hours U.Arch_kernel_module > 100. *. hours U.Arch_userspace)

let () =
  Alcotest.run "ovs_core"
    [
      ( "kernel_compat",
        [
          Alcotest.test_case "parse/compare" `Quick test_version_parse_compare;
          Alcotest.test_case "mode selection" `Quick test_mode_selection;
          Alcotest.test_case "mode implies opts" `Quick test_mode_implies_opts;
          Alcotest.test_case "need_wakeup" `Quick test_need_wakeup_version;
          Alcotest.test_case "attach models (Fig 6)" `Quick test_attach_models;
        ] );
      ( "vswitch",
        [
          Alcotest.test_case "rejects old kernel" `Quick
            test_vswitch_rejects_old_kernel_afxdp;
          Alcotest.test_case "forwards" `Quick test_vswitch_forwards;
          Alcotest.test_case "restart preserves rules" `Quick
            test_vswitch_restart_preserves_rules;
          Alcotest.test_case "crash outcomes (Sec 6)" `Quick
            test_crash_outcomes_by_architecture;
          Alcotest.test_case "meters" `Quick test_meters_configuration;
          Alcotest.test_case "meter enforces rate" `Quick test_meter_enforces_rate;
          Alcotest.test_case "del-flows + revalidation" `Quick
            test_del_flows_and_revalidation;
          Alcotest.test_case "dump-flows readable" `Quick test_dump_flows_readable;
          Alcotest.test_case "reactive controller loop" `Quick
            test_reactive_controller_loop;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "cost ordering" `Quick test_upgrade_costs_ordering;
          Alcotest.test_case "fleet disruption" `Quick test_fleet_disruption_scale;
        ] );
    ]
