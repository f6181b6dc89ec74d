(* nsx-dfw: the Table-3 NSX pipeline (103,302 rules over 40 tables) on the
   AF_XDP datapath, driven through Dpif.process. About 32k TCP/UDP flows
   (4x the EMC) from the 30 VIFs, each aimed at a distributed-firewall
   rule, one in eight arriving Geneve-encapsulated on the uplink
   (tnl_pop -> table 4). A burst is 32 Dpif.process calls. *)

module Dpif = Ovs_datapath.Dpif
module Netdev = Ovs_netdev.Netdev
module Ruleset = Ovs_nsx.Ruleset
module Agent = Ovs_nsx.Agent
module P = Ovs_packet
module Buffer = P.Buffer
module Prng = Ovs_sim.Prng
module H = Harness

let n_flows = 32_768
let setup_runs = 3
let chunk_pkts = 2_048
let probes = 20_000
let per_section = 32

(* --- flows aimed at firewall rules ---

   A VIF's traffic reaches a DFW rule when the rule names the VIF's
   logical switch (reg1) and its other match tokens hold for a plain IPv4
   packet; the flow then stops in that rule's section, so the megaflow's
   mask depends on the section, which is what spreads the megaflows over
   many dpcls subtables. *)

let satisfiable ~reg1 tok =
  List.mem tok
    [ "dl_type=0x0800"; "nw_ttl=64"; "nw_tos=32"; "tcp_flags=2"; "reg3=0";
      "reg4=0"; "reg5=0"; "reg6=0"; "reg7=0"; "nw_frag=0"; "vlan_tci=0";
      "ipv6_src_hi=0"; "ipv6_dst_hi=0"; "ipv6_src_lo=0"; "tp_src=1024" ]
  (* the conntrack zone is the logical switch id mod 64 *)
  || (tok = "ct_zone=1" && reg1 = 1)

type target = {
  table : int;  (** the firewall section the flow stops in *)
  vif : int;  (** VIF whose logical switch the rule names *)
  udp : bool;
  syn : bool;
  tos : bool;
  dst_net : int;  (** the rule's /24 *)
  port : int;
}

let parse_target ~vifs line =
  match
    Scanf.sscanf line
      "table=%d,priority=%d,reg1=%d,%s@,nw_dst=%d.%d.%d.0/24,tp_dst=%d%s@ actions=%s"
      (fun t _ reg1 proto a b c port extra _ -> (t, reg1, proto, a, b, c, port, extra))
  with
  | exception _ -> None
  | t, reg1, proto, a, b, c, port, extra ->
      let toks = String.split_on_char ',' extra |> List.filter (( <> ) "") in
      if
        reg1 >= 1 && reg1 <= vifs
        && (proto = "tcp" || proto = "udp")
        && List.for_all (satisfiable ~reg1) toks
      then
        Some
          {
            table = t;
            vif = reg1 - 1;
            udp = proto = "udp";
            syn = List.mem "tcp_flags=2" toks;
            tos = List.mem "nw_tos=32" toks;
            dst_net = (a lsl 24) lor (b lsl 16) lor (c lsl 8);
            port;
          }
      else None

(* at most [per_section] targets per firewall section, in rule order *)
let targets spec lines =
  let vifs = Ruleset.n_vifs spec in
  let counts = Hashtbl.create 32 in
  List.filter_map (parse_target ~vifs) lines
  |> List.filter (fun t ->
         let n = Option.value ~default:0 (Hashtbl.find_opt counts t.table) in
         Hashtbl.replace counts t.table (n + 1);
         n < per_section)
  |> Array.of_list

(* Flow [j] aims at target [j mod n], at a random host of the rule's /24;
   one flow in eight, at random, comes from a remote hypervisor over
   Geneve with the VNI of the target's logical switch. *)
let flow spec (ts : target array) prng j =
  let vifs = Ruleset.n_vifs spec in
  let t = ts.(j mod Array.length ts) in
  let host = 1 + Prng.int prng 254 in
  let tunnel = Prng.int prng 8 = 0 in
  let src_mac = if tunnel then P.Mac.of_index (10_000 + (j mod 120)) else Ruleset.vif_mac t.vif in
  let src_ip =
    if tunnel then P.Ipv4.addr_of_string "172.17.0.0" + (j mod 4096)
    else P.Ipv4.addr_of_string (Ruleset.vif_ip t.vif)
  in
  let dst_mac = Ruleset.vif_mac ((t.vif + 7) mod vifs) in
  let dst_ip = t.dst_net lor host in
  let pkt =
    if t.udp then P.Build.udp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1024 ~dst_port:t.port ()
    else
      P.Build.tcp ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:1024 ~dst_port:t.port
        ~flags:(if t.syn then P.Tcp.Flags.syn else P.Tcp.Flags.ack)
        ()
  in
  if t.tos then P.Ipv4.set_tos pkt 32;
  if tunnel then begin
    P.Tunnel.encap pkt P.Tunnel.Geneve ~vni:(1 + (t.vif mod spec.Ruleset.n_tunnels))
      ~src_mac:(P.Mac.of_index 20_000) ~dst_mac:(P.Mac.of_index 9_999)
      ~src_ip:(P.Ipv4.addr_of_string "192.168.0.2")
      ~dst_ip:(P.Ipv4.addr_of_string spec.Ruleset.local_vtep) ();
    pkt.Buffer.in_port <- spec.Ruleset.uplink_port
  end
  else pkt.Buffer.in_port <- Ruleset.vif_port spec t.vif;
  pkt

(* --- the rig --- *)

type traced = {
  w : Walk.t;
  gc : H.gc_acc;
  charged : float array;  (** charged virtual ns, one cell *)
  wpkts : Buffer.t array;
}

type rig = {
  dp : Dpif.t;
  delivered : int ref;
  flows : Buffer.t array;
  verdicts : bool array;  (** per flow: dropped at the end of warm-up *)
  prng : Prng.t;  (** flow choice *)
  pkts : Buffer.t array;
  mutable expected_drops : int;
  tr : traced option;
  install_s : float;
  rules : int;
}

let no_charge _ _ = ()

let charge rig =
  match rig.tr with
  | None -> no_charge
  | Some t -> fun _ ns -> t.charged.(0) <- t.charged.(0) +. ns

let offer_one rig i =
  if rig.verdicts.(i) then rig.expected_drops <- rig.expected_drops + 1;
  Buffer.clone rig.flows.(i)

let copy_for_walk rig =
  Option.iter (fun t -> Array.iteri (fun i p -> t.wpkts.(i) <- Buffer.clone p) rig.pkts) rig.tr

let prepare rig () =
  for i = 0 to H.burst - 1 do
    rig.pkts.(i) <- offer_one rig (Prng.int rig.prng n_flows)
  done;
  copy_for_walk rig;
  H.burst

let dropped rig = (Dpif.counters rig.dp).Ovs_datapath.Dp_core.dropped

let fire_traced rig t =
  let w = t.w and charge = charge rig in
  let t0 = H.now () in
  Walk.enter w Walk.k_burst;
  H.with_gc t.gc (fun () ->
      Array.iter
        (fun p ->
          Walk.enter w Walk.k_process;
          Dpif.process rig.dp charge p;
          Walk.leave w)
        rig.pkts);
  let t1 = H.now () in
  Array.iter (Walk.process w) t.wpkts;
  Walk.leave w;
  Perfbench.Spans.end_burst w.Walk.sp;
  (t1 - t0, 0.)

let fire rig () =
  match rig.tr with
  | None -> H.timed (fun () -> Array.iter (Dpif.process rig.dp no_charge) rig.pkts)
  | Some t -> fire_traced rig t

let build ~spec ~lines ~flows ~seed ~traced () =
  let agent = Agent.create ~spec () in
  let pipeline = agent.Agent.integration.Agent.pipeline in
  (* what Agent.install_policy does for br-int, with the rule text
     generated beforehand so the install is timed on its own *)
  let t0 = H.now () in
  let rules = Ovs_ofproto.Parser.install_flows pipeline lines in
  let install_s = float_of_int (H.now () - t0) /. 1e9 in
  let dp = Dpif.create ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~pipeline () in
  let delivered = ref 0 in
  let attach name kind =
    let d = Netdev.create ~kind ~name () in
    Netdev.set_tx_sink d (fun _ _ -> incr delivered);
    ignore (Dpif.add_port dp d : int)
  in
  attach "uplink" Netdev.Physical;
  for i = 0 to Ruleset.n_vifs spec - 1 do
    attach (Printf.sprintf "vif%d" i) Netdev.Tap
  done;
  Dpif.set_controller dp (fun _ -> incr delivered);
  let tr =
    if not traced then None
    else
      Some
        {
          w =
            Walk.create ~keep:64
              ~csum_offload:(Dpif.afxdp_opts dp).Dpif.csum_offload
              (fun () -> Dpif.pipeline dp);
          gc = H.gc_acc ();
          charged = [| 0. |];
          wpkts = Array.make H.burst flows.(0);
        }
  in
  let rig =
    { dp; delivered; flows; verdicts = Array.make n_flows false; prng = Prng.of_int (seed + 1);
      pkts = Array.make H.burst flows.(0); expected_drops = 0; tr; install_s; rules }
  in
  (* warm-up: every flow twice, in order, so conntracked flows settle;
     the second pass records each flow's verdict, which every later
     packet of the flow must repeat *)
  for b = 0 to (n_flows / H.burst) - 1 do
    for i = 0 to H.burst - 1 do
      rig.pkts.(i) <- Buffer.clone flows.((b * H.burst) + i)
    done;
    copy_for_walk rig;
    ignore (fire rig ())
  done;
  Array.iteri
    (fun j pkt ->
      let x0 = dropped rig in
      Dpif.process dp (charge rig) (Buffer.clone pkt);
      Option.iter (fun t -> Walk.process t.w (Buffer.clone pkt)) rig.tr;
      rig.verdicts.(j) <- dropped rig > x0)
    flows;
  rig

(* Slow-path latency, as in p2p-emc: caches flushed, an empty minor heap,
   then one of the workload's packets. *)
let probe rig () =
  let c = Dpif.counters rig.dp in
  Dpif.flush_caches rig.dp;
  Gc.minor ();
  let pkt = offer_one rig (Prng.int rig.prng n_flows) in
  let u0 = c.Ovs_datapath.Dp_core.upcalls in
  let t0 = H.now () in
  Dpif.process rig.dp no_charge pkt;
  let t1 = H.now () in
  if c.Ovs_datapath.Dp_core.upcalls > u0 then t1 - t0 else -1

(* The rule set is Table 3's, generated from its own fixed seed like its
   rule count: it is the configuration under test. The seed drives the
   traffic: the flow population here and the flow choice in [build]. *)
let workload_inputs seed =
  let spec = Ruleset.table3_spec in
  let lines = Ruleset.generate spec in
  let ts = targets spec lines in
  let prng = Prng.of_int seed in
  (spec, lines, Array.init n_flows (flow spec ts prng))

let checks rig ~offered ~d0 ~x0 ~e0 =
  let delivered = !(rig.delivered) - d0 and drops = dropped rig - x0 in
  let expected = rig.expected_drops - e0 in
  ( offered - delivered - drops,
    [
      H.check "conservation" (offered = delivered + drops)
        (Printf.sprintf "offered %d, delivered %d + dropped %d" offered delivered drops);
      H.check "policy-drops" (drops = expected)
        (Printf.sprintf "dropped %d, dropped by their flows' warm-up verdicts %d" drops
           expected);
    ] )

let measured ~seed ~seconds ~traced ~n_setups =
  let spec, lines, flows = workload_inputs seed in
  let rig, setup_s, n = H.setups n_setups (build ~spec ~lines ~flows ~seed ~traced) in
  let ph = H.phase ~chunk_pkts in
  Dpif.reset_measurement rig.dp;
  let d0 = !(rig.delivered) and x0 = dropped rig and e0 = rig.expected_drops in
  Option.iter
    (fun t ->
      Walk.reset_counters t.w;
      H.reset_gc t.gc;
      Perfbench.Spans.reset t.w.Walk.sp;
      t.charged.(0) <- 0.)
    rig.tr;
  H.measure ph ~seconds ~prepare:(prepare rig) ~fire:(fire rig)
    ~delivered:(fun () -> !(rig.delivered));
  (rig, ph, setup_s, n, (d0, x0, e0))

let run_e2e ~seed ~seconds =
  let rig, ph, setup_s, n_setups, (d0, x0, e0) =
    measured ~seed ~seconds ~traced:false ~n_setups:setup_runs
  in
  let subtables, megaflows, probes_per = Dpif.dpcls_stats rig.dp in
  let upcalls = H.upcall_samples probes (probe rig) in
  let offered = ph.H.offered + probes in
  let failed, checks = checks rig ~offered ~d0 ~x0 ~e0 in
  let values, report, sampled = H.e2e_values ph ~setup_s ~n_setups ~upcalls in
  {
    H.values;
    attempted = offered;
    failed;
    checks = checks @ [ sampled ];
    report =
      report
      @ [
          Printf.sprintf "  %d rules installed in %.3f s; %d megaflows in %d subtables, %.2f probes/lookup"
            rig.rules rig.install_s megaflows subtables probes_per;
        ];
  }

let run_traced ~seed ~seconds =
  let _, base, _, _, _ = measured ~seed ~seconds:(seconds /. 2.) ~traced:false ~n_setups:1 in
  let rig, ph, _, _, (d0, x0, e0) =
    measured ~seed ~seconds:(seconds /. 2.) ~traced:true ~n_setups:1
  in
  let t = Option.get rig.tr in
  let packets = ph.H.offered in
  let counters = Walk.counter_checks t.w (Dpif.counters rig.dp) in
  let values =
    Walk.layer_values t.w ~dp:rig.dp ~packets ~gc:t.gc ~charged_ns:t.charged.(0)
      ~install_us_per_rule:(rig.install_s *. 1e6 /. float_of_int rig.rules)
      ~sweep_budget:0
  in
  let failed, checks = checks rig ~offered:packets ~d0 ~x0 ~e0 in
  Walk.traced_outcome t.w ~name:"nsx-dfw" ~seed ~base ~ph ~values ~checks:(checks @ counters)
    ~failed
