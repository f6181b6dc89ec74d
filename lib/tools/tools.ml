(** The Table 1 tooling model: the standard Linux commands operators use to
    configure and troubleshoot networks, run against the simulated stack.

    The paper's compatibility argument is that these tools work on any NIC
    a standard kernel driver manages — which includes NICs serving AF_XDP
    sockets — and fail on NICs a DPDK userspace driver has taken over.
    Each command here operates on real device state when the device is
    kernel-visible and reports the same failure an operator would see
    otherwise. *)

module Netdev = Ovs_netdev.Netdev

type outcome = Ok_output of string | Not_supported of string

let is_ok = function Ok_output _ -> true | Not_supported _ -> false

let unsupported (dev : Netdev.t) =
  Not_supported
    (Printf.sprintf
       "Device \"%s\" does not exist (owned by a userspace driver)"
       dev.Netdev.name)

let guard dev f = if Netdev.kernel_visible dev then Ok_output (f ()) else unsupported dev

(** [ip link show DEV] — device state and driver. *)
let ip_link (dev : Netdev.t) =
  guard dev (fun () ->
      Printf.sprintf "%d: %s: <BROADCAST,MULTICAST%s> mtu 1500 state %s\n    link/ether %s"
        (1 + dev.Netdev.port_no) dev.Netdev.name
        (if dev.Netdev.up then ",UP,LOWER_UP" else "")
        (if dev.Netdev.up then "UP" else "DOWN")
        (Ovs_packet.Mac.to_string dev.Netdev.mac))

(** [ip link set DEV up/down]. *)
let ip_link_set (dev : Netdev.t) ~up =
  guard dev (fun () ->
      dev.Netdev.up <- up;
      "")

(** [ip address add ADDR dev DEV]. *)
let ip_address_add (dev : Netdev.t) ~addr =
  guard dev (fun () ->
      dev.Netdev.ip_addr <- addr;
      "")

let ip_address_show (dev : Netdev.t) =
  guard dev (fun () ->
      if dev.Netdev.ip_addr = 0 then "(no address)"
      else
        Printf.sprintf "inet %s/24 scope global %s"
          (Ovs_packet.Ipv4.addr_to_string dev.Netdev.ip_addr)
          dev.Netdev.name)

(** A host routing table, the kernel structure OVS mirrors over Netlink
    for its userspace L3 features (Sec 4). *)
module Route = struct
  type entry = { prefix : int; prefix_len : int; via : int; dev : string }

  type t = { mutable entries : entry list }

  let create () = { entries = [] }

  let add t ~prefix ~prefix_len ~via ~dev =
    t.entries <- { prefix; prefix_len; via; dev } :: t.entries

  let mask len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

  (** Longest-prefix match. *)
  let lookup t addr =
    List.fold_left
      (fun best e ->
        if addr land mask e.prefix_len = e.prefix land mask e.prefix_len then
          match best with
          | Some b when b.prefix_len >= e.prefix_len -> best
          | _ -> Some e
        else best)
      None t.entries

  let dump t =
    String.concat "\n"
      (List.map
         (fun e ->
           Printf.sprintf "%s/%d via %s dev %s"
             (Ovs_packet.Ipv4.addr_to_string e.prefix)
             e.prefix_len
             (Ovs_packet.Ipv4.addr_to_string e.via)
             e.dev)
         t.entries)
end

(** The kernel neighbour (ARP) table, likewise mirrored by OVS. *)
module Neigh = struct
  type t = { tbl : (int, Ovs_packet.Mac.t) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }
  let learn t ~ip ~mac = Hashtbl.replace t.tbl ip mac
  let lookup t ip = Hashtbl.find_opt t.tbl ip

  let dump t =
    Hashtbl.fold
      (fun ip mac acc ->
        Printf.sprintf "%s lladdr %s REACHABLE"
          (Ovs_packet.Ipv4.addr_to_string ip)
          (Ovs_packet.Mac.to_string mac)
        :: acc)
      t.tbl []
    |> String.concat "\n"
end

(** [ip route] / [ip neigh] against the shared tables. *)
let ip_route (dev : Netdev.t) routes =
  guard dev (fun () -> Route.dump routes)

let ip_neigh (dev : Netdev.t) neigh =
  guard dev (fun () -> Neigh.dump neigh)

(** [ping]: inject an echo request on the device's kernel path and expect
    the supplied responder to produce a reply. *)
let ping (dev : Netdev.t) ~src_ip ~dst_ip ~(responder : Ovs_packet.Buffer.t -> Ovs_packet.Buffer.t option) =
  if not (Netdev.kernel_visible dev) then unsupported dev
  else begin
    let req = Ovs_packet.Build.icmp ~src_ip ~dst_ip () in
    match responder req with
    | Some reply -> begin
        ignore (Ovs_packet.Ethernet.parse reply);
        match (Ovs_packet.Ipv4.parse reply, ()) with
        | Some ip, () when ip.Ovs_packet.Ipv4.src = dst_ip -> begin
            match Ovs_packet.Icmp.parse reply with
            | Some ic when ic.Ovs_packet.Icmp.icmp_type = Ovs_packet.Icmp.Kind.echo_reply ->
                Ok_output
                  (Printf.sprintf "64 bytes from %s: icmp_seq=1"
                     (Ovs_packet.Ipv4.addr_to_string dst_ip))
            | _ -> Not_supported "malformed echo reply"
          end
        | _ -> Not_supported "no reply"
      end
    | None -> Not_supported "Destination Host Unreachable"
  end

(** [arping]: L2 reachability via a real ARP exchange. *)
let arping (dev : Netdev.t) ~src_ip ~dst_ip ~(responder : Ovs_packet.Buffer.t -> Ovs_packet.Buffer.t option) =
  if not (Netdev.kernel_visible dev) then unsupported dev
  else begin
    let req =
      Ovs_packet.Build.arp ~src_mac:dev.Netdev.mac ~spa:src_ip ~tpa:dst_ip ()
    in
    match responder req with
    | Some reply -> begin
        ignore (Ovs_packet.Ethernet.parse reply);
        match Ovs_packet.Arp.parse reply with
        | Some a when a.Ovs_packet.Arp.op = Ovs_packet.Arp.Op.reply ->
            Ok_output
              (Printf.sprintf "Unicast reply from %s [%s]"
                 (Ovs_packet.Ipv4.addr_to_string dst_ip)
                 (Ovs_packet.Mac.to_string a.Ovs_packet.Arp.sha))
        | _ -> Not_supported "no ARP reply"
      end
    | None -> Not_supported "no ARP reply"
  end

(** [nstat] — interface counters. *)
let nstat (dev : Netdev.t) =
  guard dev (fun () ->
      let s = dev.Netdev.stats in
      Printf.sprintf "%s: rx_packets %d rx_bytes %d rx_dropped %d tx_packets %d tx_bytes %d"
        dev.Netdev.name s.Netdev.rx_packets s.Netdev.rx_bytes s.Netdev.rx_dropped
        s.Netdev.tx_packets s.Netdev.tx_bytes)

(** [tcpdump]: capture up to [count] packets off the device's rx queues
    and render one line each. Consumes the packets, like a dedicated
    capture tap would clone them. *)
let tcpdump (dev : Netdev.t) ~count =
  guard dev (fun () ->
      let lines = ref [] in
      let captured = ref 0 in
      Array.iter
        (fun q ->
          Queue.iter
            (fun pkt ->
              if !captured < count then begin
                incr captured;
                let key = Ovs_packet.Flow_key.extract pkt in
                lines := Fmt.str "%a" Ovs_packet.Flow_key.pp key :: !lines
              end)
            q)
        dev.Netdev.rx_queues;
      String.concat "\n" (List.rev !lines))

(** [tcpdump -w]: capture the device's queued packets into pcap bytes
    (timestamps from the supplied virtual clock). *)
let tcpdump_pcap (dev : Netdev.t) ~(now : Ovs_sim.Time.ns) ~count =
  if not (Netdev.kernel_visible dev) then unsupported dev
  else begin
    let captured = ref [] in
    let n = ref 0 in
    Array.iter
      (fun q ->
        Queue.iter
          (fun pkt ->
            if !n < count then begin
              incr n;
              captured := (now +. (float_of_int !n *. 1000.), pkt) :: !captured
            end)
          q)
      dev.Netdev.rx_queues;
    Ok_output (Bytes.to_string (Pcap.write (List.rev !captured)))
  end

(** The Table 1 compatibility matrix: every command against a device under
    each datapath's driver. *)
let table1_commands = [ "ip link"; "ip address"; "ip route"; "ip neigh"; "ping"; "arping"; "nstat"; "tcpdump" ]

let compatibility_matrix () =
  let kernel_dev = Netdev.create ~name:"eth-kernel" () in
  let afxdp_dev = Netdev.create ~name:"eth-afxdp" () in
  let dpdk_dev = Netdev.create ~name:"eth-dpdk" ~driver:Netdev.Dpdk_driver () in
  let routes = Route.create () in
  let neigh = Neigh.create () in
  let echo_responder (req : Ovs_packet.Buffer.t) =
    (* a neighbour that answers pings and ARPs *)
    match Ovs_packet.Ethernet.parse req with
    | Some e when e.Ovs_packet.Ethernet.eth_type = Ovs_packet.Ethernet.Ethertype.arp
      -> begin
        match Ovs_packet.Arp.parse req with
        | Some a ->
            Some
              (Ovs_packet.Build.arp ~src_mac:(Ovs_packet.Mac.of_index 99)
                 ~dst_mac:a.Ovs_packet.Arp.sha ~op:Ovs_packet.Arp.Op.reply
                 ~spa:a.Ovs_packet.Arp.tpa ~tpa:a.Ovs_packet.Arp.spa ())
        | None -> None
      end
    | Some _ -> begin
        match Ovs_packet.Ipv4.parse req with
        | Some ip ->
            Some
              (Ovs_packet.Build.icmp ~src_ip:ip.Ovs_packet.Ipv4.dst
                 ~dst_ip:ip.Ovs_packet.Ipv4.src
                 ~icmp_type:Ovs_packet.Icmp.Kind.echo_reply ())
        | None -> None
      end
    | None -> None
  in
  let run dev cmd =
    match cmd with
    | "ip link" -> ip_link dev
    | "ip address" -> ip_address_show dev
    | "ip route" -> ip_route dev routes
    | "ip neigh" -> ip_neigh dev neigh
    | "ping" ->
        ping dev
          ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.1")
          ~dst_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.2")
          ~responder:echo_responder
    | "arping" ->
        arping dev
          ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.1")
          ~dst_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.2")
          ~responder:echo_responder
    | "nstat" -> nstat dev
    | "tcpdump" -> tcpdump dev ~count:8
    | other -> Not_supported ("unknown command " ^ other)
  in
  List.map
    (fun cmd ->
      ( cmd,
        is_ok (run kernel_dev cmd),
        is_ok (run afxdp_dev cmd),
        is_ok (run dpdk_dev cmd) ))
    table1_commands

(* -- ovs-appctl: the runtime introspection commands -- *)

module Pmd = Ovs_datapath.Pmd

(** [ovs-appctl dpif-netdev/pmd-stats-show] over a runtime's reports:
    per-PMD cache-tier hits, misses/lost, busy vs idle cycles and average
    cycles (virtual ns) per packet. *)
let pmd_stats_show (reports : Pmd.report list) =
  reports
  |> List.map (fun (r : Pmd.report) ->
         let s = r.Pmd.r_stats in
         let total_cycles = r.Pmd.r_busy_ns +. r.Pmd.r_idle_ns in
         let pct x =
           if total_cycles > 0. then 100. *. x /. total_cycles else 0.
         in
         String.concat "\n"
           [
             Printf.sprintf "pmd thread numa_id 0 core_id %d:" r.Pmd.r_pmd;
             Printf.sprintf "  packets received: %d" s.Pmd.rx_packets;
             Printf.sprintf "  emc hits: %d" s.Pmd.emc_hits;
             Printf.sprintf "  smc hits: %d" s.Pmd.smc_hits;
             Printf.sprintf "  megaflow hits: %d" s.Pmd.megaflow_hits;
             Printf.sprintf "  miss with success upcall: %d" s.Pmd.miss;
             Printf.sprintf "  miss with failed upcall: %d" s.Pmd.lost;
             Printf.sprintf "  avg cycles per packet: %.0f (%.0f/%d)"
               r.Pmd.r_cycles_per_pkt r.Pmd.r_busy_ns s.Pmd.rx_packets;
             Printf.sprintf "  idle cycles: %.0f (%.2f%%)" r.Pmd.r_idle_ns
               (pct r.Pmd.r_idle_ns);
             Printf.sprintf "  processing cycles: %.0f (%.2f%%)" r.Pmd.r_busy_ns
               (pct r.Pmd.r_busy_ns);
           ])
  |> String.concat "\n"

(** [ovs-appctl dpif-netdev/pmd-rxq-show]: the rxq→PMD placement with each
    queue's share of its PMD's processing cycles. *)
let pmd_rxq_show (reports : Pmd.report list) =
  reports
  |> List.map (fun (r : Pmd.report) ->
         Printf.sprintf "pmd thread numa_id 0 core_id %d:" r.Pmd.r_pmd
         :: List.map
              (fun (port, queue, cycles, _pkts) ->
                let usage =
                  if r.Pmd.r_busy_ns > 0. then 100. *. cycles /. r.Pmd.r_busy_ns
                  else 0.
                in
                Printf.sprintf
                  "  port: %d  queue-id: %d (enabled)  pmd usage: %2.0f %%"
                  port queue usage)
              r.Pmd.r_rxqs
         |> String.concat "\n")
  |> String.concat "\n"

(** [ovs-appctl coverage/show]: the process-global event counters. *)
let coverage_show ?nonzero () = Ovs_sim.Coverage.show ?nonzero ()

(* -- ofproto/trace: inject a synthetic packet and render its walk -- *)

module Dpif = Ovs_datapath.Dpif
module Trace = Ovs_sim.Trace
module Build = Ovs_packet.Build

(** Build a packet from an ovs-ofctl-style flow spec: comma-separated
    [in_port=N], a protocol word ([udp]/[tcp]/[icmp]/[arp], default udp),
    [nw_src=]/[nw_dst=] (dotted quad or integer), [tp_src=]/[tp_dst=],
    and [geneve=VNI] (or [tun_id=VNI]) to wrap the result in a Geneve
    outer header. Raises [Failure] on an unknown token. *)
let packet_of_flow_spec spec : Ovs_packet.Buffer.t =
  let addr v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> Ovs_packet.Ipv4.addr_of_string v
  in
  let int_ k v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> failwith (Printf.sprintf "ofproto/trace: bad value %s=%s" k v)
  in
  let in_port = ref 0 in
  let proto = ref `Udp in
  let src_ip = ref (Ovs_packet.Ipv4.addr_of_string "10.0.0.1") in
  let dst_ip = ref (Ovs_packet.Ipv4.addr_of_string "10.0.0.2") in
  let src_port = ref 1234 in
  let dst_port = ref 5678 in
  let tun_vni = ref None in
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.iter (fun tok ->
         match String.index_opt tok '=' with
         | None -> begin
             match tok with
             | "udp" -> proto := `Udp
             | "tcp" -> proto := `Tcp
             | "icmp" -> proto := `Icmp
             | "arp" -> proto := `Arp
             | other ->
                 failwith
                   (Printf.sprintf "ofproto/trace: unknown protocol \"%s\"" other)
           end
         | Some i ->
             let k = String.sub tok 0 i in
             let v = String.sub tok (i + 1) (String.length tok - i - 1) in
             (match k with
             | "in_port" -> in_port := int_ k v
             | "nw_src" -> src_ip := addr v
             | "nw_dst" -> dst_ip := addr v
             | "tp_src" -> src_port := int_ k v
             | "tp_dst" -> dst_port := int_ k v
             | "geneve" | "tun_id" -> tun_vni := Some (int_ k v)
             | other ->
                 failwith
                   (Printf.sprintf "ofproto/trace: unknown field \"%s\"" other)));
  let pkt =
    match !proto with
    | `Udp ->
        Build.udp ~src_ip:!src_ip ~dst_ip:!dst_ip ~src_port:!src_port
          ~dst_port:!dst_port ()
    | `Tcp ->
        Build.tcp ~src_ip:!src_ip ~dst_ip:!dst_ip ~src_port:!src_port
          ~dst_port:!dst_port ()
    | `Icmp -> Build.icmp ~src_ip:!src_ip ~dst_ip:!dst_ip ()
    | `Arp -> Build.arp ~spa:!src_ip ~tpa:!dst_ip ()
  in
  (match !tun_vni with
  | Some vni ->
      Ovs_packet.Tunnel.encap pkt Ovs_packet.Tunnel.Geneve ~vni
        ~src_mac:(Ovs_packet.Mac.of_index 10)
        ~dst_mac:(Ovs_packet.Mac.of_index 11)
        ~src_ip:(Ovs_packet.Ipv4.addr_of_string "192.168.0.1")
        ~dst_ip:(Ovs_packet.Ipv4.addr_of_string "192.168.0.2")
        ()
  | None -> ());
  pkt.Ovs_packet.Buffer.in_port <- !in_port;
  pkt

(** [ovs-appctl ofproto/trace FLOW]: build a packet from the flow spec,
    run it live through the datapath with a walk recorder attached, and
    render the classic indented trace — the flow, every stage crossed
    (cache level, table-by-table rule matching, conntrack verdict,
    encap/decap, tx) and the per-stage cycles charged.

    Unlike real OVS's translate-only trace this executes the packet
    against live datapath state (caches are populated, conntrack commits),
    which is what lets it report cache level and cycles. *)
let ofproto_trace (dp : Dpif.t) spec =
  match packet_of_flow_spec spec with
  | exception Failure msg -> Not_supported msg
  | pkt ->
      let saved = Dpif.tracer dp in
      let r = Trace.create ~kind:(Dpif.kind_name (Dpif.kind dp)) () in
      Dpif.set_tracer dp (Some r);
      Trace.start_walk r;
      let total = ref 0. in
      Dpif.process dp (fun _cat ns -> total := !total +. ns) pkt;
      let events = Trace.stop_walk r in
      let stages = Trace.last_packet r in
      Dpif.set_tracer dp saved;
      let lines = ref [] in
      let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
      (match events with
      | { Trace.ev_stage = Trace.St_extract; ev_detail } :: _ ->
          add "Flow: %s" ev_detail
      | _ -> ());
      List.iter
        (fun { Trace.ev_stage; ev_detail } ->
          add "  [%-9s] %s" (Trace.stage_name ev_stage) ev_detail)
        events;
      add "";
      add "per-stage cycles:";
      List.iter
        (fun (s, ns) -> add "  %-9s %10.0f" (Trace.stage_name s) ns)
        stages;
      add "  %-9s %10.0f" "total" !total;
      Ok_output (String.concat "\n" (List.rev !lines))

(** [ovs-appctl dpif/show-stage-cycles]: the aggregate per-stage cycle
    attribution table of the datapath's installed tracer. *)
let show_stage_cycles (dp : Dpif.t) =
  match Dpif.tracer dp with
  | Some r -> Ok_output (Trace.render r)
  | None ->
      Not_supported
        "no stage tracer installed (Dpif.set_tracer first, or run with trace)"

(** [ovs-appctl dpctl/dump-flows]: the installed megaflows with
    per-megaflow hit and cycle statistics. *)
let dpctl_dump_flows (dp : Dpif.t) =
  Ok_output (String.concat "\n" (Dpif.dump_megaflows dp))

module Dp_core = Ovs_datapath.Dp_core

(** [ovs-appctl dpif/cache-hierarchy-show]: one table over the whole
    lookup hierarchy — EMC, SMC, the computational cache and dpcls —
    with each tier's hits, its share of datapath passes, and the mean
    virtual cycles one of its hits cost. *)
let cache_hierarchy_show (dp : Dpif.t) =
  let c : Dp_core.counters = Dpif.counters dp in
  let passes = Float.max 1. (float_of_int c.Dp_core.passes) in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "cache hierarchy: %d packets, %d datapath passes" c.Dp_core.packets
    c.Dp_core.passes;
  add "  %-8s %12s %8s %14s" "tier" "hits" "hit%" "cycles/hit";
  let row name hits cycles =
    add "  %-8s %12d %7.1f%% %14.1f" name hits
      (100. *. float_of_int hits /. passes)
      (if hits > 0 then cycles /. float_of_int hits else 0.)
  in
  row "emc" c.Dp_core.emc_hits c.Dp_core.cycles.Dp_core.emc_ns;
  row "smc" c.Dp_core.smc_hits c.Dp_core.cycles.Dp_core.smc_ns;
  row "ccache" c.Dp_core.ccache_hits c.Dp_core.cycles.Dp_core.ccache_ns;
  row "dpcls" c.Dp_core.dpcls_hits c.Dp_core.cycles.Dp_core.dpcls_ns;
  add "  %-8s %12d %7.1f%%" "upcall" c.Dp_core.upcalls
    (100. *. float_of_int c.Dp_core.upcalls /. passes);
  let subtables, megaflows, mean_probes = Dpif.dpcls_stats dp in
  add "  dpcls: %d subtables, %d megaflows, %.2f mean probes/lookup"
    subtables megaflows mean_probes;
  (match Dpif.ccache_render dp with
  | Some s -> add "  %s" s
  | None -> add "  ccache: absent (never enabled)");
  Ok_output (String.concat "\n" (List.rev !lines))

(** [ovs-appctl dpif/latency-show]: the per-packet sojourn-time
    distribution of the datapath's latency sketch — count, mean and the
    tail percentiles the NFV-benchmarking methodology reports, plus the
    sketch's documented relative error bound. *)
let latency_show (dp : Dpif.t) =
  let q = Dpif.latency dp in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let n = Ovs_sim.Quantiles.count q in
  add "per-packet sojourn (ns): %d samples, +/-%.0f%% per quantile" n
    (100. *. Ovs_sim.Quantiles.error_bound q);
  if n = 0 then add "  (empty: run traffic with latency measurement armed)"
  else begin
    add "  %-6s %14s" "stat" "ns";
    add "  %-6s %14.1f" "mean" (Ovs_sim.Quantiles.mean q);
    List.iter
      (fun (name, p) ->
        add "  %-6s %14.1f" name (Ovs_sim.Quantiles.quantile q p))
      [ ("min", 0.); ("p50", 50.); ("p95", 95.); ("p99", 99.);
        ("p999", 99.9); ("max", 100.) ]
  end;
  Ok_output (String.concat "\n" (List.rev !lines))

(** [ovs-appctl dpif/revalidator-show]: the incremental revalidator's
    lifetime counters — megaflows tracked, sweeps run, the rule churn
    diffed so far and the dirty / re-translate / evict work it caused.
    A disarmed datapath says so instead of printing zeros. *)
let revalidator_show (dp : Dpif.t) =
  if not (Dpif.revalidator_enabled dp) then
    Ok_output "revalidator: disabled (arm with set_revalidator_enabled)"
  else begin
    let lines = ref [ "revalidator: enabled" ] in
    Dpif.revalidator_render dp (fun s -> lines := s :: !lines);
    Ok_output (String.concat "\n" (List.rev !lines))
  end

module Health = Ovs_datapath.Health
module Faults = Ovs_faults.Faults

(** [ovs-appctl fault/inject SPEC]: parse and arm one fault on the
    process-global injector (arming an empty plan first if none). *)
let fault_inject spec =
  match Faults.of_spec spec with
  | Ok f ->
      Faults.inject f;
      Ok_output (Fmt.str "armed: %a" Faults.pp_fault f)
  | Error e -> Not_supported e

(** [ovs-appctl mc/replay ARTIFACT]: re-execute a schedule-explorer
    replay artifact ([mc1 mode=... seed=... mut=... sched=...]) against a
    fresh model and render the outcome — the deterministic reproduction
    path for any violation the explorer ever reports. *)
let mc_replay artifact =
  match Ovs_mc.Mc.replay artifact with
  | Ok s -> Ok_output s
  | Error e -> Not_supported ("mc/replay: " ^ e)

module Reconfig = Ovs_ofproto.Reconfig
module Ofconn = Ovs_ofproto.Ofconn

(** [ovs-appctl dpif/upgrade-show]: the last live-upgrade episode's bill —
    style, shadow-table size, the invalidation storm it caused and its
    traffic window. A process that has never cut over says so. *)
let upgrade_show (report : Reconfig.upgrade_report option) =
  match report with
  | None ->
      Ok_output
        "upgrade: none performed (run a swap through the reconfig rig first)"
  | Some r ->
      let lines = ref [] in
      Reconfig.render_upgrade r (fun s -> lines := s :: !lines);
      Ok_output (String.concat "\n" (List.rev !lines))

(** [ovs-appctl ovsdb/churn-apply PLAN]: parse a churn plan, store it as
    OVSDB rows, and let the database monitor drive every operation onto
    the datapath's classifier through the FLOW_MOD wire path — the
    control loop in one command. Swap ops are rejected here (they need
    the traffic rig); megaflows are revalidated after the churn. *)
let churn_apply (dp : Dpif.t) plan_text =
  match Reconfig.plan_of_string ~name:"appctl" plan_text with
  | exception Reconfig.Reconfig_error e -> Not_supported ("ovsdb/churn-apply: " ^ e)
  | plan ->
      let has_swap =
        List.exists
          (fun (ev : Reconfig.event) ->
            List.exists
              (function Reconfig.Swap _ -> true | _ -> false)
              ev.Reconfig.ops)
          plan.Reconfig.events
      in
      if has_swap then
        Not_supported
          "ovsdb/churn-apply: swap ops need the reconfig rig (bench -- reconfig)"
      else begin
        let db = Ovs_ovsdb.Db.create ~schema:Reconfig.schema () in
        let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
        let unregister, applied = Reconfig.attach db ~conn () in
        Reconfig.store_plan db plan;
        unregister ();
        let evicted = Dpif.revalidate dp in
        Ok_output
          (Printf.sprintf
             "applied %d ops from %d OVSDB rows (%d flow_mods, %d errors); \
              %d rules now installed, %d megaflows revalidated away"
             !applied
             (Ovs_ovsdb.Db.row_count db ~table:"Churn_op")
             conn.Ofconn.flow_mods conn.Ofconn.errors
             (Ovs_ofproto.Pipeline.flow_count (Dpif.pipeline dp))
             evicted)
      end

module Policy = Ovs_policy.Policy
module Pol_compile = Ovs_policy.Compile
module Pol_check = Ovs_policy.Check
module Pol_catalog = Ovs_policy.Catalog

(** [ovs-appctl policy/show NAME]: the catalog policy's source text and
    its compiled multi-table layout. *)
let policy_show name =
  match Pol_catalog.find name with
  | None ->
      Not_supported
        (Fmt.str "no policy %S (have: %s)" name
           (String.concat ", " (List.map (fun (n, _, _) -> n) Pol_catalog.entries)))
  | Some p ->
      let c = Pol_compile.compile p in
      let desc =
        List.find_map
          (fun (n, d, _) -> if n = name then Some d else None)
          Pol_catalog.entries
      in
      Ok_output
        (Fmt.str "policy %s: %s\n  %a\ncompiled: %d tables, %d paths, %d rules"
           name
           (Option.value ~default:"" desc)
           Policy.pp p c.Pol_compile.n_tables c.Pol_compile.n_paths
           (List.length c.Pol_compile.rules))

(** [ovs-appctl policy/check NAME]: compile the catalog policy, install
    it through the controller path, and run the symbolic equivalence
    checker over the whole key space. *)
let policy_check name =
  match Pol_catalog.find name with
  | None -> Not_supported (Fmt.str "no policy %S" name)
  | Some p -> (
      let c, pipeline = Pol_compile.pipeline_of p in
      match Pol_check.check ~ports:Pol_catalog.ports p pipeline with
      | Pol_check.Proved cubes ->
          Ok_output
            (Fmt.str
               "policy %s: PROVED translate(compile(p)) = eval(p) over %d cubes (%d rules)"
               name cubes (List.length c.Pol_compile.rules))
      | Pol_check.Divergent d ->
          Ok_output
            (Fmt.str "policy %s: DIVERGENT\n%s" name
               (Pol_check.render_divergence d)))

(** Dispatch an appctl command string. PMD commands render the supplied
    runtime reports (pass the current {!Pmd.reports}); datapath commands
    ([ofproto/trace], [dpif/show-stage-cycles], [dpctl/dump-flows],
    [dpif/revalidator-show]) need the [dp] argument; [dpif/health-show] needs [health]. The [fault/*]
    commands drive the global injector directly, and [mc/replay] runs a
    schedule-explorer artifact through a fresh model. *)
let appctl ?(pmds : Pmd.report list = []) ?(dp : Dpif.t option)
    ?(health : Health.t option) ?(upgrade : Reconfig.upgrade_report option)
    cmd =
  let with_dp f =
    match dp with
    | Some dp -> f dp
    | None -> Not_supported (cmd ^ ": no datapath supplied")
  in
  let prefixed prefix =
    String.length cmd > String.length prefix
    && String.sub cmd 0 (String.length prefix) = prefix
  in
  let arg prefix = String.sub cmd (String.length prefix)
      (String.length cmd - String.length prefix)
  in
  let trace_prefix = "ofproto/trace " in
  let fault_prefix = "fault/inject " in
  let mc_prefix = "mc/replay " in
  let policy_show_prefix = "policy/show " in
  let policy_check_prefix = "policy/check " in
  let churn_prefix = "ovsdb/churn-apply " in
  match cmd with
  | "dpif/upgrade-show" -> upgrade_show upgrade
  | "ovsdb/churn-apply" ->
      Not_supported "usage: ovsdb/churn-apply PLAN (@T op spec; one per line)"
  | "dpif-netdev/pmd-stats-show" -> Ok_output (pmd_stats_show pmds)
  | "dpif-netdev/pmd-rxq-show" -> Ok_output (pmd_rxq_show pmds)
  | "coverage/show" -> Ok_output (coverage_show ())
  | "dpif/show-stage-cycles" -> with_dp show_stage_cycles
  | "dpif/cache-hierarchy-show" -> with_dp cache_hierarchy_show
  | "dpif/latency-show" -> with_dp latency_show
  | "dpif/revalidator-show" -> with_dp revalidator_show
  | "dpctl/dump-flows" -> with_dp dpctl_dump_flows
  | "fault/list" -> Ok_output (Faults.render ())
  | "fault/clear" ->
      Faults.disarm ();
      Ok_output "all faults cleared"
  | "fault/inject" ->
      Not_supported "usage: fault/inject KIND [key=value]... (at/for in ms)"
  | "dpif/health-show" -> (
      match health with
      | Some h -> Ok_output (Health.render h ~now:(Faults.now ()))
      | None -> Not_supported (cmd ^ ": no health monitor supplied"))
  | "ofproto/trace" -> Not_supported "usage: ofproto/trace FLOW"
  | "mc/replay" ->
      Not_supported "usage: mc/replay mc1 mode=MODE seed=N mut=NAME sched=HEX"
  | "policy/show" | "policy/check" ->
      Not_supported
        (Printf.sprintf "usage: %s NAME (see policy/show for names)" cmd)
  | _ when prefixed churn_prefix ->
      with_dp (fun dp -> churn_apply dp (arg churn_prefix))
  | _ when prefixed policy_show_prefix -> policy_show (arg policy_show_prefix)
  | _ when prefixed policy_check_prefix -> policy_check (arg policy_check_prefix)
  | _ when prefixed mc_prefix -> mc_replay (arg mc_prefix)
  | _ when prefixed fault_prefix -> fault_inject (arg fault_prefix)
  | _ when prefixed trace_prefix ->
      with_dp (fun dp -> ofproto_trace dp (arg trace_prefix))
  | other -> Not_supported (Printf.sprintf "\"%s\" is not a valid command" other)
