(** ovs-vswitchd: the top-level switch object a user configures.

    Owns the OpenFlow pipeline and the datapath, manages ports and their
    XDP programs, accepts textual flow rules, and models the operational
    properties Sec 6 is about: restarting without rebooting, surviving
    datapath bugs as a process crash plus automatic restart, and meters
    as the stand-in for the kernel QoS features OVS had to leave behind. *)

module Dpif = Ovs_datapath.Dpif

type config = {
  datapath : Dpif.kind;
  kernel : Kernel_compat.version;
  n_tables : int;
}

let default_config =
  {
    datapath = Dpif.Afxdp Dpif.afxdp_default;
    kernel = Kernel_compat.v 5 3;
    n_tables = 64;
  }

type t = {
  config : config;
  pipeline : Ovs_ofproto.Pipeline.t;
  mutable dp : Dpif.t;
  mutable port_names : (string * int) list;
  mutable restarts : int;
  mutable crashes : int;
  log : string list ref;
}

let log t fmt = Fmt.kstr (fun m -> t.log := m :: !(t.log)) fmt

let create ?(config = default_config) () =
  (* refuse AF_XDP on kernels that lack it, as the real port setup does *)
  (match config.datapath with
  | Dpif.Afxdp _
    when Kernel_compat.select_mode ~kernel:config.kernel ~driver_native:true
           ~driver_zerocopy:true
         = Kernel_compat.Xdp_unavailable ->
      invalid_arg "Vswitch.create: AF_XDP requires kernel >= 4.18"
  | _ -> ());
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:config.n_tables () in
  let t =
    {
      config;
      pipeline;
      dp = Dpif.create ~kind:config.datapath ~pipeline ();
      port_names = [];
      restarts = 0;
      crashes = 0;
      log = ref [];
    }
  in
  log t "ovs-vswitchd started with the %s datapath" (Dpif.kind_name config.datapath);
  t

(** Add a device; returns its OpenFlow port number. For AF_XDP physical
    ports this loads the XDP program and binds the XSKs (Sec 4). *)
let add_port t (dev : Ovs_netdev.Netdev.t) : int =
  let no = Dpif.add_port t.dp dev in
  t.port_names <- (dev.Ovs_netdev.Netdev.name, no) :: t.port_names;
  Ovs_ofproto.Pipeline.set_ports t.pipeline (List.map snd t.port_names);
  log t "port %d: %s" no dev.Ovs_netdev.Netdev.name;
  no

let port_number t name = List.assoc_opt name t.port_names

(** Install flow rules in ovs-ofctl syntax. *)
let add_flows t lines =
  let n = Ovs_ofproto.Parser.install_flows t.pipeline lines in
  (* rule changes invalidate the installed megaflows *)
  Dpif.flush_caches t.dp;
  n

let add_flow t line = ignore (add_flows t [ line ])

(** Remove flows matching an ovs-ofctl del-flows spec ("in_port=1,tcp" —
    non-strict semantics) and drop the now-stale megaflows via
    revalidation. Returns how many OpenFlow rules were removed. *)
let del_flows t spec =
  let table, m = Ovs_ofproto.Parser.parse_match_spec spec in
  let removed = Ovs_ofproto.Pipeline.del_flows ?table t.pipeline m in
  if removed > 0 then
    ignore (Dpif.revalidate t.dp);
  removed

(** ovs-ofctl dump-flows / ovs-appctl dpctl/dump-flows. *)
let dump_flows ?table t = Ovs_ofproto.Pipeline.dump_flows ?table t.pipeline
let dump_megaflows t = Dpif.dump_megaflows t.dp

(** Connect a reactive controller: [controller]-action packets become
    PACKET_INs on the wire; the controller's FLOW_MODs are applied through
    a switch-side session (with revalidation so stale megaflows die) and
    its PACKET_OUTs are transmitted. The complete Fig 7 control loop. *)
let connect_controller t (ctrl : Ovs_ofproto.Controller.t) =
  let conn = Ovs_ofproto.Ofconn.create ~pipeline:t.pipeline () in
  Dpif.set_controller t.dp
      (fun pkt ->
        let data = Ovs_packet.Buffer.contents pkt in
        let packet_in =
          Ovs_ofproto.Ofp_codec.encode
            (Ovs_ofproto.Ofp_codec.Packet_in
               {
                 total_len = Bytes.length data;
                 reason = 1 (* OFPR_ACTION *);
                 table_id = 0;
                 in_port = pkt.Ovs_packet.Buffer.in_port;
                 data;
               })
        in
        let replies = Ovs_ofproto.Controller.feed ctrl packet_in in
        (* apply the controller's decisions *)
        let pos = ref 0 in
        let flow_mods = ref 0 in
        (try
           while Bytes.length replies - !pos >= 8 do
             let chunk = Bytes.sub replies !pos (Bytes.length replies - !pos) in
             let msg, xid, consumed = Ovs_ofproto.Ofp_codec.decode chunk in
             pos := !pos + consumed;
             match msg with
             | Ovs_ofproto.Ofp_codec.Flow_mod _ ->
                 incr flow_mods;
                 ignore (Ovs_ofproto.Ofconn.handle_msg conn ~xid msg)
             | Ovs_ofproto.Ofp_codec.Packet_out { actions; data; _ } ->
                 let out = Ovs_packet.Buffer.of_bytes data in
                 List.iter
                   (function
                     | Ovs_ofproto.Action.Output p -> begin
                         match Dpif.port t.dp p with
                         | Some port -> Ovs_netdev.Netdev.transmit port.Dpif.dev out
                         | None -> ()
                       end
                     | _ -> ())
                   actions
             | _ -> ()
           done
         with Ovs_ofproto.Ofp_codec.Decode_error _ -> ());
        if !flow_mods > 0 then
          ignore (Dpif.revalidate t.dp));
  log t "controller connected"

(** Configure a meter (the OpenFlow rate-limiting stand-in for kernel QoS,
    Sec 6 "Some features must be reimplemented"). The token bucket is
    enforced by the datapath's [meter:N] action. *)
let set_meter t ?(burst = 64.) ~id ~rate_pps () =
  Dpif.set_meter t.dp ~id ~rate_pps ~burst

let meter_stats t ~id = Dpif.meter_stats t.dp ~id

(** Advance the switch's virtual clock (meters refill in virtual time). *)
let set_time t now = Dpif.set_time t.dp now

(** Convenience single-threaded processing for examples and tests: push a
    packet into a port and run it through the datapath, collecting any
    transmitted packets via each device's tx sink. *)
let inject t ~machine_ctx (pkt : Ovs_packet.Buffer.t) ~port_no =
  match Dpif.port t.dp port_no with
  | None -> invalid_arg "Vswitch.inject: unknown port"
  | Some p ->
      ignore (Ovs_netdev.Netdev.enqueue_on p.Dpif.dev ~queue:0 pkt : bool);
      ignore
        (Dpif.poll t.dp ~softirq:machine_ctx ~pmd:machine_ctx ~port_no ~queue:0 ())

(** Restart the process in place: caches and conntrack state are lost,
    configuration survives — the whole upgrade story of the AF_XDP design
    (Sec 6: "upgrading ... only needs to restart OVS"). The rules stay in
    the shared pipeline; the new datapath takes each meter's rate and
    burst (with a full bucket) and the controller hook from the old one.
    The caller that owns the devices re-adds the ports. *)
let restart t =
  t.restarts <- t.restarts + 1;
  let old = t.dp in
  let dp = Dpif.create ~kind:t.config.datapath ~pipeline:t.pipeline () in
  List.iter
    (fun (id, rate_pps, burst) -> Dpif.set_meter dp ~id ~rate_pps ~burst)
    (Dpif.meter_configs old);
  Option.iter (Dpif.set_controller dp) (Dpif.controller old);
  (* the old revalidator, if armed, would go on journaling the shared tables *)
  Dpif.set_revalidator_enabled old false;
  t.dp <- dp;
  log t "ovs-vswitchd restarted (%d restarts so far)" t.restarts

(** What happens when a datapath bug fires (e.g. the Geneve parser bug of
    Sec 6): with the kernel datapath the host panics, taking every
    workload with it; with the userspace datapath the process dumps core
    and the health monitor restarts it. *)
type crash_outcome = Host_panic | Process_restart of { core_dump : bool }

let inject_datapath_bug t =
  t.crashes <- t.crashes + 1;
  match t.config.datapath with
  | Dpif.Kernel ->
      log t "kernel oops: null-pointer dereference in datapath; host down";
      Host_panic
  | Dpif.Kernel_ebpf ->
      (* the verifier's whole point: the bug cannot crash the kernel *)
      log t "eBPF program aborted safely; packet dropped";
      Process_restart { core_dump = false }
  | Dpif.Dpdk | Dpif.Afxdp _ ->
      log t "ovs-vswitchd crashed; monitor restarting it with a core dump";
      restart t;
      Process_restart { core_dump = true }

let counters t = Dpif.counters t.dp
