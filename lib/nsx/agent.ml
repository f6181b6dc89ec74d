(** The NSX agent model (Sec 4, Fig 7): connects to the local OVS over
    OVSDB and OpenFlow, creates the integration and underlay bridges,
    transforms the network policy into flow rules, and installs them.

    The OVSDB side is a real transactional database ({!Ovs_ovsdb.Db})
    speaking the Open_vSwitch schema: bridge and port creation are atomic
    transactions, and ovs-vswitchd's reconfiguration is modelled by a
    monitor on the Bridge and Interface tables. The OpenFlow side installs
    textual rules into the bridge pipelines. *)

type bridge = {
  name : string;
  pipeline : Ovs_ofproto.Pipeline.t;
  mutable ports : (string * int) list;
}

type t = {
  db : Ovs_ovsdb.Db.t;
  integration : bridge;  (** br-int: VIF-to-VIF policy *)
  underlay : bridge;  (** br-underlay: tunnel endpoint / uplink *)
  spec : Ruleset.spec;
  mutable installed : int;
  mutable reconfigurations : int;
      (** times the (modelled) vswitchd reacted to an OVSDB change *)
}

let create ?(spec = Ruleset.table3_spec) () =
  let db = Ovs_ovsdb.Db.create () in
  let t =
    {
      db;
      integration =
        { name = "br-int"; pipeline = Ovs_ofproto.Pipeline.create ~n_tables:40 (); ports = [] };
      underlay =
        { name = "br-underlay"; pipeline = Ovs_ofproto.Pipeline.create ~n_tables:8 (); ports = [] };
      spec;
      installed = 0;
      reconfigurations = 0;
    }
  in
  (* ovs-vswitchd watches the database and reconfigures on every change *)
  let (_ : unit -> unit) =
    Ovs_ovsdb.Db.monitor db ~table:"Bridge" ~callback:(fun _ ->
        t.reconfigurations <- t.reconfigurations + 1)
  in
  let (_ : unit -> unit) =
    Ovs_ovsdb.Db.monitor db ~table:"Interface" ~callback:(fun _ ->
        t.reconfigurations <- t.reconfigurations + 1)
  in
  (* the two bridges of Fig 7, created through OVSDB transactions *)
  ignore (Ovs_ovsdb.Vsctl.add_br db ~datapath_type:"netdev" "br-int");
  ignore (Ovs_ovsdb.Vsctl.add_br db ~datapath_type:"netdev" "br-underlay");
  t

(** Install the full NSX policy on the integration bridge (the OpenFlow
    side of Fig 7). Returns the Table 3 statistics of what was installed. *)
let install_policy t : Ruleset.stats =
  let lines = Ruleset.generate t.spec in
  let n = Ovs_ofproto.Parser.install_flows t.integration.pipeline lines in
  t.installed <- t.installed + n;
  (* the underlay bridge just forwards between the VTEP IP and the fabric *)
  let m = Ovs_ofproto.Match_.catchall () in
  Ovs_ofproto.Pipeline.add_flow t.underlay.pipeline ~priority:1 m
    [ Ovs_ofproto.Action.Normal ];
  t.installed <- t.installed + 1;
  Ruleset.stats_of_pipeline t.spec t.integration.pipeline

(** Install the policy over the actual OpenFlow wire protocol: every rule
    is encoded as a FLOW_MOD, shipped as bytes through a switch-side
    connection, decoded there, and installed — the full Fig 7 channel.
    Returns (rules installed, wire bytes shipped). *)
let install_policy_via_wire t : int * int =
  let conn = Ovs_ofproto.Ofconn.create ~pipeline:t.integration.pipeline () in
  ignore (Ovs_ofproto.Ofconn.feed conn (Ovs_ofproto.Ofp_codec.encode Ovs_ofproto.Ofp_codec.Hello));
  let bytes = ref 0 in
  let xid = ref 1 in
  List.iter
    (fun line ->
      let f = Ovs_ofproto.Parser.parse_flow line in
      let wire =
        Ovs_ofproto.Ofp_codec.encode ~xid:!xid
          (Ovs_ofproto.Ofp_codec.Flow_mod
             {
               command = `Add;
               table_id = f.Ovs_ofproto.Parser.table;
               priority = f.Ovs_ofproto.Parser.priority;
               cookie = f.Ovs_ofproto.Parser.cookie;
               match_ = f.Ovs_ofproto.Parser.match_;
               actions = f.Ovs_ofproto.Parser.actions;
             })
      in
      incr xid;
      bytes := !bytes + Bytes.length wire;
      ignore (Ovs_ofproto.Ofconn.feed conn wire))
    (Ruleset.generate t.spec);
  t.installed <- t.installed + conn.Ovs_ofproto.Ofconn.flow_mods;
  (conn.Ovs_ofproto.Ofconn.flow_mods, !bytes)

(** Register a port on the integration bridge: an OVSDB transaction that
    creates the Port and Interface rows, plus the ofport assignment the
    switch reports back. *)
let add_port t ?(iface_type = "afxdp") ~name ~port_no () =
  ignore (Ovs_ovsdb.Vsctl.add_port t.db ~bridge:"br-int" ~iface_type name);
  Ovs_ovsdb.Vsctl.set_interface_ofport t.db name port_no;
  t.integration.ports <- (name, port_no) :: t.integration.ports

(** Monitoring: what the agent polls over OVSDB/OpenFlow. *)
type status = { bridges : int; ports : int; rules : int; reconfigurations : int }

let status t =
  {
    bridges = Ovs_ovsdb.Db.row_count t.db ~table:"Bridge";
    ports = Ovs_ovsdb.Db.row_count t.db ~table:"Port";
    rules =
      Ovs_ofproto.Pipeline.flow_count t.integration.pipeline
      + Ovs_ofproto.Pipeline.flow_count t.underlay.pipeline;
    reconfigurations = t.reconfigurations;
  }
