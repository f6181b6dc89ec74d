(* Reconfiguration battery: the two-phase shadow-table cutover must be
   observationally equivalent to applying the final ruleset directly, the
   OVSDB monitor path must apply exactly what direct wire application
   applies, incremental revalidation must stay 0-divergent from the
   flush-all oracle under random churn, and the Sec 6 downtime comparison
   must work on both its static and dynamic baselines. *)

module Dpif = Ovs_datapath.Dpif
module Pipeline = Ovs_ofproto.Pipeline
module Reconfig = Ovs_ofproto.Reconfig
module Ofconn = Ovs_ofproto.Ofconn
module Netdev = Ovs_netdev.Netdev
module Db = Ovs_ovsdb.Db

(* ------------------------------------------------- random FLOW_MODs *)

(* a small closed vocabulary of valid rule and match texts, so every
   generated op parses and the interesting part is the sequencing *)
let match_pool =
  [| ""; "udp"; "tcp"; "in_port=0"; "udp,in_port=0"; "nw_dst=10.0.0.1";
     "udp,nw_dst=10.0.0.0/24" |]

let flow_text ~table ~priority ~mi ~out =
  let m = match_pool.(mi) in
  Printf.sprintf "table=%d,priority=%d%s,actions=output:%d" table priority
    (if m = "" then "" else "," ^ m)
    out

let gen_flow =
  QCheck.Gen.(
    map
      (fun (table, priority, mi, out) -> flow_text ~table ~priority ~mi ~out)
      (quad (int_range 0 1) (int_range 1 300)
         (int_range 0 (Array.length match_pool - 1))
         (int_range 0 1)))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun f -> Reconfig.Insert f) gen_flow);
        (2, map (fun f -> Reconfig.Modify f) gen_flow);
        ( 2,
          map
            (fun (table, mi) ->
              Reconfig.Delete
                (if match_pool.(mi) = "" then Printf.sprintf "table=%d" table
                 else Printf.sprintf "table=%d,%s" table match_pool.(mi)))
            (pair (int_range 0 1) (int_range 0 (Array.length match_pool - 1)))
        );
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 0 12) gen_op)

let arb_ops =
  QCheck.make gen_ops
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (fun op ->
             let v, s = match op with
               | Reconfig.Insert s -> ("insert", s)
               | Reconfig.Modify s -> ("modify", s)
               | Reconfig.Delete s -> ("delete", s)
               | Reconfig.Swap _ -> ("swap", "")
             in
             v ^ " " ^ s)
           ops))

(* classifier state modulo hit counters and rule order *)
let normalize pipeline =
  Pipeline.dump_flows pipeline
  |> List.map (fun line ->
         String.split_on_char ',' line
         |> List.map String.trim
         |> List.filter (fun tok ->
                not (String.length tok >= 10 && String.sub tok 0 10 = "n_packets="))
         |> String.concat ",")
  |> List.sort compare

let fresh_dp () =
  let pipeline = Pipeline.create ~n_tables:2 () in
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  ignore (Dpif.add_port dp (Netdev.create ~name:"rc0" ()));
  ignore (Dpif.add_port dp (Netdev.create ~name:"rc1" ()));
  dp

(* two-phase cutover = direct apply: after arbitrary prior churn, a
   shadow built from the final flow list and swapped in leaves the
   classifier in exactly the state direct wire application of that list
   produces on a fresh switch — history cannot leak through the swap *)
let prop_shadow_equiv =
  QCheck.Test.make ~count:150 ~name:"two-phase cutover = direct apply"
    (QCheck.pair arb_ops (QCheck.make QCheck.Gen.(list_size (int_range 1 6) gen_flow)))
    (fun (prefix, final_flows) ->
      let dp = fresh_dp () in
      let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
      ignore (Reconfig.apply_ops conn prefix);
      let shadow, _mods =
        Reconfig.build_shadow ~like:(Dpif.pipeline dp) final_flows
      in
      ignore (Dpif.swap_pipeline dp shadow);
      let direct = Pipeline.create ~n_tables:2 () in
      Pipeline.set_ports direct [ 0; 1 ];
      let dconn = Ofconn.create ~pipeline:direct () in
      ignore
        (Reconfig.apply_ops dconn
           (List.map (fun f -> Reconfig.Insert f) final_flows));
      normalize (Dpif.pipeline dp) = normalize direct)

(* the OVSDB-driven loop applies exactly what direct application does:
   committing a plan's rows with a monitor attached leaves the
   classifier in the same state as feeding the ops straight down the
   wire, and applies every row exactly once *)
let prop_ovsdb_path =
  QCheck.Test.make ~count:150 ~name:"OVSDB monitor path = direct wire path"
    arb_ops (fun ops ->
      let direct = Pipeline.create ~n_tables:2 () in
      Pipeline.set_ports direct [ 0; 1 ];
      ignore (Reconfig.apply_ops (Ofconn.create ~pipeline:direct ()) ops);
      let via_db = Pipeline.create ~n_tables:2 () in
      Pipeline.set_ports via_db [ 0; 1 ];
      let db = Db.create ~schema:Reconfig.schema () in
      let conn = Ofconn.create ~pipeline:via_db () in
      let unregister, applied = Reconfig.attach db ~conn () in
      let plan =
        { Reconfig.plan_name = "p"; events = [ { Reconfig.at_s = 0.; ops } ] }
      in
      Reconfig.store_plan db plan;
      unregister ();
      !applied = List.length ops && normalize direct = normalize via_db)

(* incremental revalidation stays 0-divergent from the flush-all oracle
   across random churn with live traffic interleaved between ops *)
let prop_churn_divergence_free =
  QCheck.Test.make ~count:60 ~name:"churn revalidation 0-divergent"
    arb_ops (fun ops ->
      let dp = fresh_dp () in
      let conn = Ofconn.create ~pipeline:(Dpif.pipeline dp) () in
      ignore
        (Reconfig.apply_ops conn
           [ Reconfig.Insert "table=0,priority=1,actions=output:1" ]);
      Dpif.set_revalidator_enabled dp true;
      let charge _ _ = () in
      let traffic i =
        for j = 0 to 2 do
          let p =
            Ovs_packet.Build.udp
              ~src_ip:(0x0A000002 + ((i + j) mod 5))
              ~dst_ip:0x0A000001
              ~src_port:(1111 + (i mod 3))
              ~dst_port:2222 ()
          in
          p.Ovs_packet.Buffer.in_port <- 0;
          Dpif.process dp charge p
        done
      in
      traffic 0;
      List.for_all
        (fun op ->
          ignore (Reconfig.apply_ops conn [ op ]);
          let _full, _evicted, divergences = Dpif.revalidate_check dp in
          traffic (Hashtbl.hash op);
          divergences = 0)
        ops)

(* ------------------------------------------------- plan round-trips *)

let plan_text =
  "# a rollout\n\
   @0.001 insert table=0,priority=200,udp,actions=output:1\n\
   @0.002 modify table=0,priority=200,udp,actions=output:0\n\
   @0.002 delete table=0,udp\n\
   @0.003 swap table=0,priority=50,actions=output:1; \
   table=0,priority=10,actions=output:0\n\
   @0.004 swap-naive table=0,priority=50,actions=output:1\n"

let op_count (plan : Reconfig.plan) =
  List.fold_left (fun n e -> n + List.length e.Reconfig.ops) 0 plan.Reconfig.events

let test_plan_parse () =
  let plan = Reconfig.plan_of_string ~name:"roll" plan_text in
  Alcotest.(check int) "events grouped by timestamp" 4
    (List.length plan.Reconfig.events);
  Alcotest.(check int) "five ops total" 5 (op_count plan);
  match plan.Reconfig.events with
  | [ e1; e2; e3; e4 ] ->
      Alcotest.(check (list (float 1e-9))) "timestamps sorted"
        [ 0.001; 0.002; 0.003; 0.004 ]
        (List.map (fun e -> e.Reconfig.at_s) [ e1; e2; e3; e4 ]);
      Alcotest.(check int) "tie folded into one event" 2
        (List.length e2.Reconfig.ops);
      (match e4.Reconfig.ops with
      | [ Reconfig.Swap { swap_style = Reconfig.Naive; swap_flows } ] ->
          Alcotest.(check int) "naive swap flows" 1 (List.length swap_flows)
      | _ -> Alcotest.fail "expected a naive swap at 0.004")
  | _ -> Alcotest.fail "expected 4 events"

let test_plan_db_roundtrip () =
  let plan = Reconfig.plan_of_string ~name:"roll" plan_text in
  let db = Db.create ~schema:Reconfig.schema () in
  Reconfig.store_plan db plan;
  Alcotest.(check int) "one row per op" (op_count plan)
    (Db.row_count db ~table:"Churn_op");
  let back = Reconfig.load_plan db ~name:"roll" in
  Alcotest.(check bool) "load_plan = original plan" true
    (back.Reconfig.events = plan.Reconfig.events)

(* -------------------------- downtime: static and dynamic baselines *)

let test_compare_downtime () =
  (* static: against the modeled 2 s userspace process restart *)
  let s = Ovs_core.Upgrade.compare_downtime ~measured_recovery_ns:1e6 () in
  Alcotest.(check (float 1e-12)) "static measured s" 0.001
    s.Ovs_core.Upgrade.measured_recovery_s;
  Alcotest.(check (float 1e-12)) "static modeled s" 2.0
    s.Ovs_core.Upgrade.modeled_downtime_s;
  Alcotest.(check (float 1e-9)) "static ratio" 5e-4
    s.Ovs_core.Upgrade.downtime_ratio;
  (* dynamic: against a measured naive-swap recovery *)
  let d =
    Ovs_core.Upgrade.compare_downtime ~dynamic_baseline_ns:2e6
      ~measured_recovery_ns:1e6 ()
  in
  Alcotest.(check (float 1e-12)) "dynamic modeled s" 0.002
    d.Ovs_core.Upgrade.modeled_downtime_s;
  Alcotest.(check (float 1e-9)) "dynamic ratio" 0.5
    d.Ovs_core.Upgrade.downtime_ratio

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_reconfig"
    [
      ( "equivalence",
        qcheck [ prop_shadow_equiv; prop_ovsdb_path; prop_churn_divergence_free ]
      );
      ( "plans",
        [
          Alcotest.test_case "plan parse" `Quick test_plan_parse;
          Alcotest.test_case "plan OVSDB round-trip" `Quick
            test_plan_db_roundtrip;
        ] );
      ( "downtime",
        [
          Alcotest.test_case "compare_downtime static+dynamic" `Quick
            test_compare_downtime;
        ] );
    ]
