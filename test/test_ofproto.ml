(* Tests for the OpenFlow layer: matches, priority classifier, textual
   parser, multi-table translation with megaflow mask accumulation. *)

open Ovs_ofproto
module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build

let check = Alcotest.check

let key ?(src_port = 1234) ?(dst_port = 80) ?(in_port = 1) () =
  let pkt =
    B.tcp ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.1.2.3")
      ~dst_ip:(Ovs_packet.Ipv4.addr_of_string "10.9.8.7") ~src_port ~dst_port ()
  in
  pkt.Ovs_packet.Buffer.in_port <- in_port;
  FK.extract pkt

(* -- Match -- *)

let test_match_exact_field () =
  let m = Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 80 in
  Alcotest.(check bool) "hits" true (Match_.matches m (key ~dst_port:80 ()));
  Alcotest.(check bool) "misses" false (Match_.matches m (key ~dst_port:81 ()))

let test_match_catchall () =
  Alcotest.(check bool) "catchall matches anything" true
    (Match_.matches (Match_.catchall ()) (key ()))

let test_match_cidr_prefix () =
  let m =
    Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_src
      (Ovs_packet.Ipv4.addr_of_string "10.1.0.0") 16
  in
  Alcotest.(check bool) "inside /16" true (Match_.matches m (key ()));
  let other = key () in
  FK.set other FK.Field.Nw_src (Ovs_packet.Ipv4.addr_of_string "10.2.0.1");
  Alcotest.(check bool) "outside /16" false (Match_.matches m other)

let test_match_fields_used () =
  let m =
    Match_.with_field
      (Match_.with_field (Match_.catchall ()) FK.Field.In_port 1)
      FK.Field.Tp_dst 80
  in
  check Alcotest.int "two fields" 2 (Match_.fields_used m)

(* -- Table: priority resolution -- *)

let test_table_priority_wins () =
  let tbl = Table.create () in
  Table.add tbl ~priority:10 (Match_.catchall ()) "low";
  Table.add tbl ~priority:100
    (Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 80)
    "high";
  (match Table.lookup tbl (key ~dst_port:80 ()) ~wc:(FK.create ()) with
  | Some r -> check Alcotest.string "high wins" "high" r.Table.value
  | None -> Alcotest.fail "no match");
  match Table.lookup tbl (key ~dst_port:22 ()) ~wc:(FK.create ()) with
  | Some r -> check Alcotest.string "fallback" "low" r.Table.value
  | None -> Alcotest.fail "no fallback"

let test_table_priority_across_subtables () =
  let tbl = Table.create () in
  (* same priority semantics even when rules live in different subtables *)
  Table.add tbl ~priority:50
    (Match_.with_field (Match_.catchall ()) FK.Field.In_port 1)
    "by-port";
  Table.add tbl ~priority:60
    (Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 80)
    "by-dport";
  let wc = FK.create () in
  match Table.lookup tbl (key ~in_port:1 ~dst_port:80 ()) ~wc with
  | Some r ->
      check Alcotest.string "higher priority subtable" "by-dport" r.Table.value;
      Alcotest.(check bool) "the matching mask is ORed in" true (FK.get wc FK.Field.Tp_dst <> 0)
  | None -> Alcotest.fail "no match"

let test_table_remove_where () =
  let tbl = Table.create () in
  Table.add tbl ~cookie:7 ~priority:1 (Match_.catchall ()) "a";
  Table.add tbl ~cookie:8 ~priority:2 (Match_.catchall ()) "b";
  let removed = Table.remove_where tbl (fun r -> r.Table.cookie = 7) in
  check Alcotest.int "one removed" 1 removed;
  check Alcotest.int "one left" 1 (Table.rule_count tbl)

let test_table_miss () =
  let tbl = Table.create () in
  Table.add tbl ~priority:5
    (Match_.with_field (Match_.catchall ()) FK.Field.In_port 99)
    "x";
  match Table.lookup tbl (key ~in_port:1 ()) ~wc:(FK.create ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "unexpected match"

(* Property: the tuple-space table agrees with a brute-force linear scan
   on which priority wins (ties may resolve to either rule, as in OVS
   where equal-priority overlaps are unspecified). *)
let prop_table_vs_linear_oracle =
  QCheck.Test.make ~count:80 ~name:"table lookup matches linear oracle"
    QCheck.small_int
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 17) in
      let tbl = Table.create () in
      let fields =
        [| FK.Field.In_port; FK.Field.Tp_dst; FK.Field.Nw_proto; FK.Field.Nw_src |]
      in
      let rules = ref [] in
      for i = 0 to 19 do
        let m = Match_.catchall () in
        Array.iter
          (fun f ->
            if Ovs_sim.Prng.int prng 2 = 0 then
              ignore (Match_.with_field m f (Ovs_sim.Prng.int prng 4)))
          fields;
        let priority = 1 + Ovs_sim.Prng.int prng 50 in
        Table.add tbl ~priority m i;
        rules := (priority, m, i) :: !rules
      done;
      let ok = ref true in
      for _ = 1 to 60 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 4)) fields;
        let best_priority =
          List.fold_left
            (fun best (p, m, _) -> if Match_.matches m k then Int.max best p else best)
            min_int !rules
        in
        match Table.lookup tbl k ~wc:(FK.create ()) with
        | Some r -> if r.Table.priority <> best_priority then ok := false
        | None -> if best_priority <> min_int then ok := false
      done;
      !ok)

(* Two subtables tie on max priority: the newer is probed first, and
   when it matches at that priority the older is neither probed nor ORed
   into the megaflow mask. When the newer misses, both are. *)
let test_table_tie_order () =
  let tbl = Table.create () in
  Table.add tbl ~priority:10 (Match_.with_field (Match_.catchall ()) FK.Field.In_port 1) "older";
  Table.add tbl ~priority:10 (Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst 80) "newer";
  let lookup k =
    let wc = FK.create () and before = Table.probes tbl in
    let r = Table.lookup tbl k ~wc in
    ( (Option.map (fun r -> r.Table.value) r, Table.probes tbl - before),
      (FK.get wc FK.Field.In_port <> 0, FK.get wc FK.Field.Tp_dst <> 0) )
  in
  (* (rule, probes), (in_port ORed in, tp_dst ORed in) *)
  let result = Alcotest.(pair (pair (option string) int) (pair bool bool)) in
  check result "newer matches: older unprobed"
    ((Some "newer", 1), (false, true))
    (lookup (key ~in_port:1 ~dst_port:80 ()));
  check result "newer misses: older probed"
    ((Some "older", 2), (true, true))
    (lookup (key ~in_port:1 ~dst_port:22 ()))

(* -- equivalence with the list-bucket reference table -- *)

module Ref = Table_reference

let equiv_fields = FK.Field.[| In_port; Nw_src; Tp_dst |]

(* Overlapping masks, so a key matches in several subtables; a prefix
   mask and the catch-all cover partial and no words. *)
let equiv_masks =
  let mask fields =
    let m = FK.create () in
    List.iter (fun (f, w) -> FK.set m f w) fields;
    m
  in
  let full f = (f, FK.Field.full_mask f) in
  FK.Field.
    [|
      mask [ full In_port ];
      mask [ full Nw_src ];
      mask [ (Nw_src, 0xFFFF0000) ];
      mask [ full In_port; full Tp_dst ];
      mask [ full Nw_src; full Tp_dst ];
      mask [];
    |]

(* Key [code]: base-4 digits, one per field of [equiv_fields], each
   spread over every byte of the field so the prefix mask sees it. *)
let equiv_key code =
  let k = FK.create () in
  Array.iteri (fun i f -> FK.set k f ((code lsr (2 * i)) land 3 * 0x01010101)) equiv_fields;
  k

type top =
  | Add of int * int * int * int
      (** mask, key, priority, cookie; the key is left unmasked when odd *)
  | Remove_cookie of int
  | Remove_priority of int
  | Remove_mask of int
  | Lookup of int

let pp_top = function
  | Add (m, k, p, c) -> Printf.sprintf "add m%d k%d p%d c%d" m k p c
  | Remove_cookie c -> Printf.sprintf "remove cookie %d" c
  | Remove_priority p -> Printf.sprintf "remove priority %d" p
  | Remove_mask m -> Printf.sprintf "remove m%d" m
  | Lookup k -> Printf.sprintf "lookup %d" k

(* Few priorities, so rules tie within a slot and subtables tie on max
   priority. *)
let gen_top =
  QCheck.Gen.(
    let mask = int_bound (Array.length equiv_masks - 1) and key = int_bound 63 in
    let prio = int_bound 3 in
    frequency
      [
        (8, map4 (fun m k p c -> Add (m, k, p, c)) mask key prio (int_bound 3));
        (1, map (fun c -> Remove_cookie c) (int_bound 3));
        (1, map (fun p -> Remove_priority p) prio);
        (1, map (fun m -> Remove_mask m) mask);
        (8, map (fun k -> Lookup k) key);
      ])

let arb_tops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_top ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) gen_top)

(* Every rule as (value, priority, cookie, hits), sorted: values are
   unique per added rule, so this is the rule multiset with hit counts. *)
let table_rules t =
  let l = ref [] in
  Table.iter t (fun r -> l := Table.(r.value, r.priority, r.cookie, r.hits) :: !l);
  List.sort compare !l

let ref_rules t =
  let l = ref [] in
  Ref.iter t (fun r -> l := Ref.(r.value, r.priority, r.cookie, r.hits) :: !l);
  List.sort compare !l

(* Run one operation sequence on the table and the reference, failing
   at the first difference: every lookup's rule, OR of probed masks and
   probe count, every removal's count, and after every operation the
   rule count and the rules with their hits. *)
let run_table_equivalence ops =
  let t = Table.create () and r = Ref.create () in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let next_value = ref 0 in
  let remove what pred_t pred_r =
    let a = Table.remove_where t pred_t and b = Ref.remove_where r pred_r in
    if a <> b then fail "%s: removed %d vs %d" what a b
  in
  let step i op =
    let what = Printf.sprintf "op %d (%s)" i (pp_top op) in
    (match op with
    | Add (m, k, priority, cookie) ->
        incr next_value;
        let mask = equiv_masks.(m) in
        let key = if k land 1 = 1 then equiv_key k else FK.apply_mask (equiv_key k) mask in
        Table.add t ~cookie ~priority { Match_.key = FK.copy key; mask = FK.copy mask } !next_value;
        Ref.add r ~cookie ~priority { Match_.key = FK.copy key; mask = FK.copy mask } !next_value
    | Remove_cookie c ->
        remove what (fun x -> x.Table.cookie = c) (fun x -> x.Ref.cookie = c)
    | Remove_priority p ->
        remove what (fun x -> x.Table.priority = p) (fun x -> x.Ref.priority = p)
    | Remove_mask m ->
        let mask = equiv_masks.(m) in
        remove what
          (fun x -> FK.equal x.Table.match_.Match_.mask mask)
          (fun x -> FK.equal x.Ref.match_.Match_.mask mask)
    | Lookup k ->
        let key = equiv_key k in
        let wc = FK.create () and before = Table.probes t in
        let a = Option.map (fun x -> x.Table.value) (Table.lookup t key ~wc) in
        let probes = Table.probes t - before in
        let b, masks = Ref.lookup r key in
        let b = Option.map (fun x -> x.Ref.value) b in
        let wc' = FK.create () in
        List.iter (FK.or_mask wc') masks;
        let pp = function Some v -> string_of_int v | None -> "miss" in
        if a <> b then fail "%s: rule %s vs %s" what (pp a) (pp b);
        if probes <> List.length masks then
          fail "%s: %d probes vs %d" what probes (List.length masks);
        if not (FK.equal wc wc') then fail "%s: probed masks differ" what);
    if Table.rule_count t <> Ref.rule_count r then
      fail "%s: %d rules vs %d" what (Table.rule_count t) (Ref.rule_count r);
    if table_rules t <> ref_rules r then fail "%s: rules or hits differ" what
  in
  List.iteri step ops;
  true

(* The default count keeps tier-1 quick; [make table-equiv] runs the
   property in QCheck's long mode at 100,000 cases. *)
let table_equivalence_count = 300

let prop_table_reference_equivalence =
  QCheck.Test.make ~count:table_equivalence_count
    ~long_factor:(100_000 / table_equivalence_count)
    ~name:"subtable-core table == list-bucket reference" arb_tops run_table_equivalence

(* -- Parser -- *)

let test_parser_basic_flow () =
  let f =
    Parser.parse_flow
      "table=2, priority=100, in_port=3, tcp, nw_src=10.0.0.0/8, tp_dst=443, \
       actions=output:7"
  in
  check Alcotest.int "table" 2 f.Parser.table;
  check Alcotest.int "priority" 100 f.Parser.priority;
  Alcotest.(check bool) "match works" true
    (let k = key ~in_port:3 ~dst_port:443 () in
     Match_.matches f.Parser.match_ k);
  match f.Parser.actions with
  | [ Action.Output 7 ] -> ()
  | _ -> Alcotest.fail "actions"

let test_parser_protocol_shorthands () =
  let f = Parser.parse_flow "udp actions=drop" in
  check Alcotest.int "dl_type set" Ovs_packet.Ethernet.Ethertype.ipv4
    (FK.get f.Parser.match_.Match_.key FK.Field.Dl_type);
  check Alcotest.int "proto udp" Ovs_packet.Ipv4.Proto.udp
    (FK.get f.Parser.match_.Match_.key FK.Field.Nw_proto)

let test_parser_ct_state () =
  let f = Parser.parse_flow "ct_state=+trk+est-new actions=drop" in
  let v = FK.get f.Parser.match_.Match_.key FK.Field.Ct_state in
  let m = FK.get f.Parser.match_.Match_.mask FK.Field.Ct_state in
  Alcotest.(check bool) "trk in value" true (v land FK.Ct_state_bits.trk <> 0);
  Alcotest.(check bool) "est in value" true (v land FK.Ct_state_bits.est <> 0);
  Alcotest.(check bool) "new not in value" true (v land FK.Ct_state_bits.new_ = 0);
  Alcotest.(check bool) "new in mask" true (m land FK.Ct_state_bits.new_ <> 0)

let test_parser_ct_action () =
  let f = Parser.parse_flow "tcp actions=ct(commit,zone=5,table=3),output:1" in
  match f.Parser.actions with
  | [ Action.Ct { zone = 5; commit = true; table = Some 3; nat = None }; Action.Output 1 ] -> ()
  | _ -> Alcotest.fail "ct action parse"

let test_parser_ct_nat () =
  let f = Parser.parse_flow "tcp actions=ct(commit,zone=2,nat(src=1.2.3.4:99))" in
  match f.Parser.actions with
  | [ Action.Ct { nat = Some { Action.snat = Some (ip, 99); dnat = None }; _ } ] ->
      check Alcotest.int "nat ip" (Ovs_packet.Ipv4.addr_of_string "1.2.3.4") ip
  | _ -> Alcotest.fail "nat parse"

let test_parser_set_field () =
  let f = Parser.parse_flow "ip actions=set_field:aa:bb:cc:dd:ee:ff->dl_dst,normal" in
  match f.Parser.actions with
  | [ Action.Set_field (FK.Field.Dl_dst, v); Action.Normal ] ->
      check Alcotest.string "mac value" "aa:bb:cc:dd:ee:ff" (Ovs_packet.Mac.to_string v)
  | _ -> Alcotest.fail "set_field parse"

let test_parser_tunnel_push () =
  let f =
    Parser.parse_flow
      "ip actions=geneve_push(vni=77,remote=9.9.9.9,local=8.8.8.8,remote_mac=02:00:00:00:00:01,local_mac=02:00:00:00:00:02,out=4)"
  in
  match f.Parser.actions with
  | [ Action.Tunnel_push ts ] ->
      check Alcotest.int "vni" 77 ts.Action.vni;
      check Alcotest.int "remote" (Ovs_packet.Ipv4.addr_of_string "9.9.9.9") ts.Action.remote_ip;
      check Alcotest.int "out port" 4 ts.Action.out_port;
      Alcotest.(check bool) "geneve" true (ts.Action.tnl_kind = Ovs_packet.Tunnel.Geneve)
  | _ -> Alcotest.fail "tunnel_push parse"

let test_parser_misc_actions () =
  let f =
    Parser.parse_flow
      "ip actions=push_vlan:7,pop_vlan,goto_table:9,meter:2,controller,flood,tnl_pop:5"
  in
  match f.Parser.actions with
  | [ Action.Push_vlan 7; Action.Pop_vlan; Action.Goto_table 9; Action.Meter 2;
      Action.Controller; Action.Flood; Action.Tunnel_pop 5 ] -> ()
  | _ -> Alcotest.fail "misc actions"

let test_parser_reg_fields () =
  let f = Parser.parse_flow "reg3=9 actions=set_field:4->reg5,drop" in
  check Alcotest.int "reg3 match" 9 (FK.get f.Parser.match_.Match_.key FK.Field.Reg3);
  match f.Parser.actions with
  | [ Action.Set_field (FK.Field.Reg5, 4); Action.Drop ] -> ()
  | _ -> Alcotest.fail "reg set_field"

let test_parser_rejects_garbage () =
  Alcotest.(check bool) "bad field" true
    (try ignore (Parser.parse_flow "frobnicate=3 actions=drop"); false
     with Parser.Parse_error _ -> true);
  Alcotest.(check bool) "bad action" true
    (try ignore (Parser.parse_flow "ip actions=explode"); false
     with Parser.Parse_error _ -> true);
  Alcotest.(check bool) "missing actions" true
    (try ignore (Parser.parse_flow "ip,tp_dst=80"); false
     with Parser.Parse_error _ -> true)

(* -- Pipeline translation -- *)

let test_pipeline_goto_chain () =
  let p = Pipeline.create ~n_tables:4 () in
  ignore
    (Parser.install_flows p
       [
         "table=0,priority=10,in_port=1 actions=goto_table:1";
         "table=1,priority=10,tcp actions=output:5";
       ]);
  let r = Pipeline.translate p (key ~in_port:1 ()) in
  (match r.Pipeline.odp_actions with
  | [ Action.Odp_output 5 ] -> ()
  | _ -> Alcotest.fail "goto chain");
  check Alcotest.int "two tables visited" 2 r.Pipeline.tables_visited

let test_pipeline_miss_drops () =
  let p = Pipeline.create ~n_tables:2 () in
  let r = Pipeline.translate p (key ()) in
  check Alcotest.int "no actions on miss" 0 (List.length r.Pipeline.odp_actions)

let test_pipeline_megaflow_mask_accumulates () =
  let p = Pipeline.create ~n_tables:4 () in
  ignore
    (Parser.install_flows p
       [
         "table=0,priority=10,in_port=1 actions=goto_table:1";
         "table=1,priority=10,tp_dst=80 actions=output:2";
       ]);
  let r = Pipeline.translate p (key ~in_port:1 ~dst_port:80 ()) in
  let m = r.Pipeline.megaflow_mask in
  Alcotest.(check bool) "in_port unwildcarded" true (FK.get m FK.Field.In_port <> 0);
  Alcotest.(check bool) "tp_dst unwildcarded" true (FK.get m FK.Field.Tp_dst <> 0);
  (* a field no table looked at stays wildcarded: megaflows stay wide *)
  Alcotest.(check bool) "tp_src wildcarded" true (FK.get m FK.Field.Tp_src = 0)

let test_pipeline_set_field_affects_later_match () =
  let p = Pipeline.create ~n_tables:4 () in
  ignore
    (Parser.install_flows p
       [
         "table=0,priority=10 actions=set_field:7->reg0,goto_table:1";
         "table=1,priority=10,reg0=7 actions=output:3";
         "table=1,priority=5 actions=drop";
       ]);
  let r = Pipeline.translate p (key ()) in
  match List.rev r.Pipeline.odp_actions with
  | Action.Odp_output 3 :: _ -> ()
  | _ -> Alcotest.fail "register set before later table match"

let test_pipeline_ct_is_terminal_with_recirc () =
  let p = Pipeline.create ~n_tables:6 () in
  ignore
    (Parser.install_flows p
       [
         "table=0,priority=10,ip actions=ct(zone=4,table=2),output:9";
         "table=2,priority=10 actions=output:1";
       ]);
  let r = Pipeline.translate p (key ()) in
  (* translation stops at ct-with-table; output:9 is unreachable until the
     packet recirculates *)
  match r.Pipeline.odp_actions with
  | [ Action.Odp_ct { zone = 4; resume_table = 2; _ } ] -> ()
  | acts ->
      Alcotest.failf "expected lone ct, got %d actions" (List.length acts)

let test_pipeline_ct_without_table_continues () =
  let p = Pipeline.create ~n_tables:2 () in
  ignore
    (Parser.install_flows p [ "table=0,priority=10,ip actions=ct(commit,zone=4),output:9" ]);
  let r = Pipeline.translate p (key ()) in
  match r.Pipeline.odp_actions with
  | [ Action.Odp_ct { resume_table = -1; _ }; Action.Odp_output 9 ] -> ()
  | _ -> Alcotest.fail "ct-without-table should continue"

let test_pipeline_normal_learning () =
  let p = Pipeline.create ~n_tables:1 () in
  Pipeline.set_ports p [ 1; 2; 3 ];
  ignore (Parser.install_flows p [ "table=0,priority=1 actions=normal" ]);
  (* first packet from A on port 1: unknown dst, floods to 2 and 3 *)
  let ka = key ~in_port:1 () in
  let r1 = Pipeline.translate p ka in
  check Alcotest.int "flooded" 2 (List.length r1.Pipeline.odp_actions);
  (* a packet from B on port 2 towards A: A's MAC was learned on port 1 *)
  let kb = FK.create () in
  FK.set kb FK.Field.In_port 2;
  FK.set kb FK.Field.Dl_src (FK.get ka FK.Field.Dl_dst);
  FK.set kb FK.Field.Dl_dst (FK.get ka FK.Field.Dl_src);
  FK.set kb FK.Field.Dl_type Ovs_packet.Ethernet.Ethertype.ipv4;
  let r2 = Pipeline.translate p kb in
  (match r2.Pipeline.odp_actions with
  | [ Action.Odp_output 1 ] -> ()
  | _ -> Alcotest.fail "should be unicast to the learned port");
  (* NORMAL unwildcards the MACs in the megaflow *)
  Alcotest.(check bool) "dl_dst unwildcarded" true
    (FK.get r2.Pipeline.megaflow_mask FK.Field.Dl_dst <> 0)

let test_pipeline_no_backward_goto () =
  let p = Pipeline.create ~n_tables:4 () in
  ignore
    (Parser.install_flows p
       [ "table=2,priority=1 actions=goto_table:1"; "table=1,priority=1 actions=output:1" ]);
  let k = key () in
  FK.set k FK.Field.Recirc_id 2;  (* start at table 2 *)
  let r = Pipeline.translate p k in
  (* backward goto must drop, not loop *)
  match r.Pipeline.odp_actions with
  | [ Action.Odp_drop ] -> ()
  | _ -> Alcotest.fail "backward goto should drop"

let test_pipeline_tunnel_pop_terminal () =
  let p = Pipeline.create ~n_tables:4 () in
  ignore (Parser.install_flows p [ "table=0,priority=1,udp,tp_dst=6081 actions=tnl_pop:2" ]);
  let pkt = B.udp ~dst_port:6081 () in
  pkt.Ovs_packet.Buffer.in_port <- 0;
  let r = Pipeline.translate p (FK.extract pkt) in
  match r.Pipeline.odp_actions with
  | [ Action.Odp_tnl_pop 2 ] -> ()
  | _ -> Alcotest.fail "tnl_pop emission"

let test_pipeline_flow_count_and_tables () =
  let p = Pipeline.create ~n_tables:8 () in
  ignore
    (Parser.install_flows p
       [
         "table=0,priority=1 actions=drop"; "table=3,priority=1 actions=drop";
         "# a comment"; "";
       ]);
  check Alcotest.int "flows" 2 (Pipeline.flow_count p);
  check Alcotest.int "tables used" 2 (Pipeline.tables_used p)

(* -- OpenFlow wire codec -- *)

let roundtrip ?(xid = 42) m =
  let b = Ofp_codec.encode ~xid m in
  let m', xid', consumed = Ofp_codec.decode b in
  check Alcotest.int "whole message consumed" (Bytes.length b) consumed;
  check Alcotest.int "xid preserved" xid xid';
  m'

let test_ofp_hello_echo () =
  (match roundtrip Ofp_codec.Hello with
  | Ofp_codec.Hello -> ()
  | _ -> Alcotest.fail "hello");
  match roundtrip (Ofp_codec.Echo_request (Bytes.of_string "ping")) with
  | Ofp_codec.Echo_request p -> check Alcotest.bytes "payload" (Bytes.of_string "ping") p
  | _ -> Alcotest.fail "echo"

let test_ofp_features () =
  match roundtrip (Ofp_codec.Features_reply { datapath_id = 0xABCDL; n_tables = 40 }) with
  | Ofp_codec.Features_reply { datapath_id = 0xABCDL; n_tables = 40 } -> ()
  | _ -> Alcotest.fail "features roundtrip"

let sample_match () =
  Match_.catchall ()
  |> (fun m -> Match_.with_field m FK.Field.In_port 3)
  |> (fun m -> Match_.with_field m FK.Field.Dl_type 0x0800)
  |> (fun m -> Match_.with_field m FK.Field.Nw_proto 6)
  |> (fun m -> Match_.with_prefix m FK.Field.Nw_src (Ovs_packet.Ipv4.addr_of_string "10.0.0.0") 8)
  |> (fun m -> Match_.with_field m FK.Field.Tp_dst 443)
  |> (fun m -> Match_.with_field m FK.Field.Ct_zone 7)
  |> fun m -> Match_.with_field m FK.Field.Reg3 99

let match_equal a b =
  FK.equal a.Match_.key b.Match_.key && FK.equal a.Match_.mask b.Match_.mask

let test_ofp_flow_mod_roundtrip () =
  let actions =
    [ Action.Set_field (FK.Field.Reg0, 5); Action.Output 9; Action.Meter 2;
      Action.Goto_table 7 ]
  in
  let fm =
    Ofp_codec.Flow_mod
      { command = `Add; table_id = 4; priority = 1234; cookie = 77;
        match_ = sample_match (); actions }
  in
  match roundtrip fm with
  | Ofp_codec.Flow_mod { command = `Add; table_id = 4; priority = 1234; cookie = 77;
                         match_; actions = actions' } ->
      Alcotest.(check bool) "match" true (match_equal (sample_match ()) match_);
      (* meter and goto are reconstructed around the apply-actions *)
      Alcotest.(check bool) "actions equivalent" true
        (List.sort compare actions = List.sort compare actions')
  | _ -> Alcotest.fail "flow_mod roundtrip"

let test_ofp_ct_and_tunnel_actions () =
  let ts =
    { Action.tnl_kind = Ovs_packet.Tunnel.Geneve; vni = 71; remote_ip = 99;
      local_ip = 98; remote_mac = Ovs_packet.Mac.of_index 1;
      local_mac = Ovs_packet.Mac.of_index 2; out_port = 3 }
  in
  let actions =
    [ Action.Ct { zone = 9; commit = true;
                  nat = Some { Action.snat = Some (0x01020304, 99); dnat = None };
                  table = Some 5 };
      Action.Tunnel_push ts; Action.Tunnel_pop 2; Action.Normal ]
  in
  let fm =
    Ofp_codec.Flow_mod
      { command = `Add; table_id = 0; priority = 1; cookie = 0;
        match_ = Match_.catchall (); actions }
  in
  match roundtrip fm with
  | Ofp_codec.Flow_mod { actions = actions'; _ } ->
      Alcotest.(check bool) "nicira extension actions survive" true (actions = actions')
  | _ -> Alcotest.fail "roundtrip"

let test_ofp_packet_in_out () =
  let data = Ovs_packet.Buffer.contents (B.udp ()) in
  (match
     roundtrip
       (Ofp_codec.Packet_in { total_len = 64; reason = 1; table_id = 3; in_port = 7; data })
   with
  | Ofp_codec.Packet_in { in_port = 7; table_id = 3; data = d; _ } ->
      check Alcotest.bytes "payload" data d
  | _ -> Alcotest.fail "packet_in");
  match
    roundtrip (Ofp_codec.Packet_out { in_port = 2; actions = [ Action.Output 5 ]; data })
  with
  | Ofp_codec.Packet_out { in_port = 2; actions = [ Action.Output 5 ]; data = d } ->
      check Alcotest.bytes "payload" data d
  | _ -> Alcotest.fail "packet_out"

let test_ofp_rejects_garbage () =
  Alcotest.(check bool) "short buffer" true
    (try ignore (Ofp_codec.decode (Bytes.make 4 'x')); false
     with Ofp_codec.Decode_error _ -> true);
  let b = Ofp_codec.encode Ofp_codec.Hello in
  Bytes.set_uint8 b 0 0x01;  (* wrong version *)
  Alcotest.(check bool) "wrong version" true
    (try ignore (Ofp_codec.decode b); false with Ofp_codec.Decode_error _ -> true)

let prop_ofp_match_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random matches survive the wire"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 11) in
      let m = Match_.catchall () in
      Array.iter
        (fun f ->
          if Ovs_sim.Prng.int prng 3 = 0 then
            ignore
              (Match_.with_field m f
                 (Ovs_sim.Prng.int prng (Int.min 65_535 (FK.Field.full_mask f) + 1))))
        FK.Field.all;
      (* tp ports only make sense with a protocol on the wire *)
      let fm =
        Ofp_codec.Flow_mod
          { command = `Add; table_id = 0; priority = 1; cookie = 0; match_ = m;
            actions = [] }
      in
      match Ofp_codec.decode (Ofp_codec.encode fm) with
      | Ofp_codec.Flow_mod { match_ = m'; _ }, _, _ -> match_equal m m'
      | _ -> false)

let test_ofconn_session () =
  let p = Pipeline.create ~n_tables:8 () in
  let conn = Ofconn.create ~pipeline:p () in
  (* hello *)
  let reply = Ofconn.feed conn (Ofp_codec.encode ~xid:1 Ofp_codec.Hello) in
  (match Ofp_codec.decode reply with
  | Ofp_codec.Hello, 1, _ -> ()
  | _ -> Alcotest.fail "hello reply");
  Alcotest.(check bool) "handshaken" true conn.Ofconn.hello_received;
  (* install a rule over the wire, then check the pipeline behaves *)
  let m = Match_.with_field (Match_.catchall ()) FK.Field.In_port 1 in
  let fm =
    Ofp_codec.Flow_mod
      { command = `Add; table_id = 0; priority = 5; cookie = 0; match_ = m;
        actions = [ Action.Output 2 ] }
  in
  ignore (Ofconn.feed conn (Ofp_codec.encode ~xid:2 fm));
  check Alcotest.int "rule installed" 1 (Pipeline.flow_count p);
  let r = Pipeline.translate p (key ~in_port:1 ()) in
  (match r.Pipeline.odp_actions with
  | [ Action.Odp_output 2 ] -> ()
  | _ -> Alcotest.fail "wire-installed rule translates");
  (* flow stats over the wire *)
  let reply =
    Ofconn.feed conn (Ofp_codec.encode ~xid:3 (Ofp_codec.Flow_stats_request { table_id = 0 }))
  in
  (match Ofp_codec.decode reply with
  | Ofp_codec.Flow_stats_reply [ (0, 5, hits) ], 3, _ ->
      check Alcotest.int "one translation counted" 1 hits
  | _ -> Alcotest.fail "flow stats");
  (* delete over the wire *)
  let del =
    Ofp_codec.Flow_mod
      { command = `Delete; table_id = 0; priority = 0; cookie = 0; match_ = m;
        actions = [] }
  in
  ignore (Ofconn.feed conn (Ofp_codec.encode ~xid:4 del));
  check Alcotest.int "rule deleted" 0 (Pipeline.flow_count p);
  (* garbage produces an error message, not a crash *)
  let err = Ofconn.feed conn (Bytes.make 12 '\xFF') in
  match Ofp_codec.decode err with
  | Ofp_codec.Error _, _, _ -> ()
  | _ -> Alcotest.fail "error reply expected"

(* -- the flow-key field contract -- *)

let ipv6_fields =
  FK.Field.[ Ip6_src_hi; Ip6_src_mid; Ip6_src_lo; Ip6_dst_hi; Ip6_dst_mid; Ip6_dst_lo ]

(* Each IPv6 address word parses by name to a mask on that word alone. *)
let test_field_ipv6_names_parse () =
  List.iter
    (fun f ->
      let name = FK.Field.name f in
      let f' = Parser.parse_flow (Printf.sprintf "%s=1 actions=drop" name) in
      let m = f'.Parser.match_ in
      Alcotest.(check (list string)) (name ^ " masks one word") [ name ]
        (List.map FK.Field.name (Match_.used_fields m));
      check Alcotest.int (name ^ " mask is the full width") (FK.Field.full_mask f)
        (FK.get m.Match_.mask f))
    ipv6_fields

(* IPv4 traffic leaves the IPv6 words 0, so the NSX ruleset's IPv6 guard
   matches it. *)
let prop_ipv4_matches_ipv6_zero =
  let guard =
    (Parser.parse_flow "ipv6_src_hi=0,ipv6_dst_hi=0,ipv6_src_lo=0 actions=drop")
      .Parser.match_
  in
  QCheck.Test.make ~count:500 ~name:"every IPv4 key matches the IPv6-zero guard"
    QCheck.(quad int int (int_bound 0xFFFF) (int_bound 2))
    (fun (src, dst, port, kind) ->
      let src_ip = src land 0xFFFF_FFFF and dst_ip = dst land 0xFFFF_FFFF in
      let pkt =
        match kind with
        | 0 -> B.udp ~src_ip ~dst_ip ~src_port:port ()
        | 1 -> B.tcp ~src_ip ~dst_ip ~dst_port:port ()
        | _ -> B.icmp ~src_ip ~dst_ip ()
      in
      Match_.matches guard (FK.extract pkt))

(* The middle IPv6 words cross the OXM codec like every other field. *)
let test_field_ipv6_mid_oxm () =
  List.iter
    (fun f ->
      let m = Match_.with_field (Match_.catchall ()) f 0xA in
      match
        roundtrip
          (Ofp_codec.Flow_mod
             { command = `Add; table_id = 0; priority = 1; cookie = 0; match_ = m;
               actions = [] })
      with
      | Ofp_codec.Flow_mod { match_; _ } ->
          Alcotest.(check bool) (FK.Field.name f ^ " round-trips") true (match_equal m match_)
      | _ -> Alcotest.fail "flow_mod roundtrip")
    FK.Field.[ Ip6_src_mid; Ip6_dst_mid ]

(* Every field that existed before the IPv6 middle words keeps its index,
   which is its OXM experimenter number. *)
let test_field_indices_pinned () =
  let pinned =
    [ "in_port"; "recirc_id"; "dl_src"; "dl_dst"; "dl_type"; "vlan_tci"; "nw_src";
      "nw_dst"; "nw_proto"; "nw_tos"; "nw_ttl"; "nw_frag"; "tp_src"; "tp_dst";
      "tcp_flags"; "tun_id"; "tun_src"; "tun_dst"; "ct_state"; "ct_zone"; "ct_mark";
      "ipv6_src_hi"; "ipv6_src_lo"; "ipv6_dst_hi"; "ipv6_dst_lo"; "reg0"; "reg1";
      "reg2"; "reg3"; "reg4"; "reg5"; "reg6"; "reg7" ]
  in
  List.iteri
    (fun i name ->
      match FK.Field.of_name name with
      | Some f -> check Alcotest.int name i (FK.Field.to_index f)
      | None -> Alcotest.failf "%s does not parse" name)
    pinned

let () =
  Alcotest.run "ovs_ofproto"
    [
      ( "match",
        [
          Alcotest.test_case "exact field" `Quick test_match_exact_field;
          Alcotest.test_case "catchall" `Quick test_match_catchall;
          Alcotest.test_case "cidr prefix" `Quick test_match_cidr_prefix;
          Alcotest.test_case "fields used" `Quick test_match_fields_used;
        ] );
      ( "table",
        [
          Alcotest.test_case "priority wins" `Quick test_table_priority_wins;
          Alcotest.test_case "priority across subtables" `Quick
            test_table_priority_across_subtables;
          Alcotest.test_case "remove where" `Quick test_table_remove_where;
          Alcotest.test_case "miss" `Quick test_table_miss;
          Alcotest.test_case "tie order" `Quick test_table_tie_order;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_table_vs_linear_oracle ] );
      ("equivalence", List.map QCheck_alcotest.to_alcotest [ prop_table_reference_equivalence ]);
      ( "parser",
        [
          Alcotest.test_case "basic flow" `Quick test_parser_basic_flow;
          Alcotest.test_case "protocol shorthands" `Quick test_parser_protocol_shorthands;
          Alcotest.test_case "ct_state" `Quick test_parser_ct_state;
          Alcotest.test_case "ct action" `Quick test_parser_ct_action;
          Alcotest.test_case "ct nat" `Quick test_parser_ct_nat;
          Alcotest.test_case "set_field" `Quick test_parser_set_field;
          Alcotest.test_case "tunnel push" `Quick test_parser_tunnel_push;
          Alcotest.test_case "misc actions" `Quick test_parser_misc_actions;
          Alcotest.test_case "register fields" `Quick test_parser_reg_fields;
          Alcotest.test_case "rejects garbage" `Quick test_parser_rejects_garbage;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "goto chain" `Quick test_pipeline_goto_chain;
          Alcotest.test_case "miss drops" `Quick test_pipeline_miss_drops;
          Alcotest.test_case "megaflow mask accumulates" `Quick
            test_pipeline_megaflow_mask_accumulates;
          Alcotest.test_case "set_field affects later match" `Quick
            test_pipeline_set_field_affects_later_match;
          Alcotest.test_case "ct terminal with recirc" `Quick
            test_pipeline_ct_is_terminal_with_recirc;
          Alcotest.test_case "ct without table continues" `Quick
            test_pipeline_ct_without_table_continues;
          Alcotest.test_case "NORMAL learning" `Quick test_pipeline_normal_learning;
          Alcotest.test_case "no backward goto" `Quick test_pipeline_no_backward_goto;
          Alcotest.test_case "tnl_pop terminal" `Quick test_pipeline_tunnel_pop_terminal;
          Alcotest.test_case "flow count and tables" `Quick
            test_pipeline_flow_count_and_tables;
        ] );
      ( "wire",
        [
          Alcotest.test_case "hello/echo" `Quick test_ofp_hello_echo;
          Alcotest.test_case "features" `Quick test_ofp_features;
          Alcotest.test_case "flow_mod roundtrip" `Quick test_ofp_flow_mod_roundtrip;
          Alcotest.test_case "ct/tunnel extension actions" `Quick
            test_ofp_ct_and_tunnel_actions;
          Alcotest.test_case "packet in/out" `Quick test_ofp_packet_in_out;
          Alcotest.test_case "rejects garbage" `Quick test_ofp_rejects_garbage;
          Alcotest.test_case "switch session" `Quick test_ofconn_session;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_ofp_match_roundtrip ] );
      ( "field contract",
        [
          Alcotest.test_case "ipv6 names parse to one word" `Quick
            test_field_ipv6_names_parse;
          Alcotest.test_case "ipv6 middle words cross OXM" `Quick test_field_ipv6_mid_oxm;
          Alcotest.test_case "field indices pinned" `Quick test_field_indices_pinned;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_ipv4_matches_ipv6_zero ] );
    ]
