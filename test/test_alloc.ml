(* Allocation budgets for the userspace fast path, in minor-heap words.

   The AF_XDP EMC-hit path is meant to be cheap in real time as well as
   in charged time, and allocation is the part of real time a test can
   pin exactly. Each budget is measured as a [Gc.minor_words] delta
   around many repetitions of a warm operation. Bytecode boxes values
   the native compiler keeps unboxed, so the budgets are checked only on
   native code. *)

module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build
module Scenario = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen

let native = Sys.backend_type = Sys.Native

(* Mean words allocated per call of [f], over [n] calls after a warm-up
   call. *)
let words_per_call ?(n = 1000) f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let budget name ~limit words =
  if native then begin
    Printf.printf "%s: %.2f words (budget %g)\n" name words limit;
    if words > limit then
      Alcotest.failf "%s allocates %.2f words, over its budget of %g" name words
        limit
  end

let test_extract_into () =
  let pkt = B.udp () in
  let key = FK.create () in
  budget "extract_into ipv4/udp" ~limit:0.
    (words_per_call (fun () -> FK.extract_into key pkt))

let test_emc_hit () =
  let emc = Ovs_flow.Emc.create () in
  let key = FK.extract (B.udp ()) in
  Ovs_flow.Emc.insert emc key [ 1 ];
  let probe = FK.copy key in
  budget "Emc.lookup hit" ~limit:0.
    (words_per_call (fun () -> ignore (Ovs_flow.Emc.lookup emc probe : int list option)))

module Dpcls = Ovs_flow.Dpcls

(* A classifier with three subtables of 100 megaflows each, keyed on
   in_port, nw_src and tp_src and probed in the reverse order. *)
let dpcls_fixture () =
  let t = Dpcls.create () in
  let mask f =
    let m = FK.create () in
    FK.set m f (FK.Field.full_mask f);
    m
  in
  List.iter
    (fun f ->
      for i = 1 to 100 do
        let k = FK.create () in
        FK.set k f i;
        Dpcls.insert t ~mask:(mask f) ~key:k [ i ]
      done)
    FK.Field.[ In_port; Nw_src; Tp_src ];
  t

(* A hit allocates only its result, [Some (entry, probes, mask)]: 6
   words. The probe key matches in the last subtable probed, so two
   subtables miss first. *)
let test_dpcls_hit () =
  let t = dpcls_fixture () in
  let key = FK.create () in
  FK.set key FK.Field.In_port 7;
  let probes () =
    match Dpcls.lookup_entry t key with Some (_, n, _) -> n | None -> 0
  in
  Alcotest.(check int) "hit in the last subtable" 3 (probes ());
  budget "Dpcls.lookup_entry hit" ~limit:6.
    (words_per_call (fun () -> ignore (Dpcls.lookup_entry t key : (int list Dpcls.entry * int * FK.t) option)))

let test_dpcls_miss () =
  let t = dpcls_fixture () in
  let key = FK.create () in
  FK.set key FK.Field.In_port 1000;
  Alcotest.(check bool) "misses" true (Dpcls.lookup_entry t key = None);
  budget "Dpcls.lookup_entry miss, all subtables" ~limit:0.
    (words_per_call (fun () -> ignore (Dpcls.lookup_entry t key : (int list Dpcls.entry * int * FK.t) option)))

(* [Some (value, mask)]: 5 words. *)
let test_dpcls_peek () =
  let t = dpcls_fixture () in
  let key = FK.create () in
  FK.set key FK.Field.Tp_src 9;
  Alcotest.(check bool) "hits" true (Dpcls.peek t key <> None);
  budget "Dpcls.peek hit" ~limit:5.
    (words_per_call (fun () -> ignore (Dpcls.peek t key : (int list * FK.t) option)))

module Pipeline = Ovs_ofproto.Pipeline
module Match_ = Ovs_ofproto.Match_
module Action = Ovs_ofproto.Action

(* A three-table pipeline whose middle table has two subtables that tie
   on max priority: the key misses the newer and matches the older, so a
   translate probes five subtables over three tables. *)
let translate_fixture () =
  let p = Pipeline.create ~n_tables:3 () in
  let m f v = Match_.with_field (Match_.catchall ()) f v in
  Pipeline.add_flow p ~table:0 ~priority:20 (m FK.Field.In_port 99) [ Action.Drop ];
  Pipeline.add_flow p ~table:0 ~priority:10 (Match_.catchall ()) [ Action.Goto_table 1 ];
  Pipeline.add_flow p ~table:1 ~priority:10 (m FK.Field.In_port 1) [ Action.Goto_table 2 ];
  Pipeline.add_flow p ~table:1 ~priority:10 (m FK.Field.Tp_dst 80) [ Action.Drop ];
  Pipeline.add_flow p ~table:2 ~priority:5
    (Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_src 0x0a000000 8)
    [ Action.Output 2 ];
  Pipeline.add_flow p ~table:2 ~priority:0 (Match_.catchall ()) [ Action.Drop ];
  p

(* A warm translate: 113 words, most of them the key and mask copies
   (36 each); the rest are the walk's closures and refs, one [Some] per
   better match, the datapath actions and the result. *)
let test_translate () =
  let p = translate_fixture () in
  let key = FK.extract (B.udp ~src_ip:0x0a000001 ~dst_port:22 ()) in
  FK.set key FK.Field.In_port 1;
  let r = Pipeline.translate p key in
  Alcotest.(check bool) "reaches table 2's output" true
    (r.Pipeline.tables_visited = 3 && r.Pipeline.odp_actions = [ Action.Odp_output 2 ]);
  budget "Pipeline.translate, 3 tables" ~limit:113.
    (words_per_call (fun () -> ignore (Pipeline.translate p key : Pipeline.result)))

let test_smc_hit () =
  let smc = Ovs_flow.Smc.create () in
  let key = FK.extract (B.udp ()) in
  let mask = FK.create () in
  FK.set mask FK.Field.Nw_src (FK.Field.full_mask FK.Field.Nw_src);
  Ovs_flow.Smc.insert smc key ~mask [ 1 ];
  Alcotest.(check bool) "hits" true (Ovs_flow.Smc.lookup smc key <> None);
  budget "Smc.lookup hit" ~limit:0.
    (words_per_call (fun () -> ignore (Ovs_flow.Smc.lookup smc key : int list option)))

(* The XDP hook's interpreter on the AF_XDP datapath's redirect program.
   The ceiling covers the [outcome] and its [Redirect] action, the boxed
   map key, and the map's [Some] answer. *)
let vm_xsk_default_ceiling = 12.

let test_vm_xsk_default () =
  let open Ovs_ebpf in
  let xskmap = Maps.create ~name:"alloc_xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let prog = Progs.xsk_default ~xskmap in
  let vm = Vm.create () in
  let pkt = B.udp () in
  budget "Vm.run xsk_default" ~limit:vm_xsk_default_ceiling
    (words_per_call (fun () -> ignore (Vm.run vm prog pkt : Vm.outcome)))

(* A warm P2P AF_XDP rig, one PMD, every flow EMC-resident: words per
   packet of one engine step over a 32-packet burst (the rx enqueue of
   the burst included), the p2p-emc benchmark's path. *)
let test_engine_step_p2p () =
  let cfg =
    Scenario.config ~kind:(Ovs_datapath.Dpif.Afxdp Ovs_datapath.Dpif.afxdp_default)
      ~topology:Scenario.P2P ~n_flows:64 ~frame_len:64 ~n_pmds:1 ~warmup:0
      ~measure:0 ()
  in
  let r = Scenario.setup cfg in
  let gen = Pktgen.create ~seed:1 ~n_flows:64 ~frame_len:64 () in
  let burst = 32 in
  let pkts = Array.make burst gen.Pktgen.templates.(0) in
  let fire () =
    for i = 0 to burst - 1 do
      ignore (Ovs_netdev.Netdev.rss_enqueue r.Scenario.r_phy0 pkts.(i) : bool)
    done;
    ignore (Ovs_datapath.Engine_vt.step r.Scenario.r_eng : int)
  in
  let next () = Array.iteri (fun i _ -> pkts.(i) <- Pktgen.next gen) pkts in
  for _ = 1 to 200 do
    next ();
    fire ()
  done;
  let words = ref 0. and rounds = 200 in
  for _ = 1 to rounds do
    next ();
    let w0 = Gc.minor_words () in
    fire ();
    words := !words +. (Gc.minor_words () -. w0)
  done;
  let c = Ovs_datapath.Dpif.counters r.Scenario.r_dp in
  Alcotest.(check bool) "every flow EMC-resident" true
    (c.Ovs_datapath.Dp_core.emc_hits > 0 && c.Ovs_datapath.Dp_core.dropped = 0);
  budget "Engine_vt.step P2P (per packet)" ~limit:192.
    (!words /. float_of_int (rounds * burst))

module Ct = Ovs_conntrack.Conntrack

(* A conntrack hit on an established connection: the verdict record is
   all it may allocate. *)
let test_ct_track_hit () =
  let ct = Ct.create ~shards:8 () in
  let udp = FK.extract (B.udp ~src_port:1234 ~dst_port:5678 ()) in
  let src_ip = FK.get udp FK.Field.Nw_dst and dst_ip = FK.get udp FK.Field.Nw_src in
  let udp_reply = FK.extract (B.udp ~src_ip ~dst_ip ~src_port:5678 ~dst_port:1234 ()) in
  ignore (Ct.commit ct ~now:0. ~zone:1 udp : Ct.conn option);
  ignore (Ct.track ct ~now:1. ~zone:1 udp_reply : Ct.verdict);
  budget "Conntrack.track hit, established UDP" ~limit:3.
    (words_per_call (fun () -> ignore (Ct.track ct ~now:2. ~zone:1 udp : Ct.verdict)));
  let open Ovs_packet.Tcp.Flags in
  let tcp ?(reply = false) flags =
    FK.extract
      (if reply then B.tcp ~src_ip ~dst_ip ~src_port:80 ~dst_port:40000 ~flags ()
       else B.tcp ~src_port:40000 ~dst_port:80 ~flags ())
  in
  ignore (Ct.commit ct ~now:0. ~zone:1 (tcp syn) : Ct.conn option);
  ignore (Ct.track ct ~now:1. ~zone:1 (tcp ~reply:true (syn lor ack)) : Ct.verdict);
  ignore (Ct.track ct ~now:1. ~zone:1 (tcp ack) : Ct.verdict);
  let ack_key = tcp ack in
  Alcotest.(check bool) "TCP established" true
    ((Ct.track ct ~now:2. ~zone:1 ack_key).Ct.ct_state land FK.Ct_state_bits.est <> 0);
  budget "Conntrack.track hit, established TCP" ~limit:3.
    (words_per_call (fun () -> ignore (Ct.track ct ~now:2. ~zone:1 ack_key : Ct.verdict)))

(* UDP flows 0..n-1 (by source port), committed at time 0. *)
let ct_flows ct ~base n =
  Array.init n (fun i ->
      let k = FK.extract (B.udp ~src_port:(base + i) ()) in
      ignore (Ct.commit ct ~now:0. ~zone:1 k : Ct.conn option);
      k)

let test_ct_sweep_nothing_expired () =
  let ct = Ct.create ~shards:8 () in
  ignore (ct_flows ct ~base:1000 2000 : FK.t array);
  budget "Conntrack.sweep_bounded, nothing expired" ~limit:0.
    (words_per_call (fun () -> ignore (Ct.sweep_bounded ct ~now:1. ~budget:500 : int)))

(* One connection's life on a warm table: commit, then the full sweep
   that reclaims it. The connection handle (3 words) and its [Some] (2)
   are all it allocates; the 0.05 covers the loop's own boxed time. *)
let test_ct_commit_sweep_cycle () =
  let ct = Ct.create ~shards:8 () in
  let n = 1000 in
  let keys = ct_flows ct ~base:1000 n in
  let now = ref 0. in
  let cycle () =
    now := !now +. Ovs_sim.Time.s 100.;
    ignore (Ct.sweep ct ~now:!now : int);
    Array.iter (fun k -> ignore (Ct.commit ct ~now:!now ~zone:1 k : Ct.conn option)) keys
  in
  budget "Conntrack commit + sweep (per connection)" ~limit:5.05
    (words_per_call ~n:20 cycle /. float_of_int n)

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [
          Alcotest.test_case "extract_into ipv4/udp" `Quick test_extract_into;
          Alcotest.test_case "emc hit" `Quick test_emc_hit;
          Alcotest.test_case "dpcls hit" `Quick test_dpcls_hit;
          Alcotest.test_case "dpcls miss" `Quick test_dpcls_miss;
          Alcotest.test_case "dpcls peek hit" `Quick test_dpcls_peek;
          Alcotest.test_case "smc hit" `Quick test_smc_hit;
          Alcotest.test_case "warm translate" `Quick test_translate;
          Alcotest.test_case "vm xsk_default" `Quick test_vm_xsk_default;
          Alcotest.test_case "warm p2p engine step" `Quick test_engine_step_p2p;
          Alcotest.test_case "conntrack track hit" `Quick test_ct_track_hit;
          Alcotest.test_case "conntrack sweep, nothing expired" `Quick
            test_ct_sweep_nothing_expired;
          Alcotest.test_case "conntrack commit + sweep" `Quick test_ct_commit_sweep_cycle;
        ] );
    ]
