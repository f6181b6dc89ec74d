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
    Printf.printf "%s: %.2f words (budget %.0f)\n" name words limit;
    if words > limit then
      Alcotest.failf "%s allocates %.2f words, over its budget of %.0f" name words
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

let () =
  Alcotest.run "alloc"
    [
      ( "budgets",
        [
          Alcotest.test_case "extract_into ipv4/udp" `Quick test_extract_into;
          Alcotest.test_case "emc hit" `Quick test_emc_hit;
          Alcotest.test_case "vm xsk_default" `Quick test_vm_xsk_default;
          Alcotest.test_case "warm p2p engine step" `Quick test_engine_step_p2p;
        ] );
    ]
