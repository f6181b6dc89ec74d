(* Tests for the latency measurement subsystem: the RFC 2544 NDR binary
   search contract (termination, monotonicity, determinism, cliff
   pinning) on synthetic probes, timestamp conservation under fault
   injection (mangled and crash-killed packets must leak no samples into
   the sketch), and bit-reproducibility of the latency-armed virtual-time
   rig. *)

module Ndr = Ovs_trafficgen.Ndr
module Scenario = Ovs_trafficgen.Scenario
module Chaos = Ovs_trafficgen.Chaos
module Q = Ovs_sim.Quantiles
module Dpif = Ovs_datapath.Dpif

let check = Alcotest.check

(* -- NDR search on synthetic probes -- *)

(* a device with a hard loss cliff: loss-free at or below [cliff] pps,
   losing above it *)
let cliff_probe ?(n = 1_000) cliff calls rate =
  incr calls;
  { Ndr.offered = n; delivered = (if rate <= cliff then n else n - 7) }

let terminates_within_budget () =
  let calls = ref 0 in
  let o =
    Ndr.search ~iters:12 ~lo:1e5 ~hi:1e7
      ~probe:(cliff_probe 3.3e6 calls)
      ()
  in
  check Alcotest.int "probe calls = 2 brackets + 12 halvings" 14 !calls;
  check Alcotest.int "outcome reports every probe" 14 o.Ndr.iterations;
  check Alcotest.int "trail records every probe" 14
    (List.length o.Ndr.probes)

let monotone_vs_losing_probes () =
  let calls = ref 0 in
  let o =
    Ndr.search ~iters:12 ~lo:1e5 ~hi:1e7
      ~probe:(cliff_probe 3.3e6 calls)
      ()
  in
  (* the reported NDR is the highest rate probed loss-free, and sits
     strictly below every rate observed losing *)
  List.iter
    (fun (rate, ok) ->
      if ok && rate > o.Ndr.ndr_pps then
        Alcotest.failf "loss-free probe %.0f above reported NDR %.0f" rate
          o.Ndr.ndr_pps;
      if (not ok) && rate <= o.Ndr.ndr_pps then
        Alcotest.failf "losing probe %.0f at or below reported NDR %.0f" rate
          o.Ndr.ndr_pps)
    o.Ndr.probes

let pins_the_cliff () =
  let cliff = 3.3e6 in
  let lo = 1e5 and hi = 1e7 in
  let calls = ref 0 in
  let o = Ndr.search ~iters:12 ~lo ~hi ~probe:(cliff_probe cliff calls) () in
  (* never above the cliff, and within the bracket's final resolution
     ((hi - lo) / 2^12) below it *)
  if o.Ndr.ndr_pps > cliff then
    Alcotest.failf "NDR %.0f above the cliff %.0f" o.Ndr.ndr_pps cliff;
  let resolution = (hi -. lo) /. 4096. in
  if cliff -. o.Ndr.ndr_pps > resolution then
    Alcotest.failf "NDR %.0f more than %.0f below the cliff %.0f"
      o.Ndr.ndr_pps resolution cliff

let deterministic () =
  let run () =
    let calls = ref 0 in
    Ndr.search ~iters:10 ~lo:2e5 ~hi:8e6 ~probe:(cliff_probe 1.7e6 calls) ()
  in
  let a = run () and b = run () in
  check (Alcotest.float 0.) "same NDR" a.Ndr.ndr_pps b.Ndr.ndr_pps;
  check Alcotest.int "same probe count" a.Ndr.iterations b.Ndr.iterations;
  if a.Ndr.probes <> b.Ndr.probes then
    Alcotest.fail "probe trails differ between identical runs"

let bracket_edges () =
  let calls = ref 0 in
  (* device faster than the whole bracket: one probe, NDR = hi *)
  let o = Ndr.search ~lo:1e5 ~hi:1e6 ~probe:(cliff_probe 1e9 calls) () in
  check Alcotest.int "loss-free hi: one probe" 1 o.Ndr.iterations;
  check (Alcotest.float 0.) "loss-free hi: NDR = hi" 1e6 o.Ndr.ndr_pps;
  (* device slower than the whole bracket: two probes, NDR = 0 *)
  let calls = ref 0 in
  let o = Ndr.search ~lo:1e5 ~hi:1e6 ~probe:(cliff_probe 1. calls) () in
  check Alcotest.int "losing lo: two probes" 2 o.Ndr.iterations;
  check (Alcotest.float 0.) "losing lo: NDR = 0" 0. o.Ndr.ndr_pps;
  Alcotest.check_raises "bad bracket rejected"
    (Invalid_argument "Ndr.search: bad bracket") (fun () ->
      ignore
        (Ndr.search ~lo:1e6 ~hi:1e5
           ~probe:(fun _ -> { Ndr.offered = 1; delivered = 1 })
           ()))

(* -- NDR search on the real rig: a reported rate is re-probeable -- *)

let reprobe_on_rig () =
  let cfg = Scenario.config ~n_flows:1 ~latency:true () in
  let rig = Scenario.setup cfg in
  Scenario.drive rig 4_000;
  let n = 12_000 in
  let o =
    Ndr.search ~iters:6 ~lo:5e5 ~hi:2e7
      ~probe:(fun rate_pps -> Scenario.ndr_probe rig ~rate_pps n)
      ()
  in
  if o.Ndr.ndr_pps <= 0. then Alcotest.fail "rig NDR search found no rate";
  let re = Scenario.ndr_probe rig ~rate_pps:o.Ndr.ndr_pps n in
  check Alcotest.int "re-probe at the reported NDR is loss-free" re.Ndr.offered
    re.Ndr.delivered

(* -- timestamp conservation under fault injection -- *)

(* Mangled (truncated / corrupted) packets that the strict ruleset drops,
   and packets killed by a PMD crash, must record nothing: the sketch
   count equals delivered exactly, phase by phase. These are the two
   plans that destroy packets mid-flight in the nastiest ways. *)
let chaos_spec name =
  match List.find_opt (fun s -> s.Chaos.s_name = name) Chaos.catalog with
  | Some s -> s
  | None -> Alcotest.failf "chaos catalog has no %s plan" name

let stamp_conservation plan leg () =
  let row = Chaos.run_one (chaos_spec plan) leg in
  let c = row.Chaos.row_res in
  check Alcotest.int
    (Printf.sprintf "%s/%s: sojourn samples = delivered packets" plan
       (Chaos.leg_name leg))
    c.Scenario.c_ledger.Scenario.Ledger.d_delivered c.Scenario.c_latency_count;
  check Alcotest.bool "row judged conserving" true row.Chaos.row_latency_ok;
  check Alcotest.bool "run passes end to end" true row.Chaos.row_pass

(* -- determinism of the latency-armed virtual-time rig -- *)

let sketch_fingerprint q =
  Printf.sprintf "n=%d sum=%.17g p50=%.17g p99=%.17g max=%.17g" (Q.count q)
    (Q.sum q) (Q.p50 q) (Q.p99 q) (Q.quantile q 100.)

let vt_deterministic () =
  let measure () =
    let cfg = Scenario.config ~n_flows:8 ~latency:true () in
    let rig = Scenario.setup cfg in
    Scenario.drive rig 4_000;
    let delivered, q = Scenario.measure_latency rig ~rate_pps:2e6 10_000 in
    check Alcotest.int "conservation: samples = delivered" delivered
      (Q.count q);
    check Alcotest.int "sub-capacity rate is loss-free" 10_000 delivered;
    sketch_fingerprint q
  in
  check Alcotest.string "two identical armed runs, byte-identical sketches"
    (measure ()) (measure ())

let () =
  Alcotest.run "ovs_latency"
    [
      ( "ndr-search",
        [
          Alcotest.test_case "terminates within the probe budget" `Quick
            terminates_within_budget;
          Alcotest.test_case "monotone against losing probes" `Quick
            monotone_vs_losing_probes;
          Alcotest.test_case "pins a synthetic loss cliff" `Quick
            pins_the_cliff;
          Alcotest.test_case "deterministic probe trail" `Quick deterministic;
          Alcotest.test_case "bracket edge cases" `Quick bracket_edges;
          Alcotest.test_case "rig NDR is re-probeable" `Quick reprobe_on_rig;
        ] );
      ( "fault-conservation",
        [
          Alcotest.test_case "pkt_mangle leaks no stamps (kernel)" `Quick
            (stamp_conservation "pkt_mangle" Chaos.Kernel_leg);
          Alcotest.test_case "pkt_mangle leaks no stamps (afxdp)" `Quick
            (stamp_conservation "pkt_mangle" Chaos.Afxdp_leg);
          Alcotest.test_case "pmd crash/restart leaks no stamps" `Quick
            (stamp_conservation "pmd_crash" Chaos.Pmd_leg);
        ] );
      ( "vt-determinism",
        [
          Alcotest.test_case "latency-armed rig is byte-identical" `Quick
            vt_deterministic;
        ] );
    ]
