(* Tests for the execution engines: Engine_vt byte-determinism (golden
   values captured on the pre-engine scheduler), the Engine_vt stats
   readout, the cross-domain primitives (atomic SPSC ring, Spscq,
   contended umempool, domain-safe coverage), and the Engine_domains
   parallel rig with its invariant oracles armed. *)

module Scenario = Ovs_trafficgen.Scenario
module Engine = Ovs_datapath.Engine
module Engine_vt = Ovs_datapath.Engine_vt
module Dpif = Ovs_datapath.Dpif
module Engine_domains = Ovs_datapath.Engine_domains
module Ring = Ovs_xsk.Ring
module Spscq = Ovs_xsk.Spscq
module Umempool = Ovs_xsk.Umempool
module Coverage = Ovs_sim.Coverage

let check = Alcotest.check

(* -- Engine_vt determinism: byte-identical to the pre-engine scheduler --

   The golden values below were captured by running these exact configs
   on the scheduler as it was before the Engine extraction (commit
   a2b9f21), printed with %.17g — every bit of the double. If the engine
   wrapper perturbs charged cycles, poll order, or accounting by any
   amount, these change. *)

let fingerprint (r : Scenario.result) =
  Printf.sprintf "rate=%.17g wall=%.17g busy=%.17g packets=%d"
    r.Scenario.rate_mpps r.Scenario.wall_ns r.Scenario.busy_ns
    r.Scenario.packets

let golden_pmd2 () =
  let r =
    Scenario.run
      (Scenario.config ~n_pmds:2 ~queues:2 ~n_flows:8 ~measure:8_000 ())
  in
  check Alcotest.string "pmd runtime charged cycles byte-identical"
    "rate=10.01975802346978 wall=798422.47500001499 \
     busy=2419150.0000000279 packets=8000"
    (fingerprint r)

(* the default userspace run: one PMD per rx queue *)
let golden_one_pmd_per_queue () =
  let r = Scenario.run (Scenario.config ~queues:2 ~n_flows:16 ~measure:8_000 ()) in
  check Alcotest.string "one PMD per queue charged cycles byte-identical"
    "rate=8.8928405213835227 wall=899600.07500003872 \
     busy=2419150.0000000279 packets=8000"
    (fingerprint r)

let golden_pvp () =
  let r =
    Scenario.run
      (Scenario.config ~topology:(Scenario.PVP Scenario.Vm_vhost) ~n_flows:4
         ~measure:6_000 ())
  in
  check Alcotest.string "PVP charged cycles byte-identical"
    "rate=5.9074945429517944 wall=1018367.4240000208 \
     busy=2980588.8480000403 packets=6016"
    (fingerprint r)

let vt_repeatable () =
  let go () =
    fingerprint
      (Scenario.run (Scenario.config ~n_pmds:2 ~queues:2 ~n_flows:8 ~measure:4_000 ()))
  in
  check Alcotest.string "two runs, same fingerprint" (go ()) (go ())

(* -- the vt engine's readout: one unit per PMD, or per softirq queue -- *)

let vt_stats_units () =
  let rig = Scenario.setup (Scenario.config ~n_pmds:2 ~queues:2 ~n_flows:4 ()) in
  let eng = rig.Scenario.r_eng in
  (* no traffic yet: a sweep polls empty queues *)
  check Alcotest.int "empty sweep" 0 (Engine_vt.step eng);
  let s = Engine_vt.stats eng in
  check Alcotest.string "stats engine" "vt" s.Engine.s_engine;
  check Alcotest.int "units = pmds" 2 s.Engine.s_units;
  check Alcotest.int "unit detail rows" 2 (List.length s.Engine.s_units_detail);
  (* the kernel flavours have no PMD: one unit per softirq queue *)
  let k = Scenario.setup (Scenario.config ~kind:Dpif.Kernel ~n_flows:4 ()) in
  check Alcotest.bool "kernel: no PMD runtime" true
    (Option.is_none k.Scenario.r_rt);
  check Alcotest.int "empty kernel sweep" 0 (Engine_vt.step k.Scenario.r_eng);
  let ks = Engine_vt.stats k.Scenario.r_eng in
  check Alcotest.int "kernel units = softirq queues" k.Scenario.r_queues
    ks.Engine.s_units;
  check Alcotest.int "one softirq per queue"
    (Array.length k.Scenario.r_sirq)
    ks.Engine.s_units

(* -- plain and atomic rings: one API, same behavior --

   The SPSC publication protocol must not change single-threaded
   semantics: any op sequence gives identical results on both flavours. *)

let ring_flavor_equiv =
  let gen = QCheck.(list (pair small_nat bool)) in
  QCheck.Test.make ~name:"plain and atomic rings behave identically" ~count:200
    gen (fun ops ->
      let a = Ring.create ~size:16 () in
      let b = Ring.create ~atomic:true ~size:16 () in
      List.for_all
        (fun (n, push) ->
          if push then
            Ring.produce a { Ring.addr = n; len = n land 0xff }
            = Ring.produce b { Ring.addr = n; len = n land 0xff }
          else Ring.consume a = Ring.consume b)
        ops
      && Ring.available a = Ring.available b
      && Ring.prod_idx a = Ring.prod_idx b
      && Ring.cons_idx a = Ring.cons_idx b
      && Ring.ops a = Ring.ops b)

(* -- cross-domain SPSC: a producer domain, this consumer -- *)

let ring_spsc_two_domains () =
  let n = 50_000 in
  let r = Ring.create ~atomic:true ~size:64 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Ring.produce r { Ring.addr = i; len = i land 0xff }) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and in_order = ref true and last_cons = ref 0 in
  while !got < n do
    (match Ring.consume r with
    | Some { Ring.addr; len } ->
        if addr <> !got || len <> addr land 0xff then in_order := false;
        incr got
    | None -> Domain.cpu_relax ());
    let c = Ring.cons_idx r in
    if c < !last_cons then in_order := false;
    last_cons := c
  done;
  Domain.join producer;
  check Alcotest.bool "descriptors in order, cursors monotone" true !in_order;
  check Alcotest.int "all consumed" n (Ring.cons_idx r);
  check Alcotest.int "nothing pending" 0 (Ring.available r)

let ring_spsc_bursts () =
  let n = 50_000 in
  let r = Ring.create ~atomic:true ~size:128 () in
  let producer =
    Domain.spawn (fun () ->
        let sent = ref 0 in
        while !sent < n do
          let batch =
            List.init (Int.min 32 (n - !sent)) (fun k ->
                { Ring.addr = !sent + k; len = 0 })
          in
          let pushed = Ring.push_burst r batch in
          sent := !sent + pushed;
          if pushed = 0 then Domain.cpu_relax ()
        done)
  in
  let got = ref 0 and in_order = ref true in
  while !got < n do
    match Ring.pop_burst r ~max:32 with
    | [] -> Domain.cpu_relax ()
    | descs ->
        List.iter
          (fun (d : Ring.desc) ->
            if d.Ring.addr <> !got then in_order := false;
            incr got)
          descs
  done;
  Domain.join producer;
  check Alcotest.bool "burst stream in order" true !in_order;
  check Alcotest.int "all consumed" n !got

let spscq_two_domains () =
  let n = 50_000 in
  let q : int Spscq.t = Spscq.create ~capacity:37 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spscq.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 and ok = ref true in
  while !got < n do
    match Spscq.try_pop q with
    | Some v ->
        if v <> !got then ok := false;
        if Spscq.length q > Spscq.capacity q then ok := false;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check Alcotest.bool "fifo order and bound held" true !ok;
  check Alcotest.bool "drained" true (Spscq.is_empty q)

(* -- contended umempool: 4 domains allocating under the real mutex -- *)

let umempool_contended () =
  let n_frames = 256 and n_domains = 4 and rounds = 5_000 in
  let pool =
    Umempool.create ~contended:true ~n_frames ~strategy:Umempool.Spinlock_batched
      ()
  in
  (* one flag per frame: set on get, cleared on put — a double allocation
     trips the compare_and_set *)
  let owned = Array.init n_frames (fun _ -> Atomic.make false) in
  let races = Atomic.make 0 in
  let worker () =
    for _ = 1 to rounds do
      let frames = Umempool.get_batch pool 8 in
      List.iter
        (fun f ->
          if not (Atomic.compare_and_set owned.(f) false true) then
            Atomic.incr races)
        frames;
      List.iter
        (fun f ->
          if not (Atomic.compare_and_set owned.(f) true false) then
            Atomic.incr races)
        frames;
      Umempool.put_batch pool frames
    done
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  check Alcotest.int "no frame handed to two domains" 0 (Atomic.get races);
  check Alcotest.int "every frame back in the pool" n_frames
    (List.length (Umempool.free_frames pool))

(* -- coverage counters: per-domain accumulation, no lost increments -- *)

let coverage_domain_safe () =
  let c = Coverage.counter "test_engine_domain_safe" in
  let per_domain = 100_000 and n_domains = 4 in
  let ds =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Coverage.incr c
            done;
            Coverage.flush_domain ()))
  in
  List.iter Domain.join ds;
  check Alcotest.int "4-domain increments all counted"
    (per_domain * n_domains)
    (Coverage.read "test_engine_domain_safe")

(* -- the parallel engine end to end, oracles armed -- *)

let domains_smoke ~n_domains () =
  let cfg = Scenario.config ~n_flows:8 ~measure:20_000 () in
  let stats, viols = Scenario.run_multicore ~oracles:true cfg ~n_domains () in
  check Alcotest.(list string) "no oracle violations" [] viols;
  check Alcotest.string "engine name" "domains" stats.Engine.s_engine;
  check Alcotest.int "offered the full target" 20_000 stats.Engine.s_offered;
  check Alcotest.int "conservation: offered = delivered + dropped"
    stats.Engine.s_offered
    (stats.Engine.s_delivered + stats.Engine.s_dropped);
  check Alcotest.bool "made progress" true (stats.Engine.s_delivered > 0);
  check Alcotest.bool "saw upcalls (cold EMC)" true (stats.Engine.s_upcalls > 0);
  check Alcotest.bool "wall clock advanced" true (stats.Engine.s_wall_ns > 0.);
  check Alcotest.int "unit detail: pmds + revalidator + injector"
    (n_domains + 2)
    (List.length stats.Engine.s_units_detail)

let domains_via_run () =
  let r =
    Scenario.run (Scenario.config ~n_flows:8 ~measure:10_000 ~engine:(`Domains 2) ())
  in
  check Alcotest.bool "run dispatches to the domains engine" true
    (r.Scenario.packets > 0 && r.Scenario.rate_mpps > 0.)

(* -- phase goldens: the chaos, reconfig, latency/NDR and explorer phases --

   Each phase driver charges virtual time through its own offer, poll and
   drain order; these fingerprints pin every bit of what they report, so
   a refactor of the rig's phase machinery must reproduce them exactly. *)

module Chaos = Ovs_trafficgen.Chaos
module Reconfig = Ovs_ofproto.Reconfig
module Q = Ovs_sim.Quantiles
module Mc = Ovs_mc.Mc
module Ledger = Scenario.Ledger

let chaos_fingerprint (c : Scenario.chaos_result) =
  let books = c.Scenario.c_ledger in
  Printf.sprintf
    "base=%.17g fault=%.17g post=%.17g offered=%d delivered=%d drops=%d \
     rejects=%d in_flight=%d recovery=%s restarts=%d repairs=%d fired=[%s] \
     samples=%d"
    c.Scenario.c_baseline_mpps c.Scenario.c_faulted_mpps c.Scenario.c_post_mpps
    books.Ledger.d_offered books.Ledger.d_delivered (Ledger.drops books)
    books.Ledger.d_rejected books.Ledger.d_in_flight
    (match c.Scenario.c_recovery_ns with
    | Some ns -> Printf.sprintf "%.17g" ns
    | None -> "-")
    c.Scenario.c_restarts c.Scenario.c_repairs
    (String.concat ","
       (List.map (fun (n, k) -> Printf.sprintf "%s:%d" n k) c.Scenario.c_fired))
    c.Scenario.c_latency_count

let chaos_golden plan leg ~measure () =
  let spec = List.find (fun s -> s.Chaos.s_name = plan) Chaos.catalog in
  let cfg = { (Chaos.leg_config spec leg) with Scenario.measure } in
  Scenario.run_chaos cfg spec.Chaos.s_plan |> chaos_fingerprint

let reconfig_fingerprint (r : Scenario.reconfig_result) =
  let event (e : Scenario.churn_event) =
    Printf.sprintf "%.17g %s mods=%d dirty=%d retx=%d evicted=%d div=%d up=%d"
      e.Scenario.e_at_s e.Scenario.e_label e.Scenario.e_flow_mods
      e.Scenario.e_dirty e.Scenario.e_retx e.Scenario.e_evicted
      e.Scenario.e_divergences e.Scenario.e_upcalls
  in
  let books = r.Scenario.rc_ledger in
  Printf.sprintf
    "offered=%d delivered=%d drops=%d vanished=%d in_flight=%d mods=%d \
     rows=%d div=%d upcalls=%d samples=%d p50=%.17g p99=%.17g events=[%s] \
     upgrade=%s"
    books.Ledger.d_offered books.Ledger.d_delivered (Ledger.drops books)
    (Ledger.unaccounted books) books.Ledger.d_in_flight r.Scenario.rc_flow_mods
    r.Scenario.rc_ovsdb_rows r.Scenario.rc_divergences r.Scenario.rc_upcalls
    r.Scenario.rc_lat_count r.Scenario.rc_p50_ns r.Scenario.rc_p99_ns
    (String.concat "; " (List.map event r.Scenario.rc_events))
    (match r.Scenario.rc_upgrade with
    | None -> "-"
    | Some u ->
        Printf.sprintf
          "%s shadow=%d mods=%d evicted=%d burst=%d offered=%d delivered=%d \
           lost=%d recovery=%.17g"
          (Reconfig.pp_style u.Reconfig.up_style)
          u.Reconfig.up_shadow_rules u.Reconfig.up_flow_mods
          u.Reconfig.up_evicted u.Reconfig.up_upcall_burst
          u.Reconfig.up_offered u.Reconfig.up_delivered u.Reconfig.up_lost
          u.Reconfig.up_recovery_ns)

(* the reconfig bench's churn plan, shrunk: three rule events, then the
   whole-table swap at 60% of the measured window *)
let reconfig_golden ~naive () =
  let measure = 4_000 in
  let t_total = float_of_int measure *. (8. *. 84. /. 25.) /. 1e9 in
  let swap_flows =
    [
      "table=0,priority=300,udp,in_port=0,actions=output:1";
      "table=0,priority=200,in_port=0,actions=output:1";
      "table=0,priority=50,actions=output:1";
    ]
  in
  let text =
    String.concat "\n"
      [
        Printf.sprintf
          "@%.9f insert table=0,priority=400,udp,in_port=0,actions=output:1"
          (0.20 *. t_total);
        Printf.sprintf "@%.9f delete table=0,udp,in_port=0" (0.50 *. t_total);
        Printf.sprintf "@%.9f %s %s" (0.60 *. t_total)
          (if naive then "swap-naive" else "swap")
          (String.concat "; " swap_flows);
      ]
  in
  let plan = Reconfig.plan_of_string ~name:"golden" text in
  Scenario.run_reconfig ~naive_window:256
    (Scenario.config ~kind:Dpif.Dpdk ~warmup:1_000 ~measure
       ~latency:(not naive) ())
    plan
  |> reconfig_fingerprint

let sketch_fingerprint (delivered, q) =
  Printf.sprintf "delivered=%d n=%d sum=%.17g p50=%.17g p99=%.17g max=%.17g"
    delivered (Q.count q) (Q.sum q) (Q.p50 q) (Q.p99 q) (Q.quantile q 100.)

let latency_golden () =
  let rig =
    Scenario.setup
      (Scenario.config ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~n_flows:64
         ~latency:true ())
  in
  Scenario.drive rig 2_000;
  (* the sketch is the datapath's live one: read it before the probe *)
  let rung = sketch_fingerprint (Scenario.measure_latency rig ~rate_pps:6e6 5_000) in
  let probe = Scenario.ndr_probe rig ~rate_pps:3e7 20_000 in
  Printf.sprintf "%s | ndr offered=%d delivered=%d" rung
    probe.Ovs_trafficgen.Ndr.offered probe.Ovs_trafficgen.Ndr.delivered

let mc_fingerprint (o : Mc.outcome) =
  Printf.sprintf "explored=%d pruned=%d %s" o.Mc.o_explored o.Mc.o_pruned
    (match o.Mc.o_violation with
    | None -> "clean"
    | Some (v, sched) ->
        Printf.sprintf "%s@%d/t%d len=%d %s"
          (Mc.oracle_name v.Mc.v_oracle)
          v.Mc.v_step v.Mc.v_thread (Array.length sched)
          (Option.value ~default:"-" (Mc.artifact_of_outcome o)))

let mc_golden () =
  String.concat "\n"
    (mc_fingerprint (Mc.explore Mc.Tiny)
    :: List.map
         (fun (name, mutation) ->
           name ^ ": " ^ mc_fingerprint (Mc.explore ~mutation Mc.Tiny))
         Mc.mutations)

let golden_chaos_pmd () =
  check Alcotest.string "pmd_crash on the 2-PMD leg byte-identical"
    "base=10.053192427870972 fault=7.9937656621595812 \
     post=10.053192427870972 offered=8000 delivered=8000 drops=0 \
     rejects=0 in_flight=0 recovery=150301.13749999047 restarts=1 \
     repairs=1 fired=[crash:1] samples=8000"
    (chaos_golden "pmd_crash" Chaos.Pmd_leg ~measure:8_000 ())

let golden_chaos_afxdp () =
  check Alcotest.string "pkt_mangle on the AF_XDP leg byte-identical"
    "base=7.2429324822888246 fault=5.7306673252916251 \
     post=7.2429324822888246 offered=8000 delivered=6430 drops=1570 \
     rejects=0 in_flight=0 recovery=- restarts=0 repairs=0 \
     fired=[truncate:1173,corrupt:930] samples=6430"
    (chaos_golden "pkt_mangle" Chaos.Afxdp_leg ~measure:8_000 ())

let golden_reconfig_two_phase () =
  check Alcotest.string "two-phase swap byte-identical"
    "offered=4000 delivered=4000 drops=0 vanished=0 in_flight=0 mods=5 \
     rows=3 div=0 upcalls=3 samples=4000 p50=244767.13640593024 \
     p99=402551.82147479517 events=[2.1503999999999999e-05 flow_mods \
     mods=1 dirty=1 retx=1 evicted=1 div=0 up=1; 5.376e-05 flow_mods \
     mods=1 dirty=1 retx=1 evicted=1 div=0 up=1; 6.4511999999999995e-05 \
     swap two-phase mods=3 dirty=0 retx=0 evicted=1 div=0 up=1] \
     upgrade=two-phase shadow=3 mods=3 evicted=1 burst=1 offered=3712 \
     delivered=3712 lost=0 recovery=30889.600000000093"
    (reconfig_golden ~naive:false ())

let golden_reconfig_naive () =
  check Alcotest.string "naive swap byte-identical"
    "offered=4000 delivered=3744 drops=0 vanished=256 in_flight=0 \
     mods=6 rows=3 div=0 upcalls=4 samples=-1 p50=0 p99=0 \
     events=[2.1503999999999999e-05 flow_mods mods=1 dirty=1 retx=1 \
     evicted=1 div=0 up=1; 5.376e-05 flow_mods mods=1 dirty=1 retx=1 \
     evicted=1 div=0 up=1; 6.4511999999999995e-05 swap naive mods=4 \
     dirty=2 retx=2 evicted=2 div=0 up=2] upgrade=naive shadow=0 mods=4 \
     evicted=2 burst=2 offered=3712 delivered=3456 lost=256 \
     recovery=81430.399999999499"
    (reconfig_golden ~naive:true ())

let golden_latency () =
  check Alcotest.string "latency rung and NDR probe byte-identical"
    "delivered=5000 n=5000 sum=12696833.333332593 \
     p50=2517.2199609478134 p99=5152.9992504609936 \
     max=5166.6666666672681 | ndr offered=20000 delivered=8928"
    (latency_golden ())

let golden_mc () =
  check Alcotest.string "tiny exploration and mutation catches identical"
    "explored=300 pruned=35 clean\ndouble_grant: explored=6 pruned=0 \
     frame-conservation@2/t1 len=3 mc1 mode=tiny seed=0 \
     mut=double_grant sched=221\nsecond_claim: explored=1 pruned=0 \
     ring-sanity@0/t3 len=1 mc1 mode=tiny seed=0 mut=second_claim \
     sched=3\nleak_frame: explored=79 pruned=0 frame-conservation@3/t0 \
     len=4 mc1 mode=tiny seed=0 mut=leak_frame sched=0220\nlose_packet: \
     explored=1 pruned=0 packet-conservation@2/t0 len=3 mc1 mode=tiny \
     seed=0 mut=lose_packet sched=000\noverflow_queue: explored=1 \
     pruned=0 queue-bounds@0/t0 len=1 mc1 mode=tiny seed=0 \
     mut=overflow_queue sched=0\nring_rewind: explored=1 pruned=0 \
     ring-sanity@1/t3 len=2 mc1 mode=tiny seed=0 mut=ring_rewind \
     sched=03\nuntraced_charge: explored=1 pruned=0 \
     trace-accounting@1/t0 len=2 mc1 mode=tiny seed=0 \
     mut=untraced_charge sched=00"
    (mc_golden ())


let () =
  Alcotest.run "ovs_engine"
    [
      ( "vt-determinism",
        [
          Alcotest.test_case "golden pmd2" `Quick golden_pmd2;
          Alcotest.test_case "golden one PMD per queue" `Quick
            golden_one_pmd_per_queue;
          Alcotest.test_case "golden pvp" `Quick golden_pvp;
          Alcotest.test_case "repeatable" `Quick vt_repeatable;
        ] );
      ( "phase-goldens",
        [
          Alcotest.test_case "chaos pmd_crash 2-PMD" `Quick golden_chaos_pmd;
          Alcotest.test_case "chaos pkt_mangle afxdp" `Quick golden_chaos_afxdp;
          Alcotest.test_case "reconfig two-phase" `Quick
            golden_reconfig_two_phase;
          Alcotest.test_case "reconfig naive" `Quick golden_reconfig_naive;
          Alcotest.test_case "latency rung + ndr probe" `Quick golden_latency;
          Alcotest.test_case "mc tiny" `Quick golden_mc;
        ] );
      ( "vt-stats",
        [
          Alcotest.test_case "units per PMD or softirq queue" `Quick
            vt_stats_units;
        ] );
      ( "spsc",
        [
          QCheck_alcotest.to_alcotest ring_flavor_equiv;
          Alcotest.test_case "ring 2 domains" `Quick ring_spsc_two_domains;
          Alcotest.test_case "ring bursts 2 domains" `Quick ring_spsc_bursts;
          Alcotest.test_case "spscq 2 domains" `Quick spscq_two_domains;
        ] );
      ( "shared-state",
        [
          Alcotest.test_case "umempool 4 domains" `Quick umempool_contended;
          Alcotest.test_case "coverage 4 domains" `Quick coverage_domain_safe;
        ] );
      ( "domains-engine",
        [
          Alcotest.test_case "2 domains, oracles" `Quick (domains_smoke ~n_domains:2);
          Alcotest.test_case "4 domains, oracles" `Quick (domains_smoke ~n_domains:4);
          Alcotest.test_case "8 domains, oracles" `Quick (domains_smoke ~n_domains:8);
          Alcotest.test_case "via Scenario.run" `Quick domains_via_run;
        ] );
    ]
