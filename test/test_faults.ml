(* The fault-injection subsystem: deterministic plans on virtual time,
   zero-cost-when-disarmed hooks, umempool partial-failure and
   leak/reclaim semantics, packet conservation under every chaos plan,
   crash/restart megaflow re-sync, and the appctl fault commands.

   The injector is process-global: every test that arms a plan must
   disarm before returning (the [with_plan] wrapper enforces it). *)

module Faults = Ovs_faults.Faults
module Umempool = Ovs_xsk.Umempool
module Netdev = Ovs_netdev.Netdev
module Dpif = Ovs_datapath.Dpif
module Pmd = Ovs_datapath.Pmd
module Health = Ovs_datapath.Health
module Cpu = Ovs_sim.Cpu
module Time = Ovs_sim.Time
module Scenario = Ovs_trafficgen.Scenario
module Chaos = Ovs_trafficgen.Chaos
module Pktgen = Ovs_trafficgen.Pktgen
module Tools = Ovs_tools.Tools

let with_plan plan f =
  Faults.arm plan;
  Fun.protect ~finally:Faults.disarm f

let window ?(name = "w") action ~at ~dur =
  {
    Faults.f_name = name;
    f_action = action;
    f_start = at;
    f_stop = at +. dur;
  }

(* -- umempool: partial batches, drain/refill, no double grant -- *)

let test_partial_batch () =
  let pool = Umempool.create ~n_frames:8 ~strategy:Umempool.Spinlock_batched () in
  let got = Umempool.alloc_batch pool 12 in
  Alcotest.(check int) "partial batch returns every free frame" 8
    (List.length got);
  Alcotest.(check int) "all frames distinct" 8
    (List.length (List.sort_uniq compare got));
  Alcotest.(check int) "shortfall counted as exhaustion" 4
    pool.Umempool.stats.Umempool.exhausted;
  Alcotest.(check (list int)) "empty pool yields the empty batch" []
    (Umempool.alloc_batch pool 3);
  Umempool.put_batch pool got;
  Alcotest.(check int) "refilled" 8 (Umempool.available pool)

let prop_no_double_grant =
  QCheck.Test.make ~count:100 ~name:"drain/refill never double-grants a frame"
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 12))
    (fun requests ->
      let pool = Umempool.create ~n_frames:32 ~strategy:Umempool.Spinlock () in
      let held = Hashtbl.create 64 in
      let ok = ref true in
      List.iteri
        (fun i n ->
          let got = Umempool.alloc_batch pool n in
          List.iter
            (fun f ->
              if Hashtbl.mem held f then ok := false;
              Hashtbl.replace held f ())
            got;
          (* return half of what we hold every other round *)
          if i mod 2 = 1 then begin
            let frames = Hashtbl.fold (fun f () acc -> f :: acc) held [] in
            let back =
              List.filteri (fun j _ -> j mod 2 = 0) (List.sort compare frames)
            in
            List.iter (Hashtbl.remove held) back;
            Umempool.put_batch pool back
          end)
        requests;
      !ok
      && Hashtbl.length held + Umempool.available pool = 32)

let test_leak_and_reclaim () =
  let pool = Umempool.create ~n_frames:64 ~strategy:Umempool.Spinlock () in
  let plan =
    Faults.plan ~name:"leak"
      [ window (Faults.Umem_leak { frames = 16 }) ~at:0. ~dur:(Time.ms 1.) ]
  in
  with_plan plan (fun () ->
      ignore (Faults.tick (Time.us 1.) : Faults.fault list);
      let got = Umempool.alloc_batch pool 4 in
      Alcotest.(check int) "allocation still succeeds" 4 (List.length got);
      Alcotest.(check int) "frames quarantined" 16 (Umempool.leaked_count pool);
      Alcotest.(check int) "pool shrank" (64 - 16 - 4) (Umempool.available pool);
      Umempool.put_batch pool got;
      let reclaimed = Umempool.reclaim_leaked pool in
      Alcotest.(check int) "reclaim returns them all" 16 reclaimed;
      Alcotest.(check int) "pool whole again" 64 (Umempool.available pool);
      Alcotest.(check int) "quarantine empty" 0 (Umempool.leaked_count pool))

let test_exhaustion_window () =
  let pool = Umempool.create ~n_frames:8 ~strategy:Umempool.Spinlock () in
  let plan =
    Faults.plan ~name:"exhaust"
      [ window Faults.Umem_exhaust ~at:0. ~dur:(Time.us 10.) ]
  in
  with_plan plan (fun () ->
      ignore (Faults.tick (Time.us 1.) : Faults.fault list);
      Alcotest.(check (option int)) "denied while open" None (Umempool.get pool);
      ignore (Faults.tick (Time.us 20.) : Faults.fault list);
      Alcotest.(check bool) "grants again after the window" true
        (Umempool.get pool <> None))

(* -- netdev enqueue: counted drops vs uncounted backpressure -- *)

let test_enqueue_semantics () =
  let dev = Netdev.create ~name:"t0" ~queues:1 ~queue_capacity:2 () in
  let pkt () = Ovs_packet.Build.udp ~frame_len:64 () in
  Alcotest.(check bool) "accepts below capacity" true
    (Netdev.enqueue_on dev ~queue:0 (pkt ()));
  ignore (Netdev.enqueue_on dev ~queue:0 (pkt ()) : bool);
  (* full ring, Rx_drop: refused and counted *)
  Alcotest.(check bool) "full ring refuses" false
    (Netdev.enqueue_on dev ~queue:0 (pkt ()));
  Alcotest.(check int) "drop counted" 1 dev.Netdev.stats.Netdev.rx_dropped;
  (* full ring, Rx_backpressure: refused and NOT counted *)
  dev.Netdev.rx_policy <- Netdev.Rx_backpressure;
  Alcotest.(check bool) "backpressure refuses" false
    (Netdev.enqueue_on dev ~queue:0 (pkt ()));
  Alcotest.(check int) "backpressure is uncounted" 1
    dev.Netdev.stats.Netdev.rx_dropped;
  (* carrier-down fault: refused and counted, regardless of policy *)
  let dev2 = Netdev.create ~name:"t1" ~queues:1 () in
  dev2.Netdev.port_no <- 9;
  let plan =
    Faults.plan ~name:"down"
      [ window (Faults.Link_down { port = 9 }) ~at:0. ~dur:(Time.ms 1.) ]
  in
  with_plan plan (fun () ->
      ignore (Faults.tick (Time.us 1.) : Faults.fault list);
      Alcotest.(check bool) "link down refuses" false
        (Netdev.enqueue_on dev2 ~queue:0 (pkt ()));
      Alcotest.(check int) "link-down drop counted" 1
        dev2.Netdev.stats.Netdev.rx_dropped)

(* -- armed-but-quiet hooks charge nothing -- *)

(* The zero-cost invariant, one notch stronger than "disarmed is free":
   even an ARMED plan whose windows lie in the future must leave the
   charged cycle totals byte-identical, because no hook ever charges
   virtual time. *)
let test_armed_quiet_zero_cost () =
  let cfg = Scenario.config ~n_flows:16 ~warmup:500 ~measure:4_000 () in
  let baseline = Scenario.run cfg in
  let far = Time.s 3600. in
  let plan =
    Faults.plan ~name:"future"
      [
        window (Faults.Link_down { port = 0 }) ~at:far ~dur:(Time.ms 1.);
        window Faults.Umem_exhaust ~at:far ~dur:(Time.ms 1.);
        window Faults.Upcall_storm ~at:far ~dur:(Time.ms 1.);
      ]
  in
  let armed = with_plan plan (fun () -> Scenario.run cfg) in
  Alcotest.(check (float 0.)) "identical busy ns" baseline.Scenario.busy_ns
    armed.Scenario.busy_ns;
  Alcotest.(check (float 0.)) "identical rate" baseline.Scenario.rate_mpps
    armed.Scenario.rate_mpps;
  let after = Scenario.run cfg in
  Alcotest.(check (float 0.)) "no residue after disarm"
    baseline.Scenario.busy_ns after.Scenario.busy_ns

(* -- conservation and recovery for chaos plans -- *)

let chaos_spec name =
  List.find (fun s -> s.Chaos.s_name = name) Chaos.catalog

let check_plan name leg () =
  let r = Chaos.run_one (chaos_spec name) leg in
  let c = r.Chaos.row_res in
  let books = c.Scenario.c_ledger in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: conserved (%s)" name (Chaos.leg_name leg)
       (Scenario.Ledger.render books))
    true
    (Scenario.Ledger.conserved books);
  Alcotest.(check int) "nothing left in flight" 0
    books.Scenario.Ledger.d_in_flight;
  Alcotest.(check bool) "post-recovery within 1% of baseline" true
    r.Chaos.row_recovered;
  Alcotest.(check bool) "the plan actually fired" true
    (List.exists (fun (_, n) -> n > 0) c.Scenario.c_fired)

(* -- PMD crash + restart re-installs the same megaflow population -- *)

let strip line =
  match Astring.String.cut ~sep:", packets:" line with
  | None -> line
  | Some (head, rest) -> (
      match Astring.String.cut ~sep:", actions:" rest with
      | None -> head
      | Some (_stats, actions) -> head ^ " actions:" ^ actions)

let megaflows dp =
  List.sort compare (List.map strip (Dpif.dump_megaflows dp))

let test_crash_restart_megaflows () =
  let cfg =
    Scenario.config ~n_flows:64 ~n_pmds:2 ~queues:2 ~measure:20_000 ()
  in
  let r = Scenario.setup cfg in
  let dp = r.Scenario.r_dp and machine = r.Scenario.r_machine in
  let rt = Option.get r.Scenario.r_rt in
  Scenario.drive r cfg.Scenario.warmup;
  let before = megaflows dp in
  Alcotest.(check bool) "warmup installed megaflows" true (before <> []);
  (* anchor the window at the post-warmup wall time: the injector only
     opens windows the clock actually passes through *)
  let at = Cpu.wall machine in
  let plan =
    Faults.plan ~name:"crash"
      [ window (Faults.Pmd_crash { pmd = 0 }) ~at ~dur:(Time.us 10.) ]
  in
  let health = Health.create ~dp ~rt () in
  with_plan plan (fun () ->
      ignore (Faults.tick (Cpu.wall machine) : Faults.fault list);
      Scenario.poll_sweep r;  (* the poll loop performs the crash *)
      let pmd0 = List.hd (Pmd.pmds rt) in
      Alcotest.(check bool) "pmd0 died" false (Pmd.alive pmd0);
      Alcotest.(check bool) "caches flushed on crash" true (megaflows dp = []);
      (* drive traffic until the monitor restarts it and flows repopulate *)
      let rounds = ref 0 in
      while (not (Pmd.alive pmd0)) && !rounds < 1_000 do
        incr rounds;
        Scenario.drive r 64;
        ignore (Faults.tick (Cpu.wall machine) : Faults.fault list);
        ignore (Health.check health ~now:(Cpu.wall machine) : int)
      done;
      Alcotest.(check bool) "health monitor restarted pmd0" true
        (Pmd.alive pmd0);
      Alcotest.(check int) "exactly one restart" 1 (Pmd.restarts pmd0));
  Scenario.drive r cfg.Scenario.measure;
  Alcotest.(check (list string)) "identical megaflow population" before
    (megaflows dp);
  Alcotest.(check bool) "recovery time recorded" true
    (Health.last_recovery health <> None)

(* -- appctl fault commands and health-show -- *)

let out = function
  | Tools.Ok_output s -> s
  | Tools.Not_supported e -> Alcotest.failf "unexpected Not_supported: %s" e

let contains hay needle = Astring.String.is_infix ~affix:needle hay

let test_appctl_faults () =
  Faults.disarm ();
  let r = out (Tools.appctl "fault/inject link_flap port=3 at=5 for=2") in
  Alcotest.(check bool) "inject names the port" true (contains r "port=3");
  ignore (out (Tools.appctl "fault/inject umem_exhaust at=1 for=1") : string);
  let listing = out (Tools.appctl "fault/list") in
  Alcotest.(check bool) "list shows the link fault" true
    (contains listing "link_flap");
  Alcotest.(check bool) "list shows the umem fault" true
    (contains listing "umem_exhaust");
  (match Tools.appctl "fault/inject frobnicate foo=1" with
  | Tools.Not_supported _ -> ()
  | Tools.Ok_output o -> Alcotest.failf "bad spec accepted: %s" o);
  ignore (out (Tools.appctl "fault/clear") : string);
  Alcotest.(check bool) "clear disarms" true (Faults.armed_plan () = None)

let test_appctl_health_show () =
  let cfg = Scenario.config ~n_flows:8 ~n_pmds:2 ~queues:2 () in
  let r = Scenario.setup cfg in
  Scenario.drive r 500;
  let health =
    Health.create ~dp:r.Scenario.r_dp ?rt:r.Scenario.r_rt ()
  in
  (match Tools.appctl "dpif/health-show" with
  | Tools.Not_supported _ -> ()
  | Tools.Ok_output o -> Alcotest.failf "health without monitor: %s" o);
  let rendered = out (Tools.appctl ~health "dpif/health-show") in
  Alcotest.(check bool) "reports OK" true (contains rendered "health: OK");
  Alcotest.(check bool) "lists both pmds" true
    (contains rendered "pmd0" && contains rendered "pmd1")

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_faults"
    [
      ( "umempool",
        [
          Alcotest.test_case "partial batch semantics" `Quick test_partial_batch;
          Alcotest.test_case "leak and reclaim" `Quick test_leak_and_reclaim;
          Alcotest.test_case "exhaustion window" `Quick test_exhaustion_window;
        ]
        @ qcheck [ prop_no_double_grant ] );
      ( "netdev",
        [ Alcotest.test_case "enqueue semantics" `Quick test_enqueue_semantics ]
      );
      ( "zero-cost",
        [
          Alcotest.test_case "armed-but-quiet is byte-identical" `Quick
            test_armed_quiet_zero_cost;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "link_flap kernel" `Slow
            (check_plan "link_flap" Chaos.Kernel_leg);
          Alcotest.test_case "link_flap afxdp" `Slow
            (check_plan "link_flap" Chaos.Afxdp_leg);
          Alcotest.test_case "umem_exhaust afxdp" `Slow
            (check_plan "umem_exhaust" Chaos.Afxdp_leg);
          Alcotest.test_case "upcall_storm pmd" `Slow
            (check_plan "upcall_storm" Chaos.Pmd_leg);
          Alcotest.test_case "ct_pressure afxdp" `Slow
            (check_plan "ct_pressure" Chaos.Afxdp_leg);
          Alcotest.test_case "pmd_crash pmd" `Slow
            (check_plan "pmd_crash" Chaos.Pmd_leg);
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crash/restart re-syncs megaflows" `Slow
            test_crash_restart_megaflows;
        ] );
      ( "appctl",
        [
          Alcotest.test_case "fault/inject, list, clear" `Quick
            test_appctl_faults;
          Alcotest.test_case "dpif/health-show" `Quick test_appctl_health_show;
        ] );
    ]
