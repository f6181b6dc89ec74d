(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and prints paper-vs-measured rows.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig9    -- one experiment

   The experiment index lives in DESIGN.md; the paper-vs-measured record
   in EXPERIMENTS.md is produced from this output. *)

module Costs = Ovs_sim.Costs
module Dpif = Ovs_datapath.Dpif
module Engine = Ovs_datapath.Engine
module Scenario = Ovs_trafficgen.Scenario

let section title = Fmt.pr "@.=== %s ===@." title

let row fmt = Fmt.pr fmt

(* Uniform failure accounting: experiments record paper-vs-measured (or
   self-consistency) mismatches here instead of exiting mid-run, and the
   process exits nonzero at the end if anything failed — so a partial run
   like [bench -- table2 --json] gates exactly like the full sweep. *)
let failures : string list ref = ref []

let fail_check fmt =
  Printf.ksprintf
    (fun s ->
      Fmt.epr "FAIL: %s@." s;
      failures := s :: !failures)
    fmt

(* [check_close] gates a measured value against its paper anchor. The
   tolerances are per-experiment and generous — they encode the residuals
   EXPERIMENTS.md already documents, so the gate catches regressions in
   the model, not the model's honest distance from the paper. *)
let check_close ~what ~tolerance ~paper measured =
  if paper > 0. && Float.abs (measured -. paper) /. paper > tolerance then
    fail_check "%s: measured %.2f vs paper %.2f (> %.0f%% off)" what measured
      paper (100. *. tolerance)

(* ---------------------------------------------------------------- Fig 1 *)

let fig1 () =
  section "Figure 1: lines changed per year in the out-of-tree kernel module";
  row "%-6s %14s %12s %24s@." "year" "new features" "backports"
    "backports (burden model)";
  let predicted = Ovs_nsx.Maintenance.predicted () in
  List.iter2
    (fun e (_, _, predicted_backports) ->
      row "%-6d %14d %12d %24d@." e.Ovs_nsx.Maintenance.year
        e.Ovs_nsx.Maintenance.new_features_loc e.Ovs_nsx.Maintenance.backports_loc
        predicted_backports)
    Ovs_nsx.Maintenance.figure1 predicted;
  let cs = [ Ovs_nsx.Maintenance.erspan; Ovs_nsx.Maintenance.conncount ] in
  List.iter
    (fun c ->
      row "case study: %-30s upstream %4d LoC -> out-of-tree %5d LoC (%d commits)@."
        c.Ovs_nsx.Maintenance.feature c.Ovs_nsx.Maintenance.upstream_loc
        c.Ovs_nsx.Maintenance.backport_loc
        c.Ovs_nsx.Maintenance.upstream_commits_needed)
    cs

(* ---------------------------------------------------------------- Fig 2 *)

let fig2 () =
  section "Figure 2: single-core 64B forwarding rate by datapath technology";
  let paper = [ ("kernel", 4.6); ("DPDK", 9.3); ("eBPF", 3.9) ] in
  let kinds = [ ("kernel", Dpif.Kernel); ("DPDK", Dpif.Dpdk); ("eBPF", Dpif.Kernel_ebpf) ] in
  row "%-8s %10s %10s@." "datapath" "paper" "measured";
  List.iter
    (fun (name, kind) ->
      let r = Scenario.run (Scenario.config ~kind ~gbps:25. ()) in
      let p = List.assoc name paper in
      row "%-8s %8.1f M %8.2f M@." name p r.Scenario.rate_mpps;
      check_close ~what:("fig2 " ^ name) ~tolerance:0.30 ~paper:p
        r.Scenario.rate_mpps)
    kinds

(* -------------------------------------------------------------- Table 1 *)

let table1 () =
  section "Table 1: tool compatibility (kernel driver vs AF_XDP vs DPDK)";
  row "%-12s %8s %8s %8s@." "command" "kernel" "AF_XDP" "DPDK";
  List.iter
    (fun (cmd, k, a, d) ->
      let s b = if b then "works" else "FAILS" in
      row "%-12s %8s %8s %8s@." cmd (s k) (s a) (s d);
      if not (k && a && not d) then
        fail_check
          "table1 %s: expected works/works/FAILS, got %s/%s/%s" cmd (s k) (s a)
          (s d))
    (Ovs_tools.Tools.compatibility_matrix ())

(* -------------------------------------------------------------- Table 2 *)

let table2 () =
  section "Table 2: AF_XDP single-flow 64B rates across optimizations";
  let paper = [ 0.8; 4.8; 6.0; 6.3; 6.6; 7.1 ] in
  row "%-18s %9s %9s@." "optimizations" "paper" "measured";
  List.iter2
    (fun (name, opts) p ->
      let r = Scenario.run (Scenario.config ~kind:(Dpif.Afxdp opts) ~gbps:25. ()) in
      row "%-18s %7.1f M %7.2f M@." name p r.Scenario.rate_mpps;
      check_close ~what:("table2 " ^ name) ~tolerance:0.25 ~paper:p
        r.Scenario.rate_mpps)
    Dpif.afxdp_ladder paper

(* -------------------------------------------------------------- Table 3 *)

let table3 () =
  section "Table 3: NSX OpenFlow rule-set shape (generated vs paper)";
  let agent = Ovs_nsx.Agent.create () in
  let stats = Ovs_nsx.Agent.install_policy agent in
  row "paper:     tunnels 291 | VMs 15 | rules 103302 | tables 40 | fields 31@.";
  row "generated: tunnels %d | VMs %d | rules %d | tables %d | fields %d@."
    stats.Ovs_nsx.Ruleset.tunnels stats.Ovs_nsx.Ruleset.vms
    stats.Ovs_nsx.Ruleset.rules stats.Ovs_nsx.Ruleset.tables_used
    stats.Ovs_nsx.Ruleset.fields_used;
  List.iter
    (fun (what, paper, got) ->
      if paper <> got then
        fail_check "table3 %s: generated %d vs paper %d" what got paper)
    [
      ("tunnels", 291, stats.Ovs_nsx.Ruleset.tunnels);
      ("VMs", 15, stats.Ovs_nsx.Ruleset.vms);
      ("rules", 103_302, stats.Ovs_nsx.Ruleset.rules);
      ("tables", 40, stats.Ovs_nsx.Ruleset.tables_used);
      ("fields", 31, stats.Ovs_nsx.Ruleset.fields_used);
    ]

(* ---------------------------------------------------------------- Fig 8 *)

let fig8 () =
  section "Figure 8: TCP throughput through the NSX pipeline (Gbps)";
  row "%-36s %8s %9s %s@." "configuration" "paper" "measured" "bottleneck";
  let c = Costs.default in
  List.iter
    (fun (name, cfg, paper) ->
      let r = Ovs_trafficgen.Tcp_model.run c cfg in
      row "%-36s %8.1f %9.1f %s@." name paper r.Ovs_trafficgen.Tcp_model.gbps
        r.Ovs_trafficgen.Tcp_model.bottleneck;
      check_close ~what:("fig8 " ^ name) ~tolerance:0.50 ~paper
        r.Ovs_trafficgen.Tcp_model.gbps)
    Ovs_trafficgen.Tcp_model.figure8_bars

(* --------------------------------------------------------- Fig 9 + Tbl 4 *)

let fig9_configs =
  [
    ("P2P  kernel", Dpif.Kernel, Scenario.P2P);
    ("P2P  AF_XDP", Dpif.Afxdp Dpif.afxdp_default, Scenario.P2P);
    ("P2P  DPDK", Dpif.Dpdk, Scenario.P2P);
    ("PVP  kernel+tap", Dpif.Kernel, Scenario.PVP Scenario.Vm_tap);
    ("PVP  AF_XDP+tap", Dpif.Afxdp Dpif.afxdp_default, Scenario.PVP Scenario.Vm_tap);
    ("PVP  AF_XDP+vhost", Dpif.Afxdp Dpif.afxdp_default, Scenario.PVP Scenario.Vm_vhost);
    ("PVP  DPDK+vhost", Dpif.Dpdk, Scenario.PVP Scenario.Vm_vhost);
    ("PCP  kernel+veth", Dpif.Kernel, Scenario.PCP Scenario.Ct_veth);
    ("PCP  AF_XDP (XDP prog)", Dpif.Afxdp Dpif.afxdp_default, Scenario.PCP Scenario.Ct_xdp);
    ("PCP  DPDK (af_packet)", Dpif.Dpdk, Scenario.PCP Scenario.Ct_afpacket);
  ]

let fig9 () =
  section "Figure 9: P2P/PVP/PCP max forwarding rate and CPU (1 and 1000 flows)";
  row "%-24s %14s %14s@." "configuration" "1 flow" "1000 flows";
  List.iter
    (fun (name, kind, topology) ->
      let run n_flows =
        Scenario.run (Scenario.config ~kind ~topology ~n_flows ~gbps:25. ())
      in
      let r1 = run 1 and rk = run 1000 in
      row "%-24s %7.2f M/%4.1fc %7.2f M/%4.1fc@." name r1.Scenario.rate_mpps
        r1.Scenario.cpu.Ovs_sim.Cpu.bd_total rk.Scenario.rate_mpps
        rk.Scenario.cpu.Ovs_sim.Cpu.bd_total)
    fig9_configs

let table4 () =
  section "Table 4: CPU breakdown at 1000 flows (units of a hyperthread)";
  row "%-24s %8s %8s %8s %8s %8s@." "configuration" "system" "softirq" "guest"
    "user" "total";
  List.iter
    (fun (name, kind, topology) ->
      let r =
        Scenario.run (Scenario.config ~kind ~topology ~n_flows:1000 ~gbps:25. ())
      in
      let b = r.Scenario.cpu in
      row "%-24s %8.1f %8.1f %8.1f %8.1f %8.1f@." name b.Ovs_sim.Cpu.bd_system
        b.Ovs_sim.Cpu.bd_softirq b.Ovs_sim.Cpu.bd_guest b.Ovs_sim.Cpu.bd_user
        b.Ovs_sim.Cpu.bd_total)
    fig9_configs;
  row "(paper anchors: P2P kernel 9.9 | P2P DPDK 1.0 | P2P AF_XDP 2.1 | PVP kernel 8.5@.";
  row " PVP DPDK 2.9 | PVP AF_XDP 4.6 | PCP kernel 1.5 | PCP DPDK 1.0 | PCP AF_XDP 1.0)@."

(* ------------------------------------------------------------- Fig 10/11 *)

let fig10 () =
  section "Figure 10: inter-host VM latency and transaction rate (netperf TCP_RR)";
  let paper = [ (Ovs_trafficgen.Rr_model.Rr_kernel, (58., 68., 94.));
                (Ovs_trafficgen.Rr_model.Rr_afxdp, (39., 41., 53.));
                (Ovs_trafficgen.Rr_model.Rr_dpdk, (36., 38., 45.)) ] in
  let c = Costs.default in
  row "%-8s %20s %28s %12s@." "datapath" "paper P50/P90/P99" "measured" "trans/s";
  List.iter
    (fun (cfg, (p50, p90, p99)) ->
      let r = Ovs_trafficgen.Rr_model.(run (interhost_path c cfg)) in
      row "%-8s %11.0f/%.0f/%.0f us %15.0f/%.0f/%.0f us %9.1fk@."
        (Ovs_trafficgen.Rr_model.config_name cfg)
        p50 p90 p99 r.Ovs_trafficgen.Rr_model.p50_us
        r.Ovs_trafficgen.Rr_model.p90_us r.Ovs_trafficgen.Rr_model.p99_us
        (r.Ovs_trafficgen.Rr_model.transactions_per_s /. 1000.);
      check_close
        ~what:("fig10 " ^ Ovs_trafficgen.Rr_model.config_name cfg ^ " P50")
        ~tolerance:0.50 ~paper:p50 r.Ovs_trafficgen.Rr_model.p50_us)
    paper

let fig11 () =
  section "Figure 11: intra-host container latency and transaction rate";
  let paper = [ (Ovs_trafficgen.Rr_model.Rr_kernel, (15., 16., 20.));
                (Ovs_trafficgen.Rr_model.Rr_afxdp, (15., 16., 20.));
                (Ovs_trafficgen.Rr_model.Rr_dpdk, (81., 136., 241.)) ] in
  let c = Costs.default in
  row "%-8s %20s %28s %12s@." "datapath" "paper P50/P90/P99" "measured" "trans/s";
  List.iter
    (fun (cfg, (p50, p90, p99)) ->
      let r = Ovs_trafficgen.Rr_model.(run (intrahost_container_path c cfg)) in
      row "%-8s %11.0f/%.0f/%.0f us %15.0f/%.0f/%.0f us %9.1fk@."
        (Ovs_trafficgen.Rr_model.config_name cfg)
        p50 p90 p99 r.Ovs_trafficgen.Rr_model.p50_us
        r.Ovs_trafficgen.Rr_model.p90_us r.Ovs_trafficgen.Rr_model.p99_us
        (r.Ovs_trafficgen.Rr_model.transactions_per_s /. 1000.);
      check_close
        ~what:("fig11 " ^ Ovs_trafficgen.Rr_model.config_name cfg ^ " P50")
        ~tolerance:0.50 ~paper:p50 r.Ovs_trafficgen.Rr_model.p50_us)
    paper

(* -------------------------------------------------------------- Table 5 *)

let table5 () =
  section "Table 5: single-core XDP processing rates (programs run in the VM)";
  let c = Costs.default in
  Ovs_ebpf.Maps.reset_registry ();
  let l2 = Ovs_ebpf.Maps.create ~name:"l2" ~kind:Ovs_ebpf.Maps.Hash ~max_entries:1024 in
  ignore (Ovs_ebpf.Maps.update l2 (Int64.of_int (Ovs_packet.Mac.of_index 2)) 1L);
  let tasks =
    [
      ("A: drop only", Ovs_ebpf.Progs.task_a, 14.0);
      ("B: parse eth/ipv4, drop", Ovs_ebpf.Progs.task_b, 8.1);
      ("C: parse, L2 lookup, drop", Ovs_ebpf.Progs.task_c ~l2_table:l2, 7.1);
      ("D: parse, swap MACs, fwd", Ovs_ebpf.Progs.task_d, 4.7);
    ]
  in
  let line_rate = 14.88 (* 10GbE 64B line rate, Mpps *) in
  row "%-28s %8s %9s@." "task" "paper" "measured";
  List.iter
    (fun (name, prog, paper) ->
      let hook = Ovs_ebpf.Xdp.load_exn ~name prog in
      let pkt = Ovs_packet.Build.udp ~frame_len:64 () in
      let action, prog_cost = Ovs_ebpf.Xdp.run hook c pkt in
      let per_packet =
        c.Costs.driver_rx_dma +. 15. (* descriptor recycle *) +. prog_cost
        +. (match action with
           | Ovs_ebpf.Vm.Tx -> c.Costs.driver_tx +. c.Costs.xdp_tx
           | _ -> 0.)
      in
      let mpps = Float.min line_rate (1000. /. per_packet) in
      row "%-28s %6.1f M %7.2f M  (%s)@." name paper mpps
        (Ovs_ebpf.Vm.action_name action);
      check_close ~what:("table5 " ^ name) ~tolerance:0.35 ~paper mpps)
    tasks

(* --------------------------------------------------------------- Fig 12 *)

let fig12 () =
  section "Figure 12: P2P multi-queue scaling at 25 GbE";
  row "%-8s %6s %5s %12s %12s@." "driver" "frame" "quus" "rate" "gbps";
  List.iter
    (fun (kind, kname) ->
      List.iter
        (fun frame_len ->
          List.iter
            (fun q ->
              let r =
                Scenario.run
                  (Scenario.config ~kind ~queues:q ~frame_len ~n_flows:512
                     ~gbps:25. ())
              in
              let gbps =
                r.Scenario.rate_mpps *. 1e6
                *. float_of_int ((frame_len + 20) * 8)
                /. 1e9
              in
              row "%-8s %5dB %5d %9.2f Mpps %9.1f G%s@." kname frame_len q
                r.Scenario.rate_mpps gbps
                (if r.Scenario.line_limited then " [line rate]" else ""))
            [ 1; 2; 4; 6 ])
        [ 64; 1518 ])
    [ (Dpif.Afxdp Dpif.afxdp_default, "AF_XDP"); (Dpif.Dpdk, "DPDK") ];
  row "(paper: AF_XDP tops out ~12 Mpps at 64B even with 6 queues; reaches@.";
  row " 25G line rate with 1518B; DPDK consistently above AF_XDP)@."

(* ------------------------------------------------------------ Ablations *)

(* the design choices DESIGN.md calls out, each isolated *)
let ablations () =
  section "Ablation 1: cache hierarchy (the Sec 2.1 EMC-rejection story)";
  row "%-12s %12s %12s %12s %12s@." "flows" "EMC (dflt)" "no cache" "SMC only" "EMC+SMC";
  List.iter
    (fun n_flows ->
      let rate cache =
        (Scenario.run
           (Scenario.config ~n_flows ~cache ~warmup:3000 ~measure:20_000 ()))
          .Scenario.rate_mpps
      in
      row "%-12d %10.2f M %10.2f M %10.2f M %10.2f M@." n_flows
        (rate Scenario.Cache_default) (rate Scenario.Cache_none)
        (rate Scenario.Cache_smc_only) (rate Scenario.Cache_emc_smc))
    [ 1; 100; 1000; 20_000 ];
  row "(with this port-match pipeline every flow shares one wide megaflow, so@.";
  row " the classifier alone stays cache-resident and the exact-match layer@.";
  row " only adds footprint at high flow counts — the very behaviour that led@.";
  row " OVS to probabilistic EMC insertion and the optional SMC; the EMC wins@.";
  row " when rule sets shatter traffic into many megaflows, as in Table 3)@.";

  section "Ablation 2: tx batch size (what amortizes the XSK kick syscall)";
  row "%-8s %12s@." "batch" "rate";
  List.iter
    (fun batch_size ->
      let opts = { Dpif.afxdp_default with Dpif.batch_size } in
      let r =
        Scenario.run
          (Scenario.config ~kind:(Dpif.Afxdp opts) ~warmup:3000 ~measure:20_000 ())
      in
      row "%-8d %10.2f M@." batch_size r.Scenario.rate_mpps)
    [ 1; 4; 16; 32; 128 ];

  section "Ablation 3: umempool lock strategy (O2/O3 in isolation)";
  row "%-20s %12s@." "strategy" "rate";
  List.iter
    (fun (name, lock) ->
      let opts = { Dpif.afxdp_default with Dpif.lock; csum_offload = false } in
      let r =
        Scenario.run
          (Scenario.config ~kind:(Dpif.Afxdp opts) ~warmup:3000 ~measure:20_000 ())
      in
      row "%-20s %10.2f M@." name r.Scenario.rate_mpps)
    [ ("mutex", Ovs_xsk.Umempool.Mutex); ("spinlock", Ovs_xsk.Umempool.Spinlock);
      ("spinlock, batched", Ovs_xsk.Umempool.Spinlock_batched) ];

  section "Ablation 4: XDP attachment model (Fig 6: software vs hardware steering)";
  Ovs_ebpf.Maps.reset_registry ();
  let xskmap = Ovs_ebpf.Maps.create ~name:"x" ~kind:Ovs_ebpf.Maps.Xskmap ~max_entries:8 in
  ignore (Ovs_ebpf.Maps.update xskmap 0L 0L);
  let c = Costs.default in
  let cost name prog =
    let hook = Ovs_ebpf.Xdp.load_exn ~name prog in
    let _, ns = Ovs_ebpf.Xdp.run hook c (Ovs_packet.Build.udp ()) in
    (ns, Array.length prog)
  in
  let whole, wn = cost "steer_control" (Ovs_ebpf.Progs.steer_control ~xskmap) in
  let perq, pn = cost "xsk_default" (Ovs_ebpf.Progs.xsk_default ~xskmap) in
  row "whole-device (Intel): %d insns, %.0f ns/pkt (parses to steer in software)@." wn whole;
  row "per-queue (Mellanox): %d insns, %.0f ns/pkt (hardware ntuple pre-steers)@." pn perq;

  section "Ablation 5: rxq-to-PMD assignment under skewed load";
  let loads = Array.init 6 (fun i -> if i = 0 then 10. else 1.) in
  List.iter
    (fun n_pmds ->
      let rr = Ovs_datapath.Rxq_sched.round_robin ~n_queues:6 ~n_pmds in
      let cb = Ovs_datapath.Rxq_sched.cycles_based ~loads ~n_pmds in
      row "%d PMDs: round-robin scales x%.2f, cycles-based x%.2f@." n_pmds
        (Ovs_datapath.Rxq_sched.effective_scaling rr ~loads)
        (Ovs_datapath.Rxq_sched.effective_scaling cb ~loads))
    [ 2; 3 ]

(* ------------------------------------------------------ PMD runtime demo *)

(* The Sec 3.2 O1 story made explicit: shard rx queues over dedicated
   poll-mode cores and read the per-PMD pmd-stats-show breakdown. *)
let pmd_exp () =
  section "PMD runtime: per-PMD stats and 1->4 core scaling (AF_XDP, 64B)";
  row "%-8s %12s %10s@." "n_pmds" "aggregate" "per-core";
  let rates =
    List.map
      (fun n_pmds ->
        let r =
          Scenario.run
            (Scenario.config ~gbps:100. ~n_flows:512 ~n_pmds ~queues:4 ())
        in
        row "%-8d %10.2f M %8.2f M@." n_pmds r.Scenario.rate_mpps
          (r.Scenario.rate_mpps /. float_of_int n_pmds);
        (n_pmds, r))
      [ 1; 2; 4 ]
  in
  List.iter
    (fun (n_pmds, r) ->
      row "@.--- dpif-netdev/pmd-stats-show (%d PMDs) ---@." n_pmds;
      row "%s@." (Ovs_tools.Tools.pmd_stats_show r.Scenario.pmds);
      row "--- dpif-netdev/pmd-rxq-show ---@.";
      row "%s@." (Ovs_tools.Tools.pmd_rxq_show r.Scenario.pmds))
    rates;
  row "@.--- coverage/show ---@.";
  row "%s@." (Ovs_tools.Tools.coverage_show ())

(* ------------------------------------------------- per-stage attribution *)

(* Where the per-packet nanoseconds go on each datapath — the instrument
   behind the paper's Figs 9-14 and Table 4. Each run attaches a stage
   tracer; the per-stage sums must reproduce the charged busy total
   exactly (each charge is attributed to exactly one stage). *)
let stages_exp () =
  section "Per-stage cycle attribution (P2P, 1000 flows, 64B)";
  List.iter
    (fun (name, kind) ->
      let r =
        Scenario.run
          (Scenario.config ~kind ~n_flows:1000 ~gbps:25. ~trace:true
             ~warmup:3000 ~measure:20_000 ())
      in
      match r.Scenario.stage_trace with
      | None -> row "%s: no stage trace recorded@." name
      | Some tr ->
          row "@.%s@." (Ovs_sim.Trace.render tr);
          let sum = Ovs_sim.Trace.total tr in
          let busy = r.Scenario.busy_ns in
          let err =
            if busy > 0. then 100. *. abs_float (sum -. busy) /. busy else 0.
          in
          row "stage sum %.0f ns vs charged total %.0f ns (%.4f%% difference)@."
            sum busy err;
          if err > 0.1 then
            fail_check
              "stages %s: trace stage sum %.0f ns vs charged busy %.0f ns \
               (%.4f%% > 0.1%%)"
              name sum busy err)
    [ ("kernel", Dpif.Kernel);
      ("AF_XDP", Dpif.Afxdp Dpif.afxdp_default);
      ("DPDK", Dpif.Dpdk) ];
  row "@.(rx + extract dominate the kernel path, tx ring work the AF_XDP@.";
  row " path; with warm megaflows the cache tiers shrink dpcls and upcall@.";
  row " time to noise, which is the Sec 2.1 caching argument in one table)@."

(* ----------------------------------------------------------- chaos bench *)

module Chaos = Ovs_trafficgen.Chaos

let json_out = ref false

(* with --json, write [v] to [file] and say so *)
let emit file v =
  if !json_out then begin
    Json.write file v;
    row "wrote %s@." file
  end

let chaos_json rows =
  let run (r : Chaos.row) =
    let c = r.Chaos.row_res in
    let books = c.Scenario.c_ledger in
    Json.(
      Obj
        [ str "plan" r.Chaos.row_plan;
          str "leg" (Chaos.leg_name r.Chaos.row_leg);
          num 4 "baseline_mpps" c.Scenario.c_baseline_mpps;
          num 4 "faulted_mpps" c.Scenario.c_faulted_mpps;
          num 4 "post_mpps" c.Scenario.c_post_mpps;
          int "offered" books.Engine.d_offered;
          int "delivered" books.Engine.d_delivered;
          int "drops" (Engine.drops books);
          int "pressure_rejects" books.Engine.d_rejected;
          int "in_flight" books.Engine.d_in_flight;
          bool "conserved" (Engine.conserved books);
          ( "recovery_ns",
            match c.Scenario.c_recovery_ns with
            | Some ns -> Fixed (0, ns)
            | None -> Null );
          int "restarts" c.Scenario.c_restarts;
          int "repairs" c.Scenario.c_repairs;
          ("fired", Obj (List.map (fun (n, k) -> int n k) c.Scenario.c_fired));
          int "latency_count" c.Scenario.c_latency_count;
          bool "latency_conserved" r.Chaos.row_latency_ok;
          bool "recovered" r.Chaos.row_recovered; bool "pass" r.Chaos.row_pass ])
  in
  Json.(
    Obj
      [ str "bench" "chaos"; arr "runs" run rows;
        bool "all_pass" (Chaos.all_pass rows) ])

(* every fault plan from the catalog against the legs it applies to; a
   failed verdict (conservation leak or unrecovered throughput) fails
   the bench run *)
let chaos_exp () =
  section "Chaos bench: fault plans vs the kernel / AF_XDP / PMD legs";
  let rows = Chaos.run_all () in
  row "%s@." (Chaos.render rows);
  (match
     List.find_opt (fun r -> r.Chaos.row_plan = "pmd_crash") rows
   with
  | Some r -> (
      match r.Chaos.row_res.Scenario.c_recovery_ns with
      | Some ns ->
          row "pmd_crash vs the Sec 6 upgrade model: %a@."
            Ovs_core.Upgrade.pp_downtime
            (Ovs_core.Upgrade.compare_downtime ~measured_recovery_ns:ns ());
          row "@.--- dpif/health-show after the crash run ---@.%s@."
            r.Chaos.row_res.Scenario.c_health
      | None -> ())
  | None -> ());
  emit "BENCH_chaos.json" (chaos_json rows);
  if not (Chaos.all_pass rows) then
    fail_check "chaos: conservation leak or unrecovered plan"

(* ---------------------------------------------- computational cache *)

module Ruleset = Ovs_nsx.Ruleset
module Agent = Ovs_nsx.Agent

type ccache_row = {
  cr_rules : int;  (** OpenFlow rules installed *)
  cr_megaflows : int;
  cr_subtables : int;
  cr_mean_probes : float;  (** dpcls subtables probed per lookup, leg A *)
  cr_baseline : float;  (** virtual cycles per classifier lookup, dpcls only *)
  cr_ccache : float;  (** same metric with the learned tier in front *)
  cr_coverage : float;  (** share of classifier lookups the tier answered *)
  cr_mismatches : int;  (** ccache/dpcls disagreements (must be 0) *)
}

let cr_speedup r = if r.cr_ccache > 0. then r.cr_baseline /. r.cr_ccache else 0.

(* Distributed-firewall rules a VIF's own traffic can actually reach: the
   reg1-variant shape (the VIF's logical switch must be one of ours) with
   only match tokens a stock ipv4 packet satisfies. Aiming a flow at such
   a rule makes the pipeline walk *stop* at that rule's table, so the
   megaflow's unwildcarded mask depends on where the flow terminated —
   which is precisely what spreads the megaflows over many dpcls
   subtables, the regime the computational cache attacks. *)
let satisfiable_extra ~reg1 tok =
  List.mem tok
    [ "dl_type=0x0800"; "nw_ttl=64"; "nw_tos=32"; "tcp_flags=2"; "reg3=0";
      "reg4=0"; "reg5=0"; "reg6=0"; "reg7=0"; "nw_frag=0"; "vlan_tci=0";
      "ipv6_src_hi=0"; "ipv6_dst_hi=0"; "ipv6_src_lo=0"; "tp_src=1024" ]
  (* the conntrack zone is the logical switch id mod 64, so ct_zone=1 is
     reachable exactly from the VIF whose switch is ls 1 *)
  || (tok = "ct_zone=1" && reg1 = 1)

type dfw_target = {
  dt_table : int;  (** the firewall section the flow terminates in *)
  dt_vif : int;  (** source VIF whose logical switch the rule names *)
  dt_udp : bool;
  dt_syn : bool;  (** section shape matches tcp_flags=2 *)
  dt_tos : bool;  (** section shape matches nw_tos=32 *)
  dt_dst_net : int;  (** the rule's /24, host part free *)
  dt_port : int;
  dt_drop : bool;  (** no ct(commit): the flow stays +new forever *)
}

let parse_dfw_target ~vifs line : dfw_target option =
  match
    Scanf.sscanf line
      "table=%d,priority=%d,reg1=%d,%s@,nw_dst=%d.%d.%d.0/24,tp_dst=%d%s@ actions=%s"
      (fun t _p reg1 proto a b c port extra action ->
        (t, reg1, proto, a, b, c, port, extra, action))
  with
  | exception _ -> None
  | t, reg1, proto, a, b, c, port, extra, action ->
      let toks =
        String.split_on_char ',' extra |> List.filter (fun s -> s <> "")
      in
      if
        reg1 >= 1 && reg1 <= vifs
        && (proto = "tcp" || proto = "udp")
        && List.for_all (satisfiable_extra ~reg1) toks
      then
        Some
          {
            dt_table = t;
            dt_vif = reg1 - 1;
            dt_udp = proto = "udp";
            dt_syn = List.mem "tcp_flags=2" toks;
            dt_tos = List.mem "nw_tos=32" toks;
            dt_dst_net = (a lsl 24) lor (b lsl 16) lor (c lsl 8);
            dt_port = port;
            dt_drop = String.length action >= 4 && String.sub action 0 4 = "drop";
          }
      else None

(* even spread across sections: a flow's megaflow mask is determined by
   the section its walk terminates in, so per-section balance is what
   balances the dpcls subtable hit distribution *)
let spread_targets ~per_section targets =
  let by_table = Hashtbl.create 24 in
  List.iter
    (fun t ->
      let l = try Hashtbl.find by_table t.dt_table with Not_found -> [] in
      Hashtbl.replace by_table t.dt_table (t :: l))
    targets;
  Hashtbl.fold
    (fun _ l acc ->
      let rec take acc n = function
        | x :: rest when n > 0 -> take (x :: acc) (n - 1) rest
        | _ -> acc
      in
      take acc per_section (List.rev l))
    by_table []

(* One sweep point: the NSX pipeline at [target_rules], a deterministic
   flow population aimed at reachable DFW rules, and the same replay
   measured twice — dpcls alone, then with the trained tier in front.
   EMC and SMC are off on both legs so the metric isolates the
   megaflow-miss classification cost the paper's computational cache
   attacks. *)
let ccache_point ~target_rules : ccache_row =
  let spec = { Ruleset.table3_spec with Ruleset.target_rules } in
  let agent = Agent.create ~spec () in
  ignore (Agent.install_policy agent : Ruleset.stats);
  let dp =
    Dpif.create ~kind:Dpif.Dpdk ~pipeline:agent.Agent.integration.Agent.pipeline ()
  in
  let vifs = Ruleset.n_vifs spec in
  for p = 0 to vifs do
    ignore (Dpif.add_port dp (Ovs_netdev.Netdev.create ~name:(Printf.sprintf "p%d" p) ()))
  done;
  Dpif.set_emc_enabled dp false;
  Dpif.set_smc_enabled dp false;
  let charge _ _ = () in
  let targets =
    List.filter_map (parse_dfw_target ~vifs) (Ruleset.generate spec)
  in
  (* prefer drop rules: a dropped flow never commits, so every replayed
     packet stays +new and keeps hitting its diverse-mask DFW megaflow
     instead of migrating to the shared established-state path *)
  let drops = List.filter (fun t -> t.dt_drop) targets in
  let targets =
    if List.length drops >= 64 then spread_targets ~per_section:32 drops
    else spread_targets ~per_section:32 targets
  in
  let targets = Array.of_list targets in
  let n_targets = Array.length targets in
  (* scan-style filler flows (match nothing, share the widest mask) keep
     the population meaningful at sweep points too small for real targets *)
  let n_flows = Int.max n_targets 64 in
  let flow j =
    if j < n_targets then begin
      let t = targets.(j) in
      let i = t.dt_vif in
      let src_ip = Ovs_packet.Ipv4.addr_of_string (Ruleset.vif_ip i) in
      let src_mac = Ruleset.vif_mac i in
      let dst_mac = Ruleset.vif_mac ((i + 7) mod vifs) in
      let dst_ip = t.dt_dst_net lor 1 in
      let pkt =
        if t.dt_udp then
          Ovs_packet.Build.udp ~src_mac ~dst_mac ~src_ip ~dst_ip
            ~src_port:1024 ~dst_port:t.dt_port ()
        else
          Ovs_packet.Build.tcp ~src_mac ~dst_mac ~src_ip ~dst_ip
            ~src_port:1024 ~dst_port:t.dt_port
            ~flags:(if t.dt_syn then Ovs_packet.Tcp.Flags.syn
                    else Ovs_packet.Tcp.Flags.ack)
            ()
      in
      if t.dt_tos then Ovs_packet.Ipv4.set_tos pkt 32;
      pkt.Ovs_packet.Buffer.in_port <- Ruleset.vif_port spec i;
      pkt
    end
    else begin
      let i = j mod vifs in
      let pkt =
        Ovs_packet.Build.udp
          ~src_mac:(Ruleset.vif_mac i)
          ~dst_mac:(Ruleset.vif_mac ((i + 7) mod vifs))
          ~src_ip:(Ovs_packet.Ipv4.addr_of_string (Ruleset.vif_ip i))
          ~dst_ip:((10 lsl 24) lor (j mod 250 lsl 16) lor (j / 250 mod 250 lsl 8) lor 9)
          ~src_port:1024
          ~dst_port:(1 + (j mod 16_000))
          ()
      in
      pkt.Ovs_packet.Buffer.in_port <- Ruleset.vif_port spec i;
      pkt
    end
  in
  (* warmup: two passes per flow, so conntracked flows settle into their
     established-state megaflows before anything is measured *)
  for _ = 1 to 2 do
    for j = 0 to n_flows - 1 do
      Dpif.process dp charge (flow j)
    done
  done;
  (* replay weighted per *section*, not per flow: each terminating section
     is one megaflow mask, so uniform section weight is what gives the
     subtable hit distribution a production classifier sees (no single
     dominant mask); within a section flows are picked uniformly *)
  let by_section = Hashtbl.create 24 in
  Array.iteri
    (fun idx t ->
      let l = try Hashtbl.find by_section t.dt_table with Not_found -> [] in
      Hashtbl.replace by_section t.dt_table (idx :: l))
    targets;
  let sections =
    Hashtbl.fold (fun _ l acc -> Array.of_list l :: acc) by_section []
    |> Array.of_list
  in
  let replay () =
    let prng = Ovs_sim.Prng.of_int 0xCCBE in
    for _ = 1 to 30_000 do
      let j =
        if Array.length sections = 0 then Ovs_sim.Prng.int prng n_flows
        else begin
          let s = sections.(Ovs_sim.Prng.int prng (Array.length sections)) in
          s.(Ovs_sim.Prng.int prng (Array.length s))
        end
      in
      Dpif.process dp charge (flow j)
    done
  in
  (* settle the subtable hit ranking so both legs see the same ordering *)
  replay ();
  let c = Dpif.counters dp in
  (* leg A: dpcls only *)
  Dpif.reset_measurement dp;
  replay ();
  let baseline =
    c.Ovs_datapath.Dp_core.cycles.Ovs_datapath.Dp_core.dpcls_ns
    /. float_of_int (Int.max 1 c.Ovs_datapath.Dp_core.dpcls_hits)
  in
  let subtables, megaflows, mean_probes = Dpif.dpcls_stats dp in
  (* leg B: train the tier, replay the identical sequence *)
  Dpif.set_ccache_enabled dp true;
  ignore (Dpif.ccache_train dp charge : Ovs_nmu.Ccache.train_stats option);
  Dpif.reset_measurement dp;
  replay ();
  let tier_hits = c.Ovs_datapath.Dp_core.ccache_hits
  and cls_hits = c.Ovs_datapath.Dp_core.dpcls_hits in
  let with_ccache =
    let cy = c.Ovs_datapath.Dp_core.cycles in
    (cy.Ovs_datapath.Dp_core.ccache_ns +. cy.Ovs_datapath.Dp_core.dpcls_ns)
    /. float_of_int (Int.max 1 (tier_hits + cls_hits))
  in
  let keys = List.init n_flows (fun j -> Ovs_packet.Flow_key.extract (flow j)) in
  let mismatches = Dpif.ccache_selfcheck dp keys in
  {
    cr_rules = target_rules;
    cr_megaflows = megaflows;
    cr_subtables = subtables;
    cr_mean_probes = mean_probes;
    cr_baseline = baseline;
    cr_ccache = with_ccache;
    cr_coverage =
      float_of_int tier_hits /. float_of_int (Int.max 1 (tier_hits + cls_hits));
    cr_mismatches = mismatches;
  }

let ccache_json rows =
  Json.Arr
    (List.map
       (fun r ->
         Json.(
           Obj
             [ int "rules" r.cr_rules; int "megaflows" r.cr_megaflows;
               int "subtables" r.cr_subtables;
               num 3 "mean_probes" r.cr_mean_probes;
               num 2 "baseline_cycles_per_lookup" r.cr_baseline;
               num 2 "ccache_cycles_per_lookup" r.cr_ccache;
               num 3 "speedup" (cr_speedup r); num 4 "coverage" r.cr_coverage;
               int "mismatches" r.cr_mismatches ]))
       rows)

let ccache_exp () =
  section
    "Computational cache: learned tier vs dpcls-only, NSX ruleset sweep";
  row "%-9s %10s %10s %12s %14s %14s %9s %9s@." "rules" "megaflows"
    "subtables" "mean probes" "dpcls cyc/hit" "ccache cyc/hit" "speedup"
    "coverage";
  let rows =
    List.map
      (fun target_rules -> ccache_point ~target_rules)
      [ 1_000; 10_000; 103_302 ]
  in
  List.iter
    (fun r ->
      row "%-9d %10d %10d %12.2f %14.1f %14.1f %8.2fx %8.1f%%@." r.cr_rules
        r.cr_megaflows r.cr_subtables r.cr_mean_probes r.cr_baseline r.cr_ccache
        (cr_speedup r) (100. *. r.cr_coverage))
    rows;
  emit "BENCH_ccache.json" (ccache_json rows);
  let bad_mismatch = List.exists (fun r -> r.cr_mismatches > 0) rows in
  let at_scale = List.nth rows (List.length rows - 1) in
  if bad_mismatch then fail_check "ccache: ccache/dpcls disagreement";
  if cr_speedup at_scale < 2.0 then
    fail_check "ccache: %.2fx at %d rules, need >= 2x over dpcls-only"
      (cr_speedup at_scale) at_scale.cr_rules

(* ------------------------------------------------------ schedule explorer *)

module Mc = Ovs_mc.Mc

(* The correctness gate with no paper counterpart: exhaustively explore
   every interleaving of the concurrency model at the small bound, then
   sample the large (crash/restart) bound. Any violation is shrunk and
   its replay artifact written to MC_failure.txt for CI to upload. *)
let mc_exp () =
  section "Schedule explorer: exhaustive small bound + 500 sampled large";
  let gate what (o : Mc.outcome) =
    row "%s@." (Mc.render o);
    match Mc.artifact_of_outcome o with
    | None -> ()
    | Some artifact ->
        let out = open_out "MC_failure.txt" in
        output_string out (artifact ^ "\n");
        close_out out;
        fail_check "mc %s: invariant violation, artifact in MC_failure.txt: %s"
          what artifact
  in
  gate "small-exhaustive" (Mc.explore Mc.Small);
  gate "large-sampled" (Mc.sample ~seed:20260807 ~n:500 Mc.Large)

(* ---------------------------------------------------------- Multicore *)

(* Wall-clock Mpps on real OCaml domains (the Engine_domains rig) next to
   the virtual-time Figure 12 curve at the same PMD counts. The scaling
   gate (1 -> 2 domains monotone, 10% tolerance for scheduler noise) only
   arms when the host actually has cores to scale onto. *)
let multicore_target = 120_000

let multicore_rows () =
  List.map
    (fun n ->
      let cfg =
        Scenario.config ~n_flows:256 ~measure:multicore_target
          ~upcall_capacity:1024 ()
      in
      let stats, viols = Scenario.run_multicore cfg ~n_domains:n () in
      List.iter
        (fun v -> fail_check "multicore %d domains: oracle violation: %s" n v)
        viols;
      let vt =
        Scenario.run
          (Scenario.config ~n_pmds:n ~queues:n ~n_flows:256
             ~measure:multicore_target ())
      in
      (n, stats, vt.Scenario.rate_mpps))
    [ 1; 2; 4; 8 ]

let multicore_json ~cores rows =
  let row_json (n, (s : Engine.stats), vt_mpps) =
    Json.(
      Obj
        [ int "domains" n; num 4 "mpps_wall" s.Engine.s_mpps;
          num 4 "mpps_vt" vt_mpps; int "delivered" s.Engine.s_delivered;
          int "dropped" s.Engine.s_dropped; int "upcalls" s.Engine.s_upcalls;
          num 0 "wall_ns" s.Engine.s_wall_ns ])
  in
  Json.(
    Obj
      [ int "cores" cores; int "target" multicore_target;
        arr "rows" row_json rows ])

let multicore_exp () =
  section "Multicore: wall-clock Mpps on real domains vs virtual time";
  let cores = Domain.recommended_domain_count () in
  row "host offers %d core%s@." cores (if cores = 1 then "" else "s");
  row "%-8s %14s %14s %10s %10s@." "domains" "wall-clock" "virtual-time"
    "dropped" "upcalls";
  let rows = multicore_rows () in
  List.iter
    (fun (n, (s : Engine.stats), vt) ->
      row "%-8d %10.2f Mpps %10.2f Mpps %10d %10d@." n s.Engine.s_mpps vt
        s.Engine.s_dropped s.Engine.s_upcalls)
    rows;
  (match (rows, cores >= 2) with
  | (1, s1, _) :: (2, s2, _) :: _, true ->
      (* monotone 1 -> 2 with 10% tolerance: real schedulers jitter, but
         a parallel dataplane that gets slower with a second core is a
         regression (lock convoy, false sharing, broken sharding) *)
      if s2.Engine.s_mpps < 0.9 *. s1.Engine.s_mpps then
        fail_check "multicore: 2 domains slower than 1 (%.2f < 0.9 * %.2f Mpps)"
          s2.Engine.s_mpps s1.Engine.s_mpps
  | _, false ->
      row "(single-core host: 1 -> 2 scaling gate not armed, numbers are@.";
      row " time-sliced and informational only)@."
  | _ -> ());
  emit "BENCH_multicore.json" (multicore_json ~cores rows)

(* ------------------------------------------- latency distributions *)

module Quantiles = Ovs_sim.Quantiles
module Ndr = Ovs_trafficgen.Ndr
module Pktgen = Ovs_trafficgen.Pktgen

(* The four virtual-time legs the latency and NDR benches sweep. Each is
   (name, config builder, p99/p50 shape tolerance): the builder takes the
   latency knobs so one leg definition serves the capacity run (latency
   off), the rate ladder, and the NDR probes. *)
let lat_leg_config which ?(latency = true) ?(n_flows = 64)
    ?(offered_mpps = 0.) ?(burst = None) () =
  let base ~kind ~queues =
    Scenario.config ~kind ~queues ~n_flows ~latency ~offered_mpps ~burst ()
  in
  match which with
  | `Kernel -> base ~kind:Dpif.Kernel ~queues:1
  | `Ebpf -> base ~kind:Dpif.Kernel_ebpf ~queues:1
  | `Afxdp -> base ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~queues:1
  | `Pmd -> base ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~queues:2

let lat_legs = [ ("kernel", `Kernel); ("ebpf", `Ebpf); ("afxdp", `Afxdp);
                 ("pmd", `Pmd) ]

(* measured forwarding capacity of a leg (pps), with latency off so the
   capacity run is the same lockstep loop the throughput benches use *)
let leg_capacity_pps which ?(n_flows = 64) () =
  let r = Scenario.run (lat_leg_config which ~latency:false ~n_flows ()) in
  r.Scenario.rate_mpps *. 1e6

(* one measured point of the distribution, snapshotted immediately: the
   datapath reuses (and resets) one sketch across phases *)
type lat_row = {
  lr_leg : string;
  lr_rung : string;
  lr_rate_pps : float;
  lr_n : int;
  lr_delivered : int;
  lr_count : int;
  lr_mean : float;
  lr_p50 : float;
  lr_p95 : float;
  lr_p99 : float;
  lr_p999 : float;
  lr_max : float;
}

let lat_snap ~leg ~rung ~rate_pps ~n (delivered, q) =
  {
    lr_leg = leg;
    lr_rung = rung;
    lr_rate_pps = rate_pps;
    lr_n = n;
    lr_delivered = delivered;
    lr_count = Quantiles.count q;
    lr_mean = Quantiles.mean q;
    lr_p50 = Quantiles.p50 q;
    lr_p95 = Quantiles.p95 q;
    lr_p99 = Quantiles.p99 q;
    lr_p999 = Quantiles.p999 q;
    lr_max = Quantiles.quantile q 100.;
  }

let lat_print_header () =
  row "%-8s %-10s %9s %7s %7s %9s %9s %9s %9s %9s@." "leg" "rung"
    "rate Mpps" "sent" "got" "p50 ns" "p95 ns" "p99 ns" "p99.9 ns" "p99/p50"

let lat_print r =
  row "%-8s %-10s %9.2f %7d %7d %9.0f %9.0f %9.0f %9.0f %9.2f@." r.lr_leg
    r.lr_rung (r.lr_rate_pps /. 1e6) r.lr_n r.lr_delivered r.lr_p50 r.lr_p95
    r.lr_p99 r.lr_p999
    (if r.lr_p50 > 0. then r.lr_p99 /. r.lr_p50 else 0.)

let lat_json rows =
  let row_json r =
    Json.(
      Obj
        [ str "leg" r.lr_leg; str "rung" r.lr_rung;
          num 0 "rate_pps" r.lr_rate_pps; int "offered" r.lr_n;
          int "delivered" r.lr_delivered; int "samples" r.lr_count;
          num 1 "mean_ns" r.lr_mean; num 1 "p50_ns" r.lr_p50;
          num 1 "p95_ns" r.lr_p95; num 1 "p99_ns" r.lr_p99;
          num 1 "p999_ns" r.lr_p999; num 1 "max_ns" r.lr_max ])
  in
  Json.(Obj [ str "bench" "latency"; arr "rows" row_json rows ])

(* Conservation gate every latency row must clear: one sojourn sample per
   delivered packet, none for drops. *)
let lat_gate_conservation r =
  if r.lr_count <> r.lr_delivered then
    fail_check "latency %s %s: %d samples vs %d delivered (stamp leak)"
      r.lr_leg r.lr_rung r.lr_count r.lr_delivered

(* The offered-load ladder: distribution per leg at 0.3/0.7/0.9 x the
   leg's measured capacity, plus a bursty on-off rung. Sub-capacity rungs
   must be loss-free with a sane tail (p99/p50 bounded); the 0.9 rung and
   the bursty rung gate conservation only — queueing at the knee is the
   phenomenon under measurement, not a failure. *)
let latency_n = 20_000
let lat_shape_tolerance = 6.  (* p99/p50 at the 0.3/0.7 rungs; observed
                                 ~2.1 steady, ~10-18 bursty (ungated) *)

let latency_ladder name which =
  let cap = leg_capacity_pps which () in
  let rig = Scenario.setup (lat_leg_config which ()) in
  Scenario.drive rig (Scenario.default_config.Scenario.warmup);
  let steady =
    List.map
      (fun frac ->
        let rate = frac *. cap in
        let rung = Printf.sprintf "%.1fx" frac in
        lat_snap ~leg:name ~rung ~rate_pps:rate ~n:latency_n
          (Scenario.measure_latency rig ~rate_pps:rate latency_n))
      [ 0.3; 0.7; 0.9 ]
  in
  (* bursty rung: 64-packet bursts at 0.7 x capacity with 50 us gaps —
     its own rig, the burst knob is config state *)
  let burst = { Pktgen.on_packets = 64; off_ns = 50_000. } in
  let brig = Scenario.setup (lat_leg_config which ~burst:(Some burst) ()) in
  Scenario.drive brig (Scenario.default_config.Scenario.warmup);
  let bursty =
    lat_snap ~leg:name ~rung:"burst" ~rate_pps:(0.7 *. cap) ~n:latency_n
      (Scenario.measure_latency brig ~rate_pps:(0.7 *. cap) latency_n)
  in
  let rows = steady @ [ bursty ] in
  List.iter lat_gate_conservation rows;
  List.iter
    (fun r ->
      if r.lr_p50 <= 0. then
        fail_check "latency %s %s: p50 = 0 (empty or degenerate sketch)"
          r.lr_leg r.lr_rung)
    rows;
  List.iter
    (fun r ->
      if r.lr_rung = "0.3x" || r.lr_rung = "0.7x" then begin
        if r.lr_delivered <> r.lr_n then
          fail_check "latency %s %s: lost %d packets below capacity" r.lr_leg
            r.lr_rung (r.lr_n - r.lr_delivered);
        if r.lr_p99 > lat_shape_tolerance *. r.lr_p50 then
          fail_check "latency %s %s: p99/p50 = %.1f (> %.0f, tail blew up)"
            r.lr_leg r.lr_rung (r.lr_p99 /. r.lr_p50) lat_shape_tolerance
      end)
    rows;
  rows

(* Service chains: 1-4 vhost hops (chain-1 is the PVP scenario) plus a
   2-hop veth container chain, each measured at 0.7 x its own capacity.
   Sojourn p50 must grow monotonically with hop count — every hop adds a
   guest forwarder and two virtio crossings, so deeper chains are slower
   and their per-packet sojourns longer. *)
let chain_n = 10_000

let latency_chains () =
  let chain_row name topo =
    let cap =
      let r = Scenario.run (Scenario.config ~topology:topo ~n_flows:64 ()) in
      r.Scenario.rate_mpps *. 1e6
    in
    let rate_pps = 0.7 *. cap in
    let cfg = Scenario.config ~topology:topo ~n_flows:64 ~latency:true () in
    let rig = Scenario.setup cfg in
    Scenario.drive rig (Scenario.default_config.Scenario.warmup);
    let r =
      lat_snap ~leg:name ~rung:"0.7x" ~rate_pps ~n:chain_n
        (Scenario.measure_latency rig ~rate_pps chain_n)
    in
    lat_gate_conservation r;
    if r.lr_delivered <> chain_n then
      fail_check "latency %s: lost %d packets at %.2f Mpps (0.7x capacity)"
        name (chain_n - r.lr_delivered) (rate_pps /. 1e6);
    r
  in
  let vm_rows =
    List.map
      (fun hops ->
        chain_row
          (Printf.sprintf "vhost-%d" hops)
          (Scenario.Chain (Scenario.Vm_vhost, hops)))
      [ 1; 2; 3; 4 ]
  in
  let ct = chain_row "veth-2" (Scenario.Chain (Scenario.Ct_veth, 2)) in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        if b.lr_p50 < a.lr_p50 then
          fail_check "latency chains: p50 %s (%.0f ns) < %s (%.0f ns)"
            b.lr_leg b.lr_p50 a.lr_leg a.lr_p50;
        monotone rest
    | _ -> ()
  in
  monotone vm_rows;
  vm_rows @ [ ct ]

(* The real-parallelism readout: per-domain sketches merged at snapshot,
   wall-clock nanoseconds. Conservation must hold exactly even across
   domains (owner-written sketches, merged once). *)
let latency_domains () =
  let cfg = Scenario.config ~n_flows:64 ~measure:40_000 ~latency:true () in
  let stats, viols = Scenario.run_multicore cfg ~n_domains:2 () in
  List.iter
    (fun v -> fail_check "latency domains: oracle violation: %s" v)
    viols;
  match stats.Engine.s_latency with
  | None ->
      fail_check "latency domains: engine returned no sketch";
      []
  | Some q ->
      let r =
        lat_snap ~leg:"domains2" ~rung:"wall" ~rate_pps:0. ~n:40_000
          (stats.Engine.s_delivered, q)
      in
      lat_gate_conservation r;
      if r.lr_p50 <= 0. then
        fail_check "latency domains: p50 = 0 over %d samples" r.lr_count;
      [ r ]

let latency_exp () =
  section
    "Latency: per-packet sojourn distributions (ladder, bursts, chains)";
  lat_print_header ();
  let ladder =
    List.concat_map (fun (name, which) -> latency_ladder name which) lat_legs
  in
  List.iter lat_print ladder;
  let chains = latency_chains () in
  List.iter lat_print chains;
  let cores = Domain.recommended_domain_count () in
  let dom = if cores >= 2 then latency_domains () else [] in
  if dom = [] then
    row "(single-core host: wall-clock domains leg not armed)@."
  else List.iter lat_print dom;
  row "@.(ladder rungs are fractions of each leg's measured capacity; the@.";
  row " burst rung offers 64-packet bursts with 50 us gaps at 0.7x; every@.";
  row " row is gated on samples == delivered — drops record nothing)@.";
  emit "BENCH_latency.json" (lat_json (ladder @ chains @ dom))

(* --------------------------------------------------------- NDR search *)

(* RFC 2544 non-drop rate per leg: binary search over offered rate on a
   single-flow rig (one hot RSS queue, so the 4096-slot ingress ring is
   the loss cliff the search has to find). Probes are large enough that
   offering 3x capacity overflows the ring. *)
let ndr_n = 24_000
let ndr_iters = 8

let ndr_leg name which =
  let cap = leg_capacity_pps which ~n_flows:1 () in
  let rig = Scenario.setup (lat_leg_config which ~n_flows:1 ()) in
  Scenario.drive rig (Scenario.default_config.Scenario.warmup);
  let o =
    Ndr.search ~iters:ndr_iters ~lo:(0.1 *. cap) ~hi:(3. *. cap)
      ~probe:(fun rate_pps -> Scenario.ndr_probe rig ~rate_pps ndr_n)
      ()
  in
  (* the searched invariants, re-checked on the live rig: the reported
     rate was probed loss-free and can be re-probed loss-free; no rate
     observed losing sits at or below it *)
  if o.Ndr.ndr_pps <= 0. then
    fail_check "ndr %s: no loss-free rate found (even %.2f Mpps loses)" name
      (0.1 *. cap /. 1e6);
  let re = Scenario.ndr_probe rig ~rate_pps:o.Ndr.ndr_pps ndr_n in
  if not (Ndr.lossless re) then
    fail_check "ndr %s: re-probe at %.2f Mpps lost %d packets" name
      (o.Ndr.ndr_pps /. 1e6)
      (re.Ndr.offered - re.Ndr.delivered);
  List.iter
    (fun (rate, ok) ->
      if (not ok) && rate <= o.Ndr.ndr_pps then
        fail_check "ndr %s: reported %.2f Mpps above losing probe %.2f" name
          (o.Ndr.ndr_pps /. 1e6) (rate /. 1e6))
    o.Ndr.probes;
  (name, cap, o)

let ndr_json legs =
  let probe (rate, ok) = Json.(Obj [ num 0 "rate_pps" rate; bool "lossless" ok ]) in
  let leg_json (name, cap, (o : Ndr.outcome)) =
    Json.(
      Obj
        [ str "leg" name; num 0 "capacity_pps" cap;
          num 0 "ndr_pps" o.Ndr.ndr_pps; int "iterations" o.Ndr.iterations;
          arr "probes" probe o.Ndr.probes ])
  in
  Json.(
    Obj [ str "bench" "ndr"; int "probe_packets" ndr_n; arr "legs" leg_json legs ])

let ndr_exp () =
  section "NDR: RFC 2544 binary search for the non-drop rate per leg";
  row "%-8s %14s %14s %8s@." "leg" "capacity" "NDR" "probes";
  let legs = List.map (fun (name, which) -> ndr_leg name which) lat_legs in
  List.iter
    (fun (name, cap, (o : Ndr.outcome)) ->
      row "%-8s %10.2f Mpps %10.2f Mpps %8d@." name (cap /. 1e6)
        (o.Ndr.ndr_pps /. 1e6) o.Ndr.iterations)
    legs;
  row "@.(NDR is the highest probed zero-loss rate at %d-packet probes;@."
    ndr_n;
  row " it can sit above the steady-state capacity when the probe fits@.";
  row " the ingress ring — the search contract is zero loss, re-probed)@.";
  emit "BENCH_ndr.json" (ndr_json legs)

(* ------------------------------------------------------- policy bench *)

module Policy = Ovs_policy.Policy
module Pol_compile = Ovs_policy.Compile
module Pol_check = Ovs_policy.Check
module Pol_catalog = Ovs_policy.Catalog

type pol_row = {
  pr_name : string;
  pr_rules : int;
  pr_tables : int;
  pr_paths : int;
  pr_cubes : int;  (** cubes the checker partitioned the key space into *)
  pr_proved : bool;
}

type pol_mut_row = {
  pm_mutation : string;
  pm_policy : string;
  pm_caught : bool;
  pm_counterexample : string;  (** the diverging packet, "" if not caught *)
}

type pol_leg_row = {
  pl_leg : string;
  pl_policy : string;
  pl_packets : int;
  pl_emitted : int;  (** transmissions the datapath produced *)
  pl_expected : int;  (** transmissions the denotational semantics predicts *)
  pl_mismatches : int;  (** packets whose port multiset differed *)
}

(* one checker pass over the whole ladder; any divergence writes the
   counterexample artifact (CI uploads it like MC_failure.txt) *)
let policy_ladder () =
  List.map
    (fun (name, _desc, p) ->
      let c, pipeline = Pol_compile.pipeline_of p in
      let base =
        {
          pr_name = name;
          pr_rules = List.length c.Pol_compile.rules;
          pr_tables = c.Pol_compile.n_tables;
          pr_paths = c.Pol_compile.n_paths;
          pr_cubes = 0;
          pr_proved = false;
        }
      in
      match Pol_check.check ~ports:Pol_catalog.ports p pipeline with
      | Pol_check.Proved cubes -> { base with pr_cubes = cubes; pr_proved = true }
      | Pol_check.Divergent d ->
          let out = open_out "POLICY_counterexample.txt" in
          output_string out
            (Printf.sprintf "policy %s\n%s\n" name
               (Pol_check.render_divergence d));
          close_out out;
          fail_check
            "policy %s: compiled tables diverge from the semantics, \
             counterexample in POLICY_counterexample.txt"
            name;
          base)
    Pol_catalog.entries

(* every seeded compiler bug must be caught, and its counterexample must
   really diverge under independent concrete evaluation *)
let policy_mutations () =
  List.map
    (fun (mutation, pname) ->
      let mname = Pol_compile.mutation_name mutation in
      let p =
        match Pol_catalog.find pname with Some p -> p | None -> assert false
      in
      let _, pipeline = Pol_compile.pipeline_of ~mutation p in
      match Pol_check.check ~ports:Pol_catalog.ports p pipeline with
      | Pol_check.Proved _ ->
          fail_check "policy mutation %s on %s: not caught" mname pname;
          { pm_mutation = mname; pm_policy = pname; pm_caught = false;
            pm_counterexample = "" }
      | Pol_check.Divergent d ->
          let expected =
            Policy.eval p d.Pol_check.d_key
            |> List.map (fun k ->
                   (Ovs_packet.Flow_key.get k Ovs_packet.Flow_key.Field.In_port, k))
            |> List.sort_uniq compare
          in
          let got =
            Pol_check.concrete_emissions pipeline d.Pol_check.d_key
            |> List.sort_uniq compare
          in
          if expected = got then
            fail_check
              "policy mutation %s on %s: counterexample does not diverge \
               concretely"
              mname pname;
          { pm_mutation = mname; pm_policy = pname;
            pm_caught = expected <> got;
            pm_counterexample = Pol_check.render_key d.Pol_check.d_key })
    Pol_catalog.mutation_cases

(* compiled policies pushed through real datapath legs: every packet's
   transmitted port multiset must equal what [Policy.eval] predicts for
   its flow key, and transmissions must conserve exactly (no leaks, no
   duplicates through the deferred-upcall path) *)
let policy_traffic_n = 4_000

let policy_traffic_specs () =
  let prng = Ovs_sim.Prng.of_int 0x90117 in
  let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d in
  List.init policy_traffic_n (fun _ ->
      let open Ovs_sim.Prng in
      let tcp = bool prng in
      let src_ip = ip 10 (if bool prng then 0 else 7) 3 (1 + int prng 8) in
      let dst_ip = ip 10 0 (if bool prng then 1 else 9) (1 + int prng 8) in
      let sport = [| 53; 1024; 1025; 4096 |].(int prng 4) in
      let dport = [| 53; 80; 443; 8080; 5353; 7 |].(int prng 6) in
      (tcp, src_ip, dst_ip, sport, dport))

let policy_build_packet (tcp, src_ip, dst_ip, src_port, dst_port) =
  let pkt =
    if tcp then Ovs_packet.Build.tcp ~src_ip ~dst_ip ~src_port ~dst_port ()
    else Ovs_packet.Build.udp ~src_ip ~dst_ip ~src_port ~dst_port ()
  in
  pkt.Ovs_packet.Buffer.in_port <- 0;
  pkt

let policy_leg ~leg ~kind ~deferred_upcalls pname p specs =
  let c = Pol_compile.compile p in
  let pipeline =
    Ovs_ofproto.Pipeline.create ~n_tables:(max 2 c.Pol_compile.n_tables) ()
  in
  Pol_compile.install c (Ovs_ofproto.Ofconn.create ~pipeline ());
  let dp = Dpif.create ~kind ~pipeline () in
  let devs =
    Array.init 4 (fun i ->
        Ovs_netdev.Netdev.create ~name:(Printf.sprintf "pp%d" i) ())
  in
  Array.iter (fun d -> ignore (Dpif.add_port dp d)) devs;
  let current = ref [] in
  Array.iter
    (fun d ->
      Ovs_netdev.Netdev.set_tx_sink d (fun dev _pkt ->
          current := dev.Ovs_netdev.Netdev.port_no :: !current))
    devs;
  let pending = Queue.create () in
  if deferred_upcalls then
    Dpif.set_upcall_hook dp
      (Some (fun pkt key -> Queue.add (pkt, key) pending; true));
  let charge _ _ = () in
  let emitted = ref 0 and expected = ref 0 and mismatches = ref 0 in
  List.iter
    (fun s ->
      current := [];
      let pkt = policy_build_packet s in
      let oracle =
        Policy.eval p (Ovs_packet.Flow_key.extract pkt)
        |> List.map (fun k ->
               Ovs_packet.Flow_key.get k Ovs_packet.Flow_key.Field.In_port)
        |> List.sort compare
      in
      Dpif.process dp charge pkt;
      while not (Queue.is_empty pending) do
        let pkt, key = Queue.pop pending in
        Dpif.handle_upcall dp charge pkt key
      done;
      let got = List.sort compare !current in
      emitted := !emitted + List.length got;
      expected := !expected + List.length oracle;
      if got <> oracle then incr mismatches)
    specs;
  let r =
    {
      pl_leg = leg;
      pl_policy = pname;
      pl_packets = List.length specs;
      pl_emitted = !emitted;
      pl_expected = !expected;
      pl_mismatches = !mismatches;
    }
  in
  if r.pl_mismatches > 0 then
    fail_check "policy %s on %s: %d/%d packets forwarded against the semantics"
      pname leg r.pl_mismatches r.pl_packets;
  if r.pl_emitted <> r.pl_expected then
    fail_check "policy %s on %s: conservation: %d transmitted vs %d predicted"
      pname leg r.pl_emitted r.pl_expected;
  r

let policy_legs () =
  let specs = policy_traffic_specs () in
  let shapes =
    [ ("chain8", Pol_catalog.chain8); ("fat-union4", Pol_catalog.fat_union4);
      ("star2", Pol_catalog.star2) ]
  in
  List.concat_map
    (fun (pname, p) ->
      List.map
        (fun (leg, kind, deferred_upcalls) ->
          policy_leg ~leg ~kind ~deferred_upcalls pname p specs)
        [ ("kernel", Dpif.Kernel, false);
          ("afxdp", Dpif.Afxdp Dpif.afxdp_default, false);
          ("pmd-deferred", Dpif.Dpdk, true) ])
    shapes

let policy_json ladder muts legs =
  let ladder_json r =
    Json.(
      Obj
        [ str "policy" r.pr_name; int "rules" r.pr_rules;
          int "tables" r.pr_tables; int "paths" r.pr_paths;
          int "cubes" r.pr_cubes; bool "proved" r.pr_proved ])
  in
  let mut_json m =
    Json.(
      Obj
        [ str "mutation" m.pm_mutation; str "policy" m.pm_policy;
          bool "caught" m.pm_caught;
          str "counterexample" m.pm_counterexample ])
  in
  let leg_json l =
    Json.(
      Obj
        [ str "leg" l.pl_leg; str "policy" l.pl_policy;
          int "packets" l.pl_packets; int "emitted" l.pl_emitted;
          int "expected" l.pl_expected; int "mismatches" l.pl_mismatches ])
  in
  Json.(
    Obj
      [ str "bench" "policy"; arr "ladder" ladder_json ladder;
        arr "mutations" mut_json muts; arr "legs" leg_json legs ])

let policy_exp () =
  section
    "Policy: compile the ladder, prove equivalence, catch mutations, drive \
     traffic";
  row "%-12s %6s %7s %6s %7s %7s@." "policy" "rules" "tables" "paths" "cubes"
    "proved";
  let ladder = policy_ladder () in
  List.iter
    (fun r ->
      row "%-12s %6d %7d %6d %7d %7s@." r.pr_name r.pr_rules r.pr_tables
        r.pr_paths r.pr_cubes
        (if r.pr_proved then "yes" else "NO"))
    ladder;
  row "@.%-16s %-12s %-7s counterexample@." "mutation" "policy" "caught";
  let muts = policy_mutations () in
  List.iter
    (fun m ->
      row "%-16s %-12s %-7s %s@." m.pm_mutation m.pm_policy
        (if m.pm_caught then "yes" else "NO")
        m.pm_counterexample)
    muts;
  row "@.%-12s %-14s %8s %8s %9s %10s@." "policy" "leg" "packets" "emitted"
    "predicted" "mismatches";
  let legs = policy_legs () in
  List.iter
    (fun l ->
      row "%-12s %-14s %8d %8d %9d %10d@." l.pl_policy l.pl_leg l.pl_packets
        l.pl_emitted l.pl_expected l.pl_mismatches)
    legs;
  row "@.(the checker partitions the key space into cubes on which every@.";
  row " branch is constant; \"proved\" means the compiled tables and the@.";
  row " policy semantics agreed on every cube. Each seeded compiler bug@.";
  row " must be caught with a packet that concretely diverges, and the@.";
  row " datapath legs replay real traffic against the eval oracle)@.";
  emit "BENCH_policy.json" (policy_json ladder muts legs)

(* ------------------------------------------------------- scale bench *)

(* Sustained scale — the revalidator subsystem's tentpole scenario: a
   churn-extended Zipf flow mix births ~10k connections/s while an
   NSX-style manager churns DFW rules through [Maintenance.churn]. The
   datapath must hold 1M+ concurrent tracked connections (per-PMD-sharded
   conntrack, lazy bounded expiry) in bounded memory, keep incremental
   revalidation work proportional to the churn (not the megaflow table),
   and agree with the flush-all oracle on every round. *)

module Conntrack = Ovs_conntrack.Conntrack
module Reval = Ovs_revalidator.Revalidator

let scale_n_flows = 42_000
let scale_churn_per_s = 10_000.  (* connection births per virtual second *)
let scale_rounds = 30
let scale_round_s = 5.0  (* virtual seconds of traffic per rule-churn round *)
let scale_tick_s = 0.1
let scale_rules_per_round = 200
let scale_bg_per_tick = 100  (* Zipf background packets per tick *)
let scale_sweep_budget = 50_000  (* lazy-expiry entries examined per tick *)
let scale_shards = 8
let scale_zone = 1
let scale_zone_limit = 2_000_000

type scale_round = {
  sr_round : int;
  sr_now_s : float;
  sr_conns : int;  (** tracked connections at the end of the round *)
  sr_megaflows : int;
  sr_dirty : int;  (** megaflows the round's rule churn marked dirty *)
  sr_retx : int;  (** dirty megaflows re-translated *)
  sr_evicted : int;  (** re-translations that came back different *)
  sr_divergences : int;  (** incremental vs flush-all disagreements *)
  sr_heap_mb : float;
}

let scale_json (rounds : scale_round list) ~births ~offered ~delivered
    ~upcalls ~peak_conns ~final_conns ~heap_mb ~p50 ~p99 =
  let round_json r =
    Json.(
      Obj
        [ int "round" r.sr_round; num 1 "now_s" r.sr_now_s;
          int "conns" r.sr_conns; int "megaflows" r.sr_megaflows;
          int "dirty" r.sr_dirty; int "retranslated" r.sr_retx;
          int "evicted" r.sr_evicted; int "divergences" r.sr_divergences;
          num 1 "heap_mb" r.sr_heap_mb ])
  in
  Json.(
    Obj
      [ str "bench" "scale"; int "flows" scale_n_flows;
        num 0 "churn_per_s" scale_churn_per_s; int "births" births;
        int "offered" offered; int "delivered" delivered;
        int "upcalls" upcalls; int "peak_conns" peak_conns;
        int "final_conns" final_conns; num 1 "heap_mb" heap_mb;
        num 0 "upcall_p50_ns" p50; num 0 "upcall_p99_ns" p99;
        arr "rounds" round_json rounds ])

let scale_exp () =
  section "Scale: 1M+ concurrent connections under flow and rule churn";
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:2 () in
  Ovs_ofproto.Pipeline.add_flow pipeline ~table:0 ~priority:0
    (Ovs_ofproto.Match_.catchall ())
    [ Ovs_ofproto.Action.Ct
        { zone = scale_zone; commit = true; nat = None; table = Some 1 } ];
  Ovs_ofproto.Pipeline.add_flow pipeline ~table:1 ~priority:0
    (Ovs_ofproto.Match_.catchall ())
    [ Ovs_ofproto.Action.Output 1 ];
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  let devs =
    Array.init 2 (fun i ->
        Ovs_netdev.Netdev.create ~name:(Printf.sprintf "sc%d" i) ())
  in
  Array.iter (fun d -> ignore (Dpif.add_port dp d)) devs;
  let delivered = ref 0 in
  Array.iter
    (fun d -> Ovs_netdev.Netdev.set_tx_sink d (fun _ _ -> incr delivered))
    devs;
  Dpif.set_ct_shards dp scale_shards;
  let ct = Dpif.conntrack dp in
  Conntrack.set_zone_limit ct ~zone:scale_zone ~limit:scale_zone_limit;
  Dpif.set_revalidator_enabled dp true;
  let gen =
    Ovs_trafficgen.Pktgen.create ~seed:11 ~mix:(Ovs_trafficgen.Pktgen.Zipf 0.9)
      ~churn:{ Ovs_trafficgen.Pktgen.flows_per_s = scale_churn_per_s }
      ~n_flows:scale_n_flows ~frame_len:64 ()
  in
  let c = Dpif.counters dp in
  let upcall_lat = Quantiles.create ~lo:10. ~hi:1e9 ~eps:0.02 () in
  let charge _ _ = () in
  let offered = ref 0 in
  let process pkt =
    pkt.Ovs_packet.Buffer.in_port <- 0;
    incr offered;
    let u0 = c.Ovs_datapath.Dp_core.upcalls in
    let t0 = Unix.gettimeofday () in
    Dpif.process dp charge pkt;
    if c.Ovs_datapath.Dp_core.upcalls > u0 then
      Quantiles.add upcall_lat ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  (* a slot's rebirth reaches the datapath as its first packet plus a
     synthesized server reply; the reply upgrades the UDP connection to
     the long bidirectional timeout, so the tracked population is
     governed by churn and timeouts, not by which slots the Zipf mix
     happens to revisit *)
  let inject_birth i =
    process (Ovs_packet.Buffer.clone gen.Ovs_trafficgen.Pktgen.templates.(i));
    let g = gen.Ovs_trafficgen.Pktgen.gens.(i) in
    process
      (Ovs_packet.Build.udp ~frame_len:64
         ~src_mac:(Ovs_packet.Mac.of_index 2)
         ~dst_mac:(Ovs_packet.Mac.of_index 1)
         ~src_ip:gen.Ovs_trafficgen.Pktgen.slot_dst.(i)
         ~dst_ip:(gen.Ovs_trafficgen.Pktgen.slot_src.(i) + (g * 0x10000))
         ~src_port:(2048 + (i lsr 12))
         ~dst_port:(1024 + (i land 0xFFF))
         ())
  in
  let vnow = ref 0. in
  let births = ref 0 in
  let peak_conns = ref 0 in
  let drive seconds =
    let ticks = int_of_float (seconds /. scale_tick_s) in
    for _ = 1 to ticks do
      vnow := !vnow +. (scale_tick_s *. 1e9);
      Dpif.set_time dp !vnow;
      let reborn = Ovs_trafficgen.Pktgen.churn_tick gen ~now:!vnow in
      List.iter
        (fun i ->
          incr births;
          inject_birth i)
        reborn;
      for _ = 1 to scale_bg_per_tick do
        process (Ovs_trafficgen.Pktgen.next gen)
      done;
      ignore (Conntrack.sweep_bounded ct ~now:!vnow ~budget:scale_sweep_budget);
      peak_conns := Int.max !peak_conns (Conntrack.active_conns ct)
    done
  in
  (* generation 0: bring the initial slot population up *)
  for i = 0 to scale_n_flows - 1 do
    incr births;
    inject_birth i
  done;
  let lifetime_s = float_of_int scale_n_flows /. scale_churn_per_s in
  (* aim each round's /24 at subnets the then-current generation of
     traffic occupies, so the rule churn actually intersects live
     megaflows (rebirth shifts the source b-octet by the generation) *)
  let subnet_of r =
    let g =
      int_of_float (float_of_int (r + 1) *. scale_round_s /. lifetime_s)
    in
    (10 lsl 24) lor ((1 + g) lsl 16) lor ((r mod 4) lsl 8)
  in
  (* forward everything: the default's DFW-drop rules would make packets
     vanish uncounted and break the conservation gate *)
  let mk_actions ~round:_ ~k:_ = [ Ovs_ofproto.Action.Output 1 ] in
  row "%5s %6s %9s %9s %6s %6s %7s %5s %8s@." "round" "t(s)" "conns"
    "megaflows" "dirty" "retx" "evicted" "div" "heap(MB)";
  let rounds = ref [] in
  let round_idx = ref 0 in
  let last_cum = ref (0, 0, 0) in
  let revalidate () =
    drive scale_round_s;
    let _full_stale, incr_evicted, divergences = Dpif.revalidate_check dp in
    let st =
      match Dpif.revalidator_stats dp with
      | Some s -> s
      | None -> assert false
    in
    let d0, r0, e0 = !last_cum in
    last_cum :=
      (st.Reval.st_dirty, st.Reval.st_retranslated, st.Reval.st_evicted);
    let _, megaflows, _ = Dpif.dpcls_stats dp in
    incr round_idx;
    rounds :=
      {
        sr_round = !round_idx;
        sr_now_s = !vnow /. 1e9;
        sr_conns = Conntrack.active_conns ct;
        sr_megaflows = megaflows;
        sr_dirty = st.Reval.st_dirty - d0;
        sr_retx = st.Reval.st_retranslated - r0;
        sr_evicted = st.Reval.st_evicted - e0;
        sr_divergences = divergences;
        sr_heap_mb =
          float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1e6;
      }
      :: !rounds;
    (match !rounds with
    | r :: _ ->
        row "%5d %6.1f %9d %9d %6d %6d %7d %5d %8.1f@." r.sr_round r.sr_now_s
          r.sr_conns r.sr_megaflows r.sr_dirty r.sr_retx r.sr_evicted
          r.sr_divergences r.sr_heap_mb
    | [] -> ());
    if divergences <> 0 then
      fail_check "scale round %d: incremental vs flush-all: %d divergences"
        !round_idx divergences;
    incr_evicted
  in
  let ch =
    Ovs_nsx.Maintenance.churn ~table:1 ~seed:17 ~subnet_of ~mk_actions
      ~pipeline ~rounds:scale_rounds ~rules_per_round:scale_rules_per_round
      ~revalidate
      ~retrain:(fun () -> ())
      ()
  in
  let rounds = List.rev !rounds in
  let final_conns = Conntrack.active_conns ct in
  let heap_mb = float_of_int (Gc.quick_stat ()).Gc.heap_words *. 8. /. 1e6 in
  let p50 = Quantiles.p50 upcall_lat and p99 = Quantiles.p99 upcall_lat in
  row "@.%d births at %.0f conns/s over %.0f virtual s (%d rules churned)@."
    !births scale_churn_per_s (!vnow /. 1e9)
    (ch.Ovs_nsx.Maintenance.ch_added + ch.Ovs_nsx.Maintenance.ch_deleted);
  row "peak %d / final %d tracked connections, %.1f MB heap@." !peak_conns
    final_conns heap_mb;
  row "offered %d = delivered %d + dropped %d; %d upcalls, p50 %.0f ns, \
       p99 %.0f ns@."
    !offered !delivered c.Ovs_datapath.Dp_core.dropped
    c.Ovs_datapath.Dp_core.upcalls p50 p99;
  (* --- gates --- *)
  if !peak_conns < 1_000_000 then
    fail_check "scale: peaked at %d concurrent connections, need >= 1M"
      !peak_conns;
  if !offered <> !delivered + c.Ovs_datapath.Dp_core.dropped then
    fail_check "scale: conservation: offered %d <> delivered %d + dropped %d"
      !offered !delivered c.Ovs_datapath.Dp_core.dropped;
  if Conntrack.limit_drops ct > 0 then
    fail_check "scale: %d zone-limit drops below the %d cap"
      (Conntrack.limit_drops ct) scale_zone_limit;
  if Quantiles.count upcall_lat = 0 then
    fail_check "scale: no upcall latency samples recorded";
  (* revalidation work must track the churn, not the table: the mean
     per-round re-translation count stays a small fraction of the mean
     megaflow population *)
  let steady = List.filter (fun r -> r.sr_round > 2) rounds in
  let mean f =
    List.fold_left (fun a r -> a +. f r) 0. steady
    /. float_of_int (List.length steady)
  in
  let mean_retx = mean (fun r -> float_of_int r.sr_retx) in
  let mean_mf = mean (fun r -> float_of_int r.sr_megaflows) in
  if mean_retx > 0.25 *. mean_mf then
    fail_check
      "scale: revalidation work not incremental: %.1f re-translations/round \
       vs %.1f megaflows tracked"
      mean_retx mean_mf;
  (* bounded memory: once the connection population is steady (the UDP
     timeout horizon has passed), the heap must stop growing *)
  let horizon = 1. +. (125. /. scale_round_s) in
  let late = List.filter (fun r -> float_of_int r.sr_round >= horizon) rounds in
  (match late with
  | first :: _ ->
      let worst =
        List.fold_left (fun a r -> Float.max a r.sr_heap_mb) 0. late
      in
      if worst > 1.3 *. first.sr_heap_mb then
        fail_check "scale: heap grew %.1f -> %.1f MB past steady state"
          first.sr_heap_mb worst
  | [] -> ());
  emit "BENCH_scale.json"
    (scale_json rounds ~births:!births ~offered:!offered ~delivered:!delivered
       ~upcalls:c.Ovs_datapath.Dp_core.upcalls ~peak_conns:!peak_conns
       ~final_conns ~heap_mb ~p50 ~p99)

(* ------------------------------------------- live reconfiguration churn *)

module Reconfig = Ovs_ofproto.Reconfig

(* the replacement table set a swap installs: same forwarding behaviour,
   different rule shapes, so the swap genuinely replaces the classifier
   while traffic must keep flowing *)
let reconfig_swap_flows =
  [
    "table=0,priority=300,udp,in_port=0,actions=output:1";
    "table=0,priority=200,in_port=0,actions=output:1";
    "table=0,priority=50,actions=output:1";
  ]

(* a timed churn plan over the measured window [0, t_total]: three rule
   events that intersect live megaflows, then the whole-table swap at 60%
   with 40% of the traffic left to absorb its consequences *)
let reconfig_plan ~naive ~t_total =
  let swap_kw = if naive then "swap-naive" else "swap" in
  String.concat "\n"
    [
      "# timed control churn against a running rig";
      Printf.sprintf
        "@%.9f insert table=0,priority=400,udp,in_port=0,actions=output:1"
        (0.20 *. t_total);
      Printf.sprintf
        "@%.9f modify table=0,priority=400,udp,in_port=0,actions=output:1"
        (0.35 *. t_total);
      Printf.sprintf "@%.9f delete table=0,udp,in_port=0" (0.50 *. t_total);
      Printf.sprintf "@%.9f %s %s" (0.60 *. t_total) swap_kw
        (String.concat "; " reconfig_swap_flows);
    ]

let reconfig_json (runs : Scenario.reconfig_result list)
    ~(mc : Engine.stats * string list * int) ~two_phase_rec ~naive_rec =
  let event (e : Scenario.churn_event) =
    Json.(
      Obj
        [ num 9 "at_s" e.Scenario.e_at_s; str "label" e.Scenario.e_label;
          int "flow_mods" e.Scenario.e_flow_mods;
          int "dirty" e.Scenario.e_dirty; int "retx" e.Scenario.e_retx;
          int "evicted" e.Scenario.e_evicted;
          int "divergences" e.Scenario.e_divergences;
          int "upcalls" e.Scenario.e_upcalls ])
  in
  let upgrade (u : Reconfig.upgrade_report) =
    Json.(
      Obj
        [ str "style" (Reconfig.pp_style u.Reconfig.up_style);
          int "shadow_rules" u.Reconfig.up_shadow_rules;
          int "evicted" u.Reconfig.up_evicted;
          int "upcall_burst" u.Reconfig.up_upcall_burst;
          int "offered" u.Reconfig.up_offered;
          int "delivered" u.Reconfig.up_delivered;
          int "lost" u.Reconfig.up_lost;
          num 0 "recovery_ns" u.Reconfig.up_recovery_ns ])
  in
  let run (r : Scenario.reconfig_result) =
    let books = r.Scenario.rc_ledger in
    Json.(
      Obj
        ([ str "plan" r.Scenario.rc_plan; str "leg" r.Scenario.rc_leg;
           int "offered" books.Engine.d_offered;
           int "delivered" books.Engine.d_delivered;
           int "drops" (Engine.drops books);
           int "vanished" (Engine.unaccounted books);
           bool "conserved" (Engine.conserved books);
           int "flow_mods" r.Scenario.rc_flow_mods;
           int "ovsdb_rows" r.Scenario.rc_ovsdb_rows;
           int "divergences" r.Scenario.rc_divergences;
           int "upcalls" r.Scenario.rc_upcalls;
           arr "events" event r.Scenario.rc_events ]
        @ List.map (fun u -> ("upgrade", upgrade u))
            (Option.to_list r.Scenario.rc_upgrade)))
  in
  let stats, violations, at_cutover = mc in
  Json.(
    Obj
      [ str "experiment" "reconfig"; arr "runs" run runs;
        ( "multicore",
          Obj
            [ int "domains" stats.Engine.s_units;
              int "offered" stats.Engine.s_offered;
              int "delivered" stats.Engine.s_delivered;
              int "dropped" stats.Engine.s_dropped;
              int "upcalls" stats.Engine.s_upcalls;
              int "violations" (List.length violations);
              int "delivered_at_cutover" at_cutover ] );
        ( "downtime",
          Obj
            [ num 0 "two_phase_recovery_ns" two_phase_rec;
              num 0 "naive_recovery_ns" naive_rec ] ) ])

let reconfig_exp () =
  section "Reconfig: OVSDB-driven control churn with hitless two-phase upgrade";
  let measure = 20_000 and frame_len = 64 and gbps = 25. in
  (* virtual duration of the measured window, for placing plan events *)
  let pkt_ns = 8. *. float_of_int (frame_len + 20) /. gbps in
  let t_total = float_of_int measure *. pkt_ns /. 1e9 in
  let legs =
    [
      ("kernel", Dpif.Kernel);
      ("afxdp", Dpif.Afxdp Dpif.afxdp_default);
      ("dpdk", Dpif.Dpdk);
    ]
  in
  let run ~naive ~latency kind =
    let plan =
      Reconfig.plan_of_string
        ~name:(if naive then "churn-naive" else "churn-two-phase")
        (reconfig_plan ~naive ~t_total)
    in
    Scenario.run_reconfig
      (Scenario.config ~kind ~frame_len ~gbps ~warmup:2_000 ~measure ~latency ())
      plan
  in
  row "%-8s %-16s %8s %9s %6s %9s %9s %5s %7s@." "leg" "plan" "offered"
    "delivered" "drops" "vanished" "flow_mods" "div" "upcalls";
  let report (r : Scenario.reconfig_result) =
    let books = r.Scenario.rc_ledger in
    row "%-8s %-16s %8d %9d %6d %9d %9d %5d %7d@." r.Scenario.rc_leg
      r.Scenario.rc_plan books.Engine.d_offered books.Engine.d_delivered
      (Engine.drops books) (Engine.unaccounted books) r.Scenario.rc_flow_mods
      r.Scenario.rc_divergences r.Scenario.rc_upcalls;
    List.iter
      (fun (e : Scenario.churn_event) ->
        row
          "    @%.6fs %-14s mods %2d dirty %3d retx %3d evicted %3d upcalls \
           %3d@."
          e.Scenario.e_at_s e.Scenario.e_label e.Scenario.e_flow_mods
          e.Scenario.e_dirty e.Scenario.e_retx e.Scenario.e_evicted
          e.Scenario.e_upcalls)
      r.Scenario.rc_events;
    if r.Scenario.rc_divergences <> 0 then
      fail_check "reconfig %s/%s: %d revalidator-oracle divergences"
        r.Scenario.rc_leg r.Scenario.rc_plan r.Scenario.rc_divergences
  in
  (* -- the two-phase plan on every engine leg: must be hitless -- *)
  let two_phase =
    List.map
      (fun (name, kind) ->
        let r = run ~naive:false ~latency:(name = "dpdk") kind in
        report r;
        let books = r.Scenario.rc_ledger in
        if not (Engine.conserved books) then
          fail_check
            "reconfig %s two-phase: %d packets vanished, %d in flight (want \
             0, 0): %s"
            name (Engine.unaccounted books) books.Engine.d_in_flight
            (Engine.render books);
        (match r.Scenario.rc_upgrade with
        | None -> fail_check "reconfig %s two-phase: no upgrade report" name
        | Some u ->
            if u.Reconfig.up_lost <> 0 then
              fail_check "reconfig %s two-phase: swap window lost %d (want 0)"
                name u.Reconfig.up_lost);
        if r.Scenario.rc_ovsdb_rows <> 4 then
          fail_check "reconfig %s: %d OVSDB rows round-tripped (want 4)" name
            r.Scenario.rc_ovsdb_rows;
        r)
      legs
  in
  (* -- the naive in-place swap: the storm and the loss are the point -- *)
  let naive = run ~naive:true ~latency:false Dpif.Dpdk in
  report naive;
  let vanished = Engine.unaccounted naive.Scenario.rc_ledger in
  if vanished <= 0 then
    fail_check "reconfig naive: expected a loss window, saw %d vanished: %s"
      vanished (Engine.render naive.Scenario.rc_ledger);
  (match naive.Scenario.rc_upgrade with
  | None -> fail_check "reconfig naive: no upgrade report"
  | Some u ->
      if u.Reconfig.up_lost <= 0 then
        fail_check "reconfig naive: swap window lost %d (want > 0)"
          u.Reconfig.up_lost;
      if u.Reconfig.up_upcall_burst <= 0 && u.Reconfig.up_evicted <= 0 then
        fail_check
          "reconfig naive: no invalidation storm (%d upcalls, %d evicted)"
          u.Reconfig.up_upcall_burst u.Reconfig.up_evicted);
  (* -- recovery: measured two-phase vs measured naive (Sec 6, dynamic) -- *)
  let rec_of (r : Scenario.reconfig_result) =
    match r.Scenario.rc_upgrade with
    | Some u -> u.Reconfig.up_recovery_ns
    | None -> 0.
  in
  let tp_rec =
    List.fold_left
      (fun a r -> Float.max a (rec_of r))
      0. two_phase
  in
  let nv_rec = rec_of naive in
  let static = Ovs_core.Upgrade.compare_downtime ~measured_recovery_ns:tp_rec () in
  let dynamic =
    Ovs_core.Upgrade.compare_downtime ~dynamic_baseline_ns:nv_rec
      ~measured_recovery_ns:tp_rec ()
  in
  row "@.two-phase vs modeled restart:  %a@." Ovs_core.Upgrade.pp_downtime
    static;
  row "two-phase vs measured naive:   %a@." Ovs_core.Upgrade.pp_downtime
    dynamic;
  if nv_rec <= tp_rec then
    fail_check
      "reconfig: naive recovery %.0f ns should exceed two-phase %.0f ns"
      nv_rec tp_rec;
  (* -- the appctl views over the episode -- *)
  (match two_phase with
  | r :: _ -> (
      match
        Ovs_tools.Tools.appctl ?upgrade:r.Scenario.rc_upgrade "dpif/upgrade-show"
      with
      | Ovs_tools.Tools.Ok_output s -> row "@.%s@." s
      | Ovs_tools.Tools.Not_supported e ->
          fail_check "reconfig: dpif/upgrade-show: %s" e)
  | [] -> ());
  (* -- the true-parallelism cutover on OCaml domains -- *)
  let mc =
    Scenario.run_reconfig_multicore ~n_domains:2
      (Scenario.config ~kind:Dpif.Dpdk ~frame_len ~measure:40_000 ())
      ~flows_before:
        [
          "table=0,priority=100,udp,actions=output:1";
          "table=0,priority=10,actions=output:1";
        ]
      ~flows_after:[ "table=0,priority=200,actions=output:1" ]
      ()
  in
  let stats, violations, at_cutover = mc in
  row
    "@.domains cutover: %d offered = %d delivered + %d dropped on %d domains; \
     swap landed at %d delivered@."
    stats.Engine.s_offered stats.Engine.s_delivered stats.Engine.s_dropped
    stats.Engine.s_units at_cutover;
  if violations <> [] then begin
    List.iter (fun v -> row "  violation: %s@." v) violations;
    fail_check "reconfig domains: %d oracle violations"
      (List.length violations)
  end;
  if at_cutover <= 0 || at_cutover >= stats.Engine.s_delivered then
    fail_check
      "reconfig domains: cutover at %d delivered is not mid-run (total %d)"
      at_cutover stats.Engine.s_delivered;
  emit "BENCH_reconfig.json"
    (reconfig_json (two_phase @ [ naive ]) ~mc ~two_phase_rec:tp_rec
       ~naive_rec:nv_rec)

(* ------------------------------------------------------------------ CLI *)

let all = [
  ("fig1", fig1); ("fig2", fig2); ("table1", table1); ("table2", table2);
  ("table3", table3); ("fig8", fig8); ("fig9", fig9); ("table4", table4);
  ("fig10", fig10); ("fig11", fig11); ("table5", table5); ("fig12", fig12);
  ("pmd", pmd_exp); ("stages", stages_exp); ("ablations", ablations);
  ("chaos", chaos_exp); ("ccache", ccache_exp); ("mc", mc_exp);
  ("multicore", multicore_exp); ("latency", latency_exp); ("ndr", ndr_exp);
  ("policy", policy_exp); ("scale", scale_exp); ("reconfig", reconfig_exp);
]

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--") in
  let args =
    List.filter
      (fun a -> if a = "--json" then (json_out := true; false) else true)
      args
  in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) all
  | names ->
      (* validate every name before running anything, so a typo exits
         nonzero without half the experiments' output above it *)
      let unknown = List.filter (fun n -> not (List.mem_assoc n all)) names in
      if unknown <> [] then begin
        Fmt.epr "unknown experiment%s: %s (have: %s)@."
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " (List.map fst all));
        exit 1
      end;
      List.iter (fun name -> List.assoc name all ()) names);
  if !failures <> [] then begin
    Fmt.epr "@.%d check%s failed:@." (List.length !failures)
      (if List.length !failures > 1 then "s" else "");
    List.iter (fun s -> Fmt.epr "  - %s@." s) (List.rev !failures);
    exit 1
  end
