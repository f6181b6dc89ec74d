(** The chaos bench: every fault plan from the catalog, run against the
    datapath legs it applies to ([bench -- chaos]).

    Each run is three measurement phases on one warm rig
    ({!Scenario.run_chaos}): an unfaulted baseline, the same traffic with
    the plan armed (drained until every fault window has closed and the
    health monitor reports healthy), and an unfaulted post-recovery
    phase. A run passes when packet conservation is exact — offered =
    delivered + accounted drops with nothing left in flight — and the
    post-recovery rate is within 1% of the in-run baseline (same
    scenario, same seed). *)

module Time = Ovs_sim.Time
module Faults = Ovs_faults.Faults
module Dpif = Ovs_datapath.Dpif
module Engine = Ovs_datapath.Engine
module Netdev = Ovs_netdev.Netdev

(** The datapath legs a plan can run against. [Afxdp_leg] is AF_XDP with
    one PMD on one rx queue; [Pmd_leg] is AF_XDP with two PMDs over two
    rx queues — the leg the PMD stall, crash and upcall-storm plans
    target. *)
type leg = Kernel_leg | Afxdp_leg | Pmd_leg

let leg_name = function
  | Kernel_leg -> "kernel"
  | Afxdp_leg -> "afxdp"
  | Pmd_leg -> "pmd"

let all_legs = [ Kernel_leg; Afxdp_leg; Pmd_leg ]
let userspace_legs = [ Afxdp_leg; Pmd_leg ]

(** One catalog entry: a fault plan plus the scenario knobs it needs
    (ingress policy, strict matching for mangled traffic, a conntrack
    zone for pressure faults) and the legs it applies to. *)
type spec = {
  s_name : string;
  s_legs : leg list;
  s_plan : Faults.plan;
  s_rx_policy : Netdev.rx_policy;
  s_strict : bool;
  s_ct_zone : int option;
}

(* windows are milliseconds of virtual time after the faulted phase
   starts (phase B resets every core's clock) *)
let window name action ~at ~dur =
  {
    Faults.f_name = name;
    f_action = action;
    f_start = Time.ms at;
    f_stop = Time.ms (at +. dur);
  }

let entry ?(legs = all_legs) ?(rx_policy = Netdev.Rx_drop) ?(strict = false)
    ?ct_zone name faults =
  {
    s_name = name;
    s_legs = legs;
    s_plan = Faults.plan ~name faults;
    s_rx_policy = rx_policy;
    s_strict = strict;
    s_ct_zone = ct_zone;
  }

(* the ingress NIC is always the datapath's port 0, the egress port 1;
   PMD ids start at 0 *)
let catalog =
  [
    entry "link_flap"
      [
        window "flap1" (Faults.Link_down { port = 0 }) ~at:0.2 ~dur:0.3;
        window "flap2" (Faults.Link_down { port = 0 }) ~at:0.9 ~dur:0.3;
      ];
    entry "rxq_stall"
      [ window "stall" (Faults.Rxq_stall { port = 0; queue = -1 }) ~at:0.2 ~dur:0.4 ];
    entry "backpressure" ~legs:[ Afxdp_leg ] ~rx_policy:Netdev.Rx_backpressure
      [ window "stall" (Faults.Rxq_stall { port = 0; queue = -1 }) ~at:0.2 ~dur:0.4 ];
    entry "umem_leak" ~legs:userspace_legs
      [ window "leak" (Faults.Umem_leak { frames = 512 }) ~at:0.2 ~dur:0.4 ];
    entry "umem_exhaust" ~legs:userspace_legs
      [ window "exhaust" Faults.Umem_exhaust ~at:0.2 ~dur:0.3 ];
    entry "pmd_stall" ~legs:[ Pmd_leg ]
      [ window "stall" (Faults.Pmd_stall { pmd = 0 }) ~at:0.2 ~dur:0.4 ];
    entry "pmd_crash" ~legs:[ Pmd_leg ]
      [ window "crash" (Faults.Pmd_crash { pmd = 0 }) ~at:0.2 ~dur:0.05 ];
    entry "upcall_storm" ~legs:[ Pmd_leg ]
      [ window "storm" Faults.Upcall_storm ~at:0.2 ~dur:0.3 ];
    entry "pkt_mangle" ~legs:[ Kernel_leg; Afxdp_leg ] ~strict:true
      [
        window "truncate" (Faults.Pkt_truncate { prob = 0.2 }) ~at:0.2 ~dur:0.8;
        window "corrupt" (Faults.Pkt_corrupt { prob = 0.2 }) ~at:0.2 ~dur:0.8;
      ];
    entry "ct_pressure" ~legs:[ Kernel_leg; Afxdp_leg ] ~ct_zone:7
      [
        window "pressure" (Faults.Ct_pressure { zone = 7; limit = 16 }) ~at:0.2
          ~dur:0.8;
      ];
  ]

let leg_config (s : spec) leg =
  (* latency is armed on every leg so each run also proves timestamp
     conservation under faults: samples recorded == packets delivered *)
  let base ~kind ~queues =
    Scenario.config ~kind ~queues ~n_flows:64 ~measure:20_000
      ~rx_policy:s.s_rx_policy ~strict_match:s.s_strict
      ~ct_zone:s.s_ct_zone ~latency:true ()
  in
  match leg with
  | Kernel_leg -> base ~kind:Dpif.Kernel ~queues:1
  | Afxdp_leg -> base ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~queues:1
  | Pmd_leg -> base ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~queues:2

(** One chaos run, judged. *)
type row = {
  row_plan : string;
  row_leg : leg;
  row_res : Scenario.chaos_result;
  row_recovered : bool;  (** post-recovery rate within 1% of baseline *)
  row_latency_ok : bool;
      (** timestamp conservation: sojourn samples == delivered packets
          (dropped/mangled/crash-killed packets leaked nothing) *)
  row_pass : bool;  (** conservation exact, recovered, no leaked stamps *)
}

let judge plan leg (res : Scenario.chaos_result) =
  let recovered =
    res.Scenario.c_post_mpps >= 0.99 *. res.Scenario.c_baseline_mpps
  in
  let latency_ok =
    res.Scenario.c_latency_count < 0
    || res.Scenario.c_latency_count
       = res.Scenario.c_ledger.Engine.d_delivered
  in
  {
    row_plan = plan;
    row_leg = leg;
    row_res = res;
    row_recovered = recovered;
    row_latency_ok = latency_ok;
    row_pass =
      Engine.conserved res.Scenario.c_ledger && recovered && latency_ok;
  }

let run_one (s : spec) leg =
  let res = Scenario.run_chaos (leg_config s leg) s.s_plan in
  judge s.s_name leg res

let run_all () =
  List.concat_map (fun s -> List.map (run_one s) s.s_legs) catalog

let all_pass rows = List.for_all (fun r -> r.row_pass) rows

(** {1 Rendering} *)

let render rows =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%-13s %-7s %9s %9s %9s  %9s %7s %6s %10s  %s\n" "plan" "leg"
    "base Mpps" "fault" "post" "offered" "drops" "lost" "recovery" "verdict";
  List.iter
    (fun r ->
      let c = r.row_res in
      let books = c.Scenario.c_ledger in
      let offered = books.Engine.d_offered
      and delivered = books.Engine.d_delivered in
      add "%-13s %-7s %9.3f %9.3f %9.3f  %9d %7d %6d %10s  %s\n" r.row_plan
        (leg_name r.row_leg) c.Scenario.c_baseline_mpps
        c.Scenario.c_faulted_mpps c.Scenario.c_post_mpps offered
        (Engine.drops books) (offered - delivered)
        (match c.Scenario.c_recovery_ns with
        | Some ns -> Fmt.str "%a" Time.pp_ns ns
        | None -> "-")
        (if r.row_pass then "PASS"
         else if not (Engine.conserved books) then
           Printf.sprintf "LEAK (%s)" (Engine.render books)
         else if not r.row_latency_ok then
           Printf.sprintf "STAMP-LEAK (%d samples, %d delivered)"
             c.Scenario.c_latency_count delivered
         else "DEGRADED"))
    rows;
  Buffer.contents b
