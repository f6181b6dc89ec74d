(** The virtual-time execution engine: the deterministic single-thread
    scheduler the simulator has always used.

    One {!step} is one poll sweep over the phy leg. On a userspace
    datapath that is the poll-mode runtime's main-loop iteration (every
    PMD polls each of its rxqs once); on the kernel flavours, which have
    no PMD, it is one softirq poll per queue. Charged cycles are pinned
    byte for byte by the determinism goldens in [test/test_engine.ml].

    The schedule explorer ([lib/mc]) takes the poll-mode runtime from
    {!runtime} and schedules {!Pmd}'s single-phase steps itself. *)

module Cpu = Ovs_sim.Cpu

type t = {
  dp : Dpif.t;
  machine : Cpu.t;
  softirq : Cpu.ctx array;  (** kernel-side context per queue *)
  rt : Pmd.t option;  (** the poll-mode runtime; [None] on kernel flavours *)
  port_no : int;
  mutable offered : int;  (** maintained by the owner via {!note_offered} *)
}

let create ~dp ~machine ~softirq ~rt ~port_no () =
  { dp; machine; softirq; rt; port_no; offered = 0 }

let runtime t = t.rt

(** The traffic rig reports packets it offered, so engine stats can close
    the conservation triangle (offered = delivered + dropped + queued). *)
let note_offered t n = t.offered <- t.offered + n

(* One poll sweep over the phy leg: the runtime's poll_all, or one
   softirq poll per queue in queue order (kernel flavours charge only
   the softirq context, so it doubles as the unused [pmd] argument). *)
let step t =
  match t.rt with
  | Some rt -> Pmd.poll_all rt
  | None ->
      let polled = ref 0 in
      Array.iteri
        (fun q s ->
          polled :=
            !polled
            + Dpif.poll t.dp ~softirq:s ~pmd:s ~port_no:t.port_no ~queue:q ())
        t.softirq;
      !polled

let stats t =
  let c = Dpif.counters t.dp in
  let wall = Cpu.wall t.machine in
  let units_detail =
    match t.rt with
    | Some rt ->
        List.map
          (fun (r : Pmd.report) ->
            {
              Engine.ul_name = Printf.sprintf "pmd%d" r.Pmd.r_pmd;
              ul_packets = r.Pmd.r_stats.Pmd.rx_packets;
              ul_busy_ns = r.Pmd.r_busy_ns;
            })
          (Pmd.reports ~wall rt)
    | None ->
        Array.to_list
          (Array.map
             (fun (ctx : Cpu.ctx) ->
               {
                 Engine.ul_name = ctx.Cpu.name;
                 ul_packets = 0;
                 ul_busy_ns = Cpu.busy ctx;
               })
             t.softirq)
  in
  let delivered = c.Dp_core.sent in
  {
    Engine.s_engine = "vt";
    s_units = List.length units_detail;
    s_offered = t.offered;
    s_delivered = delivered;
    s_dropped = c.Dp_core.dropped;
    s_upcalls = c.Dp_core.upcalls;
    s_wall_ns = wall;
    s_mpps = Engine.mpps ~delivered ~wall_ns:wall;
    s_units_detail = units_detail;
    s_latency = Some (Dpif.latency t.dp);
  }
