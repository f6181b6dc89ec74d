(** The virtual-time execution engine: the deterministic single-thread
    scheduler the simulator has always used, now packaged behind the
    {!Engine} interface.

    This module is a thin wrapper — one {!step} is exactly the poll sweep
    the traffic rig ran before the redesign: every PMD (or legacy
    per-queue context) polls once. It charges the same virtual
    nanoseconds in the same order, so charged cycles are byte-identical
    to the pre-engine scheduler (pinned by the determinism test in
    [test/test_engine.ml]).

    The schedule explorer ([lib/mc]) takes the poll-mode runtime from
    {!runtime} and schedules {!Pmd}'s single-phase steps itself. *)

module Cpu = Ovs_sim.Cpu

type t = {
  dp : Dpif.t;
  machine : Cpu.t;
  softirq : Cpu.ctx array;  (** kernel-side context per queue *)
  legacy : Cpu.ctx array;
      (** one-context-per-queue loop (pre-O1); empty when [rt] is set *)
  rt : Pmd.t option;  (** the poll-mode runtime, when [n_pmds >= 1] *)
  port_no : int;
  queues : int;
  mutable offered : int;  (** maintained by the owner via {!note_offered} *)
  ct_sweep_budget : int option;
      (** when set, each {!step} runs one bounded conntrack expiry
          sweep with this per-step budget — the PMD-amortized lazy
          expiry. [None] (the default) changes nothing: charged cycles
          stay byte-identical to the pre-subsystem engine. *)
}

let name = "vt"

let create ~dp ~machine ~softirq ~legacy ~rt ~port_no ~queues
    ?ct_sweep_budget () =
  { dp; machine; softirq; legacy; rt; port_no; queues; offered = 0;
    ct_sweep_budget }

let runtime t = t.rt

(** The traffic rig reports packets it offered, so engine stats can close
    the conservation triangle (offered = delivered + dropped + queued). *)
let note_offered t n = t.offered <- t.offered + n

let start _ = ()

(* One poll sweep over the pmd leg — byte-identical to the pre-engine
   rig loop: the runtime's poll_all, or one Dpif.poll per legacy queue
   context, in queue order. *)
let step t =
  let polled =
    match t.rt with
    | Some rt -> Pmd.poll_all rt
    | None ->
        let polled = ref 0 in
        for q = 0 to t.queues - 1 do
          polled :=
            !polled
            + Dpif.poll t.dp ~softirq:t.softirq.(q) ~pmd:t.legacy.(q)
                ~port_no:t.port_no ~queue:q ()
        done;
        !polled
  in
  (match t.ct_sweep_budget with
  | Some budget ->
      ignore
        (Ovs_conntrack.Conntrack.sweep_bounded (Dpif.conntrack t.dp)
           ~now:(Dpif.now t.dp) ~budget)
  | None -> ());
  polled

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
             (Array.sub t.legacy 0 (Int.min t.queues (Array.length t.legacy))))
  in
  let delivered = c.Dp_core.sent in
  {
    Engine.s_engine = name;
    s_units =
      (match t.rt with Some rt -> Pmd.n_pmds rt | None -> t.queues);
    s_offered = t.offered;
    s_delivered = delivered;
    s_dropped = c.Dp_core.dropped;
    s_upcalls = c.Dp_core.upcalls;
    s_wall_ns = wall;
    s_mpps = Engine.mpps ~delivered ~wall_ns:wall;
    s_units_detail = units_detail;
    s_latency = Some (Dpif.latency t.dp);
  }

let stop t = stats t

let handle t = Engine.Handle ((module struct
  type nonrec t = t

  let name = name
  let start = start
  let step = step
  let stats = stats
  let stop = stop
end), t)
