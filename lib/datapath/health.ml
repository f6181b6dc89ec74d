(** The datapath health monitor: the resilience half of the fault
    subsystem (the paper's operational argument, Sec 2.1 — a userspace
    datapath can detect failure, restart, and re-sync instead of taking
    the host down).

    [check] is one sweep of the monitor thread: it reads carrier and
    progress state, restarts crashed PMDs once [restart_delay] of virtual
    time has passed since the crash (the process-respawn latency), and
    reclaims frames a leak fault quarantined once the pool runs low.
    Recovery bookkeeping turns the sweeps into the chaos bench's
    first-class measurements: time spent unhealthy and the number of
    full recoveries. *)

module Time = Ovs_sim.Time
module Coverage = Ovs_sim.Coverage
module Faults = Ovs_faults.Faults

let cov_check = Coverage.counter "health_check"
let cov_repair = Coverage.counter "health_repair"

type t = {
  dp : Dpif.t;
  rt : Pmd.t option;
  restart_delay : Time.ns;
  mutable events : (Time.ns * string) list;  (** newest first *)
  mutable unhealthy_since : Time.ns option;
  mutable last_recovery_ns : Time.ns option;
      (** duration of the most recent completed unhealthy episode *)
  mutable recoveries : int;
  mutable repairs : int;
  mutable last_rx : (int * int) list;  (** (pmd id, rx_packets) snapshot *)
}

let create ~dp ?rt ?(restart_delay = Time.us 150.) () =
  {
    dp;
    rt;
    restart_delay;
    events = [];
    unhealthy_since = None;
    last_recovery_ns = None;
    recoveries = 0;
    repairs = 0;
    last_rx = [];
  }

let event t ~now what = t.events <- (now, what) :: t.events

(* A PMD is stalled when it owns pending work but its rx counter has not
   advanced since the last sweep (the monitor's only view of a live
   thread: its counters). *)
let stalled_pmds t =
  match t.rt with
  | None -> []
  | Some rt ->
      let backlog =
        List.exists
          (fun (p : Dpif.port) -> Ovs_netdev.Netdev.pending p.Dpif.dev > 0)
          (Dpif.ports t.dp)
      in
      if not backlog then []
      else
        List.filter
          (fun p ->
            Pmd.alive p
            &&
            let rx = (Pmd.stats_of p).Pmd.rx_packets in
            match List.assoc_opt (Pmd.pmd_id p) t.last_rx with
            | Some prev -> rx = prev
            | None -> false)
          (Pmd.pmds rt)

let dead_pmds t =
  match t.rt with
  | None -> []
  | Some rt -> List.filter (fun p -> not (Pmd.alive p)) (Pmd.pmds rt)

let stale_ports t =
  List.filter
    (fun (p : Dpif.port) -> Faults.link_down ~port:p.Dpif.port_no)
    (Dpif.ports t.dp)

let leaky_pools t =
  List.filter_map
    (fun (p : Dpif.port) ->
      match Dpif.umem_pool t.dp ~port_no:p.Dpif.port_no with
      | Some pool when Ovs_xsk.Umempool.leaked_count pool > 0 -> Some pool
      | _ -> None)
    (Dpif.ports t.dp)

let healthy t =
  dead_pmds t = [] && stale_ports t = [] && leaky_pools t = []

(** One monitor sweep at virtual time [now]. Returns the number of
    repairs performed (PMD restarts + pool reclaims). *)
let check t ~now =
  Coverage.incr cov_check;
  let repaired = ref 0 in
  (* restart crashed PMDs once the respawn delay has elapsed *)
  (match t.rt with
  | None -> ()
  | Some rt ->
      List.iter
        (fun p ->
          match Faults.pmd_crashed_at ~pmd:(Pmd.pmd_id p) with
          | Some at when now -. at >= t.restart_delay ->
              Pmd.restart rt p;
              incr repaired;
              event t ~now
                (Printf.sprintf "pmd%d restarted (down %s)" (Pmd.pmd_id p)
                   (Fmt.str "%a" Time.pp_ns (now -. at)))
          | Some _ | None -> ())
        (dead_pmds t));
  (* reclaim quarantined frames when a pool is running low, or once the
     fault windows have passed (the monitor's quarantine scan runs under
     pressure or at quiesce, not while the buggy path is still firing) *)
  List.iter
    (fun pool ->
      if Ovs_xsk.Umempool.available pool < 64 || not (Faults.pending_windows ())
      then begin
        let n = Ovs_xsk.Umempool.reclaim_leaked pool in
        if n > 0 then begin
          incr repaired;
          event t ~now (Printf.sprintf "reclaimed %d leaked umem frames" n)
        end
      end)
    (leaky_pools t);
  (* stall detection is observational: a stalled PMD is reported, not
     killed — the fault window ending un-stalls it *)
  List.iter
    (fun p ->
      event t ~now (Printf.sprintf "pmd%d stalled (no rx progress)" (Pmd.pmd_id p)))
    (stalled_pmds t);
  (match t.rt with
  | None -> ()
  | Some rt ->
      t.last_rx <-
        List.map (fun p -> (Pmd.pmd_id p, (Pmd.stats_of p).Pmd.rx_packets))
          (Pmd.pmds rt));
  (* recovery bookkeeping *)
  (match (t.unhealthy_since, healthy t) with
  | None, false -> t.unhealthy_since <- Some now
  | Some since, true ->
      t.last_recovery_ns <- Some (now -. since);
      t.recoveries <- t.recoveries + 1;
      t.unhealthy_since <- None;
      event t ~now
        (Fmt.str "recovered after %a" Time.pp_ns (now -. since))
  | None, true | Some _, false -> ());
  if !repaired > 0 then Coverage.incr ~n:!repaired cov_repair;
  t.repairs <- t.repairs + !repaired;
  !repaired

let last_recovery t = t.last_recovery_ns
let repairs t = t.repairs

(** dpif/health-show. *)
let render t ~now =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "health: %s\n" (if healthy t then "OK" else "DEGRADED");
  (match t.rt with
  | None -> ()
  | Some rt ->
      List.iter
        (fun p ->
          add "  pmd%d: %s, %d restarts, rx %d, lost %d\n"
            (Pmd.pmd_id p)
            (if Pmd.alive p then
               if List.memq p (stalled_pmds t) then "stalled" else "alive"
             else "down")
            (Pmd.restarts p)
            (Pmd.stats_of p).Pmd.rx_packets (Pmd.stats_of p).Pmd.lost)
        (Pmd.pmds rt));
  List.iter
    (fun (p : Dpif.port) ->
      let d = p.Dpif.dev in
      add "  port %d (%s): %s, pending %d, rx_dropped %d%s\n" p.Dpif.port_no
        d.Ovs_netdev.Netdev.name
        (if Faults.link_down ~port:p.Dpif.port_no then "carrier DOWN"
         else "carrier up")
        (Ovs_netdev.Netdev.pending d)
        d.Ovs_netdev.Netdev.stats.Ovs_netdev.Netdev.rx_dropped
        (match Dpif.umem_pool t.dp ~port_no:p.Dpif.port_no with
        | Some pool ->
            Printf.sprintf ", umem %d free / %d leaked"
              (Ovs_xsk.Umempool.available pool)
              (Ovs_xsk.Umempool.leaked_count pool)
        | None -> ""))
    (Dpif.ports t.dp);
  add "  recoveries: %d (repairs %d)" t.recoveries t.repairs;
  (match t.last_recovery_ns with
  | Some ns -> add ", last took %s" (Fmt.str "%a" Time.pp_ns ns)
  | None -> ());
  (match t.unhealthy_since with
  | Some since ->
      add "\n  unhealthy for %s" (Fmt.str "%a" Time.pp_ns (now -. since))
  | None -> ());
  Buffer.add_char b '\n';
  (match t.events with
  | [] -> ()
  | evs ->
      add "  recent events:\n";
      List.iteri
        (fun i (at, what) ->
          if i < 8 then add "    [%s] %s\n" (Fmt.str "%a" Time.pp_ns at) what)
        evs);
  Buffer.contents b
