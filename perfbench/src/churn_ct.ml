(* churn-ct: the shape of `bench -- scale`, shrunk to a shared host. A
   Zipf-0.9 mix over 10,000 slots with connection churn (1,000 births
   per virtual second, each with a synthesized reply) through a
   ct(commit) two-table pipeline with sharded conntrack; a bounded
   conntrack sweep every virtual tick, and rounds of rule churn aimed at
   live subnets (Maintenance.churn), each followed by an incremental
   revalidation. A burst is 32 Dpif.process calls, preceded by the sweeps
   and the revalidation that came due since the last burst: they block
   the one driving thread, so they land in that burst's time. *)

module Dpif = Ovs_datapath.Dpif
module Netdev = Ovs_netdev.Netdev
module Pktgen = Ovs_trafficgen.Pktgen
module Ct = Ovs_conntrack.Conntrack
module P = Ovs_packet
module Buffer = P.Buffer
module H = Harness

let n_flows = 10_000
let births_per_s = 1_000.
let tick_ns = 100e6
let bg_per_tick = 300
let round_ticks = 50
let rules_per_round = 200
let sweep_budget = 10_000
let shards = 8
let zone = 1
let zone_limit = 2_000_000

(* past the 120 s bidirectional-UDP timeout, so the tracked population
   (about 10k live + 120k lingering) is steady before measuring *)
let warmup_ticks = 1_250
let setup_runs = 3
let chunk_pkts = 4_096

type traced = {
  w : Walk.t;
  gc : H.gc_acc;
  charged : float array;
  wpkts : Buffer.t array;
}

type rig = {
  dp : Dpif.t;
  gen : Pktgen.t;
  delivered : int ref;
  queue : Buffer.t Queue.t;  (** generated, not yet offered *)
  pkts : Buffer.t array;
  mutable vnow : float;
  mutable ticks : int;
  mutable sweeps_due : int;
  mutable reval_due : bool;
  mutable reval_ran : bool;
  mutable rounds : int;
  mutable divergences : int;
  mutable install_ns : int;
  mutable rule_ops : int;
  mutable sampling : bool;  (** record slow-path call times (measured phase) *)
  mutable upcall_ns : int array;
  mutable n_upcalls : int;
  mutable upcall_first : int;  (** first sample of the open chunk *)
  tr : traced option;
}

let no_charge _ _ = ()

let charge rig =
  match rig.tr with
  | None -> no_charge
  | Some t -> fun _ ns -> t.charged.(0) <- t.charged.(0) +. ns

let ct rig = Dpif.conntrack rig.dp

(* One virtual tick of traffic into the queue: births (first packet plus
   the server's reply, which moves the UDP connection to its long
   bidirectional timeout) and Zipf background packets. *)
let tick rig ~background =
  rig.vnow <- rig.vnow +. tick_ns;
  rig.ticks <- rig.ticks + 1;
  rig.sweeps_due <- rig.sweeps_due + 1;
  let gen = rig.gen in
  let add pkt =
    pkt.Buffer.in_port <- 0;
    Queue.add pkt rig.queue
  in
  List.iter
    (fun i ->
      add (Buffer.clone gen.Pktgen.templates.(i));
      add
        (P.Build.udp ~frame_len:64 ~src_mac:(P.Mac.of_index 2) ~dst_mac:(P.Mac.of_index 1)
           ~src_ip:gen.Pktgen.slot_dst.(i)
           ~dst_ip:(gen.Pktgen.slot_src.(i) + (gen.Pktgen.gens.(i) * 0x10000))
           ~src_port:(2048 + (i lsr 12))
           ~dst_port:(1024 + (i land 0xFFF))
           ()))
    (Pktgen.churn_tick gen ~now:rig.vnow);
  if background then
    for _ = 1 to bg_per_tick do
      add (Pktgen.next gen)
    done

let prepare ?(background = true) rig () =
  while Queue.length rig.queue < H.burst do
    tick rig ~background
  done;
  for i = 0 to H.burst - 1 do
    rig.pkts.(i) <- Queue.pop rig.queue
  done;
  Option.iter (fun t -> Array.iteri (fun i p -> t.wpkts.(i) <- Buffer.clone p) rig.pkts) rig.tr;
  H.burst

(* the maintenance due before this burst's packets *)
let maintain rig =
  Dpif.set_time rig.dp rig.vnow;
  for _ = 1 to rig.sweeps_due do
    ignore (Ct.sweep_bounded (ct rig) ~now:rig.vnow ~budget:sweep_budget : int)
  done;
  if rig.reval_due then ignore (Dpif.revalidate_incremental rig.dp)

let walk_maintain rig w =
  w.Walk.now <- rig.vnow;
  for _ = 1 to rig.sweeps_due do
    Walk.sweep_ct w ~budget:sweep_budget
  done;
  if rig.reval_due then Walk.revalidate w

let after_burst rig =
  rig.sweeps_due <- 0;
  rig.reval_ran <- rig.reval_due;
  rig.reval_due <- false

(* Here every new connection can reach the slow path, so upcall latency
   is sampled from the traffic itself: each Dpif.process of the measured
   phase is timed, and the ones that upcalled are kept. *)
let process_sampled rig pkt =
  let c = Dpif.counters rig.dp in
  let u0 = c.Ovs_datapath.Dp_core.upcalls in
  let t0 = H.now () in
  Dpif.process rig.dp no_charge pkt;
  let t1 = H.now () in
  if rig.sampling && c.Ovs_datapath.Dp_core.upcalls > u0 then begin
    if rig.n_upcalls = Array.length rig.upcall_ns then begin
      let a = Array.make (2 * rig.n_upcalls) 0 in
      Array.blit rig.upcall_ns 0 a 0 rig.n_upcalls;
      rig.upcall_ns <- a
    end;
    rig.upcall_ns.(rig.n_upcalls) <- t1 - t0;
    rig.n_upcalls <- rig.n_upcalls + 1
  end

let fire rig () =
  let r =
    match rig.tr with
    | None ->
        H.timed (fun () ->
            maintain rig;
            Array.iter (process_sampled rig) rig.pkts)
    | Some t ->
        let w = t.w and charge = charge rig in
        let t0 = H.now () in
        Walk.enter w Walk.k_burst;
        H.with_gc t.gc (fun () ->
            Walk.enter w Walk.k_maint;
            maintain rig;
            Walk.leave w;
            Array.iter
              (fun p ->
                Walk.enter w Walk.k_process;
                Dpif.process rig.dp charge p;
                Walk.leave w)
              rig.pkts);
        let t1 = H.now () in
        walk_maintain rig w;
        Array.iter (Walk.process w) t.wpkts;
        Walk.leave w;
        Perfbench.Spans.end_burst w.Walk.sp;
        (t1 - t0, 0.)
  in
  after_burst rig;
  r

let build ~seed ~traced () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:2 () in
  ignore
    (Ovs_ofproto.Parser.install_flows pipeline
       [
         Printf.sprintf "table=0,priority=0 actions=ct(commit,zone=%d,table=1)" zone;
         "table=1,priority=0 actions=output:1";
       ]
      : int);
  let dp = Dpif.create ~kind:(Dpif.Afxdp Dpif.afxdp_default) ~pipeline () in
  let delivered = ref 0 in
  for i = 0 to 1 do
    let d = Netdev.create ~name:(Printf.sprintf "ct%d" i) () in
    Netdev.set_tx_sink d (fun _ _ -> incr delivered);
    ignore (Dpif.add_port dp d : int)
  done;
  Dpif.set_ct_shards dp shards;
  Ct.set_zone_limit (Dpif.conntrack dp) ~zone ~limit:zone_limit;
  Dpif.set_revalidator_enabled dp true;
  let gen =
    Pktgen.create ~seed ~mix:(Pktgen.Zipf 0.9) ~churn:{ Pktgen.flows_per_s = births_per_s }
      ~n_flows ~frame_len:64 ()
  in
  let tr =
    if not traced then None
    else begin
      let w =
        Walk.create ~keep:64 ~ct_shards:shards ~reval:true
          ~csum_offload:(Dpif.afxdp_opts dp).Dpif.csum_offload
          (fun () -> Dpif.pipeline dp)
      in
      Ct.set_zone_limit w.Walk.ct ~zone ~limit:zone_limit;
      Some { w; gc = H.gc_acc (); charged = [| 0. |]; wpkts = Array.make H.burst gen.Pktgen.templates.(0) }
    end
  in
  let rig =
    { dp; gen; delivered; queue = Queue.create (); pkts = Array.make H.burst gen.Pktgen.templates.(0);
      vnow = 0.; ticks = 0; sweeps_due = 0; reval_due = false; reval_ran = false; rounds = 0;
      divergences = 0; install_ns = 0; rule_ops = 0; sampling = false;
      upcall_ns = Array.make 65536 0; n_upcalls = 0; upcall_first = 0; tr }
  in
  (* generation 0 arrives at once, then the churn runs until the tracked
     population is steady *)
  Array.iter
    (fun t ->
      let pkt = Buffer.clone t in
      pkt.Buffer.in_port <- 0;
      Queue.add pkt rig.queue)
    gen.Pktgen.templates;
  while rig.ticks < warmup_ticks do
    ignore (prepare ~background:false rig ());
    ignore (fire rig ())
  done;
  rig

let dropped rig = (Dpif.counters rig.dp).Ovs_datapath.Dp_core.dropped

exception Deadline

(* The measured phase: Maintenance.churn drives the rule rounds; each
   round's revalidation callback offers one round of traffic, the first
   burst of which runs the incremental revalidation; the flush-all check
   runs after that burst, off the clock. *)
let churn_phase rig ph ~seed ~seconds =
  let deadline = H.now () + int_of_float (seconds *. 1e9) in
  let lifetime_ns = float_of_int n_flows /. births_per_s *. 1e9 in
  let subnet_of r =
    let g = int_of_float (rig.vnow /. lifetime_ns) in
    (10 lsl 24) lor ((1 + g) lsl 16) lor ((r mod 4) lsl 8)
  in
  let left = ref 0 in
  let revalidate () =
    let entered = H.now () in
    if rig.rounds > 0 then begin
      rig.install_ns <- rig.install_ns + (entered - !left);
      rig.rule_ops <- rig.rule_ops + (2 * rules_per_round)
    end;
    rig.rounds <- rig.rounds + 1;
    rig.reval_due <- true;
    let round_end = rig.ticks + round_ticks in
    while rig.ticks < round_end do
      let n = prepare rig () in
      let d0 = !(rig.delivered) in
      let ns, words = fire rig () in
      H.record ph ~ns ~offered:n ~delivered:(!(rig.delivered) - d0) ~words;
      if rig.reval_ran then begin
        let full, _, div = Dpif.revalidate_check rig.dp in
        rig.divergences <- rig.divergences + full + div;
        rig.reval_ran <- false
      end;
      if H.now () > deadline then raise Deadline
    done;
    left := H.now ();
    0
  in
  (try
     ignore
       (Ovs_nsx.Maintenance.churn ~table:1 ~seed ~subnet_of
          ~mk_actions:(fun ~round:_ ~k:_ -> [ Ovs_ofproto.Action.Output 1 ])
          ~pipeline:(Dpif.pipeline rig.dp) ~rounds:max_int ~rules_per_round ~revalidate
          ~retrain:ignore ()
         : Ovs_nsx.Maintenance.churn_stats)
   with Deadline -> ());
  H.finish ph

let measured ~seed ~seconds ~traced ~n_setups =
  let rig, setup_s, n = H.setups n_setups (build ~seed ~traced) in
  let ph = H.phase ~chunk_pkts in
  Dpif.reset_measurement rig.dp;
  Option.iter
    (fun t ->
      Walk.reset_counters t.w;
      H.reset_gc t.gc;
      Perfbench.Spans.reset t.w.Walk.sp;
      t.charged.(0) <- 0.)
    rig.tr;
  let d0 = !(rig.delivered) and x0 = dropped rig in
  rig.sampling <- true;
  (* slow-path samples take their chunk's host factor; those after the
     last full chunk are left out with its bursts *)
  ph.H.on_chunk <-
    (fun f ->
      for i = rig.upcall_first to rig.n_upcalls - 1 do
        rig.upcall_ns.(i) <- Float.to_int (Float.round (float_of_int rig.upcall_ns.(i) *. f))
      done;
      rig.upcall_first <- rig.n_upcalls);
  churn_phase rig ph ~seed ~seconds;
  rig.n_upcalls <- rig.upcall_first;
  (rig, ph, setup_s, n, (d0, x0))

let checks rig ~offered ~d0 ~x0 =
  let delivered = !(rig.delivered) - d0 and drops = dropped rig - x0 in
  ( offered - delivered - drops,
    [
      H.check "conservation" (offered = delivered + drops)
        (Printf.sprintf "offered %d, delivered %d + dropped %d" offered delivered drops);
      H.check "revalidate-check" (rig.divergences = 0 && rig.rounds > 0)
        (Printf.sprintf "%d rounds, %d stale or divergent megaflows after the incremental pass"
           rig.rounds rig.divergences);
      H.check "zone-limit" (Ct.limit_drops (ct rig) = 0)
        (Printf.sprintf "%d zone-limit drops" (Ct.limit_drops (ct rig)));
    ] )

let run_e2e ~seed ~seconds =
  let rig, ph, setup_s, n_setups, (d0, x0) =
    measured ~seed ~seconds ~traced:false ~n_setups:setup_runs
  in
  let conns = Ct.active_conns (ct rig) in
  let upcalls = Array.init rig.n_upcalls (fun i -> H.us_of_ns rig.upcall_ns.(i)) in
  let offered = ph.H.offered in
  let failed, checks = checks rig ~offered ~d0 ~x0 in
  let values, report, sampled = H.e2e_values ph ~setup_s ~n_setups ~upcalls in
  {
    H.values;
    attempted = offered;
    failed;
    checks = checks @ [ sampled ];
    report =
      report
      @ [
          Printf.sprintf "  %d tracked connections at %.0f virtual s; %d rule rounds" conns
            (rig.vnow /. 1e9) rig.rounds;
        ];
  }

let run_traced ~seed ~seconds =
  let _, base, _, _, _ = measured ~seed ~seconds:(seconds /. 2.) ~traced:false ~n_setups:1 in
  let rig, ph, _, _, (d0, x0) = measured ~seed ~seconds:(seconds /. 2.) ~traced:true ~n_setups:1 in
  let t = Option.get rig.tr in
  let packets = ph.H.offered in
  let counters = Walk.counter_checks t.w (Dpif.counters rig.dp) in
  let values =
    Walk.layer_values t.w ~dp:rig.dp ~packets ~gc:t.gc ~charged_ns:t.charged.(0)
      ~install_us_per_rule:
        (if rig.rule_ops = 0 then 0.
         else float_of_int rig.install_ns /. 1e3 /. float_of_int rig.rule_ops)
      ~sweep_budget
  in
  let failed, checks = checks rig ~offered:packets ~d0 ~x0 in
  Walk.traced_outcome t.w ~name:"churn-ct" ~seed ~base ~ph ~values ~checks:(checks @ counters)
    ~failed
