(** The real-parallelism execution engine: each PMD context is an OCaml
    [Domain.t] running its own {!Dp_core} over the shared pipeline, and
    throughput is wall-clock Mpps — the first measurement of the paper's
    O1–O3 optimizations under genuine contention rather than charged
    virtual cycles.

    Topology (one P2P forwarding rig, self-contained; ingress port 0,
    egress port 1):

    {v
                         +--------------- injector domain ---------------+
                         | pops fill(q), DMAs a template, pushes rx(q)   |
                         +--+--------------------+--------------------+--+
                            v                    v                    v
      ingress umem     [rx ring 0]          [rx ring 1]   ...    [rx ring n-1]
      + shared pool         |                    |                    |
      (real Mutex)     PMD domain 0         PMD domain 1         PMD domain n-1
                       Dp_core.process      Dp_core.process      Dp_core.process
                       EMC, dpcls, execute  (own caches)         (own caches)
                         |       \
          output:1: copy to       \ full miss: deferred to the burst's end,
          egress frame, tx         v
                             handle_upcall under the slow-path mutex:
                             re-probe the core's dpcls; on a true miss,
                             ofproto translation over the shared
                             pipeline, install; execute
    v}

    Sharing discipline (who touches what):
    - every descriptor ring has exactly one producer domain and one
      consumer domain ({!Ovs_xsk.Ring} with [Atomic.t] cursors): the
      injector consumes fill rings and produces rx rings; each PMD
      produces its own fill ring and consumes its own rx ring. Each
      socket gets private fill/completion rings (XDP_SHARED_UMEM style),
      which is what keeps the rings SPSC across domains.
    - the umempools are the {e shared} state, exactly as the paper says
      ("any PMD thread may need to return a frame to any pool"): every
      PMD refills from and recycles to them under a real [Mutex.t]
      ([Umempool.create ~contended:true]), with per-frame acquisitions
      under the [Mutex]/[Spinlock] strategies and one per batch under
      [Spinlock_batched] — so O3's advantage is measurable in wall time.
    - flow state is per PMD: each domain owns a {!Dp_core.t} with its own
      EMC, SMC, dpcls and conntrack, as dpif-netdev gives each PMD thread
      its own (paper §3.2, O1). The fast path takes no lock.
    - the {!Ovs_ofproto.Pipeline.t} is the one shared classifier.
      Translation writes to it (its counters, rule hit counts, NORMAL's
      MAC table), so all translation — a PMD's deferred upcalls and its
      cutover to a new pipeline — runs under one slow-path [Mutex.t].
    - packet bytes cross domains only through umem frames, published by
      the ring-cursor [Atomic.set] and acquired by the matching
      [Atomic.get] (see DESIGN.md for the memory-model argument).

    Every stop, once every domain has joined, checks the run's books
    ({!Engine.books}: offered = delivered + drops, nothing in flight),
    takes a census of both umems (every frame owned exactly once, the
    {!Ovs_xsk.Audit} check the schedule explorer runs after each step),
    and revalidates each PMD's megaflows against the final pipeline
    (a stale megaflow is a violation). With [oracles] armed, each poll
    also runs the explorer's ring check ({!Ovs_xsk.Audit.check_ring},
    from each ring's consuming domain) and XSK single-claimant
    ownership. Violations are collected, not thrown, so a failing run
    still reports. *)

module Ring = Ovs_xsk.Ring
module Umem = Ovs_xsk.Umem
module Umempool = Ovs_xsk.Umempool
module Xsk = Ovs_xsk.Xsk
module Audit = Ovs_xsk.Audit
module Pipeline = Ovs_ofproto.Pipeline
module Buffer = Ovs_packet.Buffer
module Coverage = Ovs_sim.Coverage

type config = {
  n_domains : int;  (** PMD domains (an injector rides along) *)
  templates : Bytes.t array;
      (** pre-built wire frames, one per flow; the injector deals them
          round-robin over the queues *)
  frame_len : int;
  target : int;  (** packets the injector offers in total *)
  batch : int;
  lock : Umempool.lock_strategy;
  frames_per_queue : int;
  ring_size : int;
  oracles : bool;
      (** arm the per-poll invariant checks; the stop-time checks always
          run *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches *)
  pipeline : Pipeline.t;  (** the OpenFlow tables every PMD's slow path reads *)
}

let config ?(n_domains = 2) ?(frame_len = 64) ?(target = 100_000)
    ?(batch = 32) ?(lock = Umempool.Spinlock_batched) ?(frames_per_queue = 2048)
    ?(ring_size = 1024) ?(oracles = false) ?(latency = false) ~pipeline
    ~templates () =
  if n_domains < 1 then invalid_arg "Engine_domains.config: n_domains < 1";
  if Array.length templates = 0 then
    invalid_arg "Engine_domains.config: no templates";
  { n_domains; templates; frame_len; target; batch; lock; frames_per_queue;
    ring_size; oracles; latency; pipeline }

let ingress_port = 0
let egress_port = 1

(* Owner-written worker counters, read by the main domain after join:
   with the cores' and the XSKs' own counters, the books' only source. *)
type wstats = {
  w_name : string;
  mutable w_packets : int;  (** the injector's offered load *)
  mutable w_egress_full : int;  (** egress pool exhausted or tx ring full *)
  mutable w_orphaned : int;  (** offered to a queue whose PMD had exited *)
  mutable w_busy_ns : float;  (** measured domain lifetime *)
}

type t = {
  cfg : config;
  ing_umem : Umem.t;
  ing_pool : Umempool.t;
  ing_xsks : Xsk.t array;  (** one per PMD domain, atomic rings *)
  egr_umem : Umem.t;
  egr_pool : Umempool.t;
  egr_xsks : Xsk.t array;  (** one per PMD domain *)
  cores : Dp_core.t array;  (** PMD k's datapath, touched only by PMD k *)
  live : Pipeline.t Atomic.t;  (** the pipeline {!swap_pipeline} set last *)
  slow_mu : Mutex.t;  (** held around all translation *)
  a_delivered : int Atomic.t;  (** the {!step} probe's running count *)
  inj_done : bool Atomic.t;
  pmd_done : bool Atomic.t array;
  viol_mu : Mutex.t;
  mutable violations : string list;
  fill_watch : Audit.tracked array;  (** checked by the injector *)
  rx_watch : Audit.tracked array;  (** queue k's, checked by PMD k *)
  ing_census : Audit.census;
  egr_census : Audit.census;
  ws : wstats array;  (** PMDs 0..n-1, injector n *)
  lat : Ovs_sim.Quantiles.t array;
      (** per-PMD sojourn sketches: owner-written, merged into one
          readout at stop *)
  mutable workers : unit Domain.t list;
  mutable started : bool;
  mutable t_start : float;
  mutable last_seen : int;  (** step's delivered watermark *)
  mutable final : (Engine.stats * Engine.books) option;
}

let name = "domains"

let now_ns () = Unix.gettimeofday () *. 1e9

let record t s =
  Mutex.protect t.viol_mu (fun () -> t.violations <- s :: t.violations)

let viol t fmt = Printf.ksprintf (record t) fmt

let violations t = Mutex.protect t.viol_mu (fun () -> List.rev t.violations)

let create (cfg : config) : t =
  let n = cfg.n_domains in
  let fill_target = Int.min (cfg.ring_size / 2) (cfg.frames_per_queue / 2) in
  let n_frames = cfg.frames_per_queue * n in
  let umem () = Umem.create ~n_frames ~ring_size:cfg.ring_size () in
  let pool () =
    Umempool.create ~contended:true ~n_frames ~strategy:cfg.lock ()
  in
  let xsks umem pool ~fill_target =
    Array.init n (fun q ->
        Xsk.create ~ring_size:cfg.ring_size ~fill_target ~atomic:true ~umem
          ~pool ~queue_id:q ())
  in
  let ing_umem = umem () and ing_pool = pool () in
  let egr_umem = umem () and egr_pool = pool () in
  let ing_xsks = xsks ing_umem ing_pool ~fill_target in
  let egr_xsks = xsks egr_umem egr_pool ~fill_target:0 in
  let ws =
    Array.init (n + 1) (fun i ->
        { w_name = (if i < n then Printf.sprintf "pmd%d" i else "injector");
          w_packets = 0; w_egress_full = 0; w_orphaned = 0; w_busy_ns = 0. })
  in
  {
    cfg;
    ing_umem;
    ing_pool;
    ing_xsks;
    egr_umem;
    egr_pool;
    egr_xsks;
    cores =
      Array.init n (fun _ ->
          Dp_core.create ~flavor:Dp_core.Flavor_userspace
            ~costs:Ovs_sim.Costs.default ~pipeline:cfg.pipeline ());
    live = Atomic.make cfg.pipeline;
    slow_mu = Mutex.create ();
    a_delivered = Atomic.make 0;
    inj_done = Atomic.make false;
    pmd_done = Array.init n (fun _ -> Atomic.make false);
    viol_mu = Mutex.create ();
    violations = [];
    fill_watch =
      Array.map
        (fun (x : Xsk.t) ->
          Audit.track (Printf.sprintf "q%d.fill" x.Xsk.queue_id) x.Xsk.fill)
        ing_xsks;
    rx_watch =
      Array.map
        (fun (x : Xsk.t) ->
          Audit.track (Printf.sprintf "q%d.rx" x.Xsk.queue_id) x.Xsk.rx)
        ing_xsks;
    ing_census =
      Audit.census ~label:"ingress" ing_pool (Audit.xsk_rings ing_xsks);
    egr_census =
      Audit.census ~label:"egress" egr_pool (Audit.xsk_rings egr_xsks);
    ws;
    lat = Array.init n (fun _ -> Ovs_sim.Quantiles.create ());
    workers = [];
    started = false;
    t_start = 0.;
    last_seen = 0;
    final = None;
  }

(* Escalating backoff: spin briefly, then yield the core — essential when
   domains outnumber cores (CI runners, the single-core dev container). *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

let check_owner t k xsk =
  if t.cfg.oracles then begin
    let o = Xsk.owner xsk in
    if o <> k then viol t "xsk q%d claimed by pmd %d while pmd %d polls it"
        xsk.Xsk.queue_id o k
  end

(* -- the injector domain: the kernel side of every queue -- *)

let injector_body t () =
  let cfg = t.cfg in
  let ws = t.ws.(cfg.n_domains) in
  let n_tpl = Array.length cfg.templates in
  let sent = ref 0 in
  while !sent < cfg.target do
    let q = !sent mod cfg.n_domains in
    let xsk = t.ing_xsks.(q) in
    ws.w_packets <- ws.w_packets + 1;
    if Atomic.get t.pmd_done.(q) then
      (* owner crashed or exited early: account the rest of this queue's
         share as drops rather than wedging the run *)
      ws.w_orphaned <- ws.w_orphaned + 1
    else begin
      (* NIC-style backpressure: wait (bounded) for a fill frame and rx
         space instead of dropping instantly — the dataplane's capacity is
         what we measure, not the injector's ability to outrun it *)
      let spins = ref 0 in
      while
        (Ring.available xsk.Xsk.fill = 0 || Ring.free_space xsk.Xsk.rx = 0)
        && !spins < 50_000
        && not (Atomic.get t.pmd_done.(q))
      do
        backoff !spins;
        incr spins
      done;
      if cfg.oracles then Audit.check_ring (record t) t.fill_watch.(q);
      let tpl = cfg.templates.(!sent mod n_tpl) in
      let birth_ns = if cfg.latency then now_ns () else -1. in
      (* a refused packet is counted at the XSK (rx_dropped_no_frame /
         rx_dropped_ring_full) *)
      ignore (Xsk.kernel_rx xsk ~birth_ns tpl ~len:cfg.frame_len : bool)
    end;
    incr sent
  done;
  Atomic.set t.inj_done true

(* -- a PMD domain: poll its queue through its own datapath -- *)

(* Copy the packet into an egress frame and queue it for tx. *)
let transmit_egress t egr_xsk (pkt : Buffer.t) =
  match Umempool.get t.egr_pool with
  | None -> false  (* egress pool exhausted: accounted drop *)
  | Some ef ->
      (* forwarding between two ports copies between their umems, as OVS
         afxdp does (zero-copy holds only within one device's umem) *)
      let len = Buffer.length pkt in
      Umem.dma_into_frame t.egr_umem ef pkt.Buffer.data
        ~src_off:pkt.Buffer.start ~len;
      Xsk.tx egr_xsk ~frame:ef ~len
      || begin
           (* tx ring full: the frame must go back or conservation breaks *)
           Umempool.put t.egr_pool ef;
           false
         end

(* Domains charge no virtual time: the wall clock is the measurement. *)
let no_charge : Dp_core.charge_fn = fun _ _ -> ()

(* Adopt the pipeline {!swap_pipeline} set last: revalidate this core's
   megaflows against it, evicting the stale ones. *)
let sync_pipeline t core =
  let p = Atomic.get t.live in
  if p != Dp_core.pipeline core then
    Mutex.protect t.slow_mu (fun () ->
        ignore (Dp_core.swap_pipeline core p : int))

let pmd_body t k () =
  let cfg = t.cfg in
  let ws = t.ws.(k) in
  let core = t.cores.(k) in
  let xsk = t.ing_xsks.(k) in
  let egr = t.egr_xsks.(k) in
  let delivered = ref 0 in
  (* the rig has no other port: a packet output elsewhere is left
     unaccounted, and stop's books report it *)
  Dp_core.set_output core (fun _ port pkt ->
      if port = egress_port then
        if transmit_egress t egr pkt then begin
          incr delivered;
          let birth = pkt.Buffer.birth_ns in
          if birth >= 0. then
            Ovs_sim.Quantiles.add t.lat.(k) (Float.max 0. (now_ns () -. birth))
        end
        else ws.w_egress_full <- ws.w_egress_full + 1);
  (* a full miss waits for the end of its burst, like Pmd.drain_upcalls;
     the list never refuses, since it holds at most one burst *)
  let upcalls = ref [] in
  Dp_core.set_upcall_hook core
    (Some (fun pkt key -> upcalls := (pkt, key) :: !upcalls; true));
  Xsk.set_owner xsk ~pmd:k;
  ignore (Xsk.refill xsk 0 : int);
  let running = ref true in
  let idle_spins = ref 0 in
  while !running do
    sync_pipeline t core;
    check_owner t k xsk;
    if cfg.oracles then Audit.check_ring (record t) t.rx_watch.(k);
    match Xsk.rx_burst xsk ~max:cfg.batch with
    | [] ->
        ignore (Xsk.flush_tx egr : int);
        ignore (Xsk.refill xsk 0 : int);
        if Atomic.get t.inj_done && Ring.available xsk.Xsk.rx = 0 then begin
          sync_pipeline t core;
          running := false
        end
        else begin
          backoff !idle_spins;
          incr idle_spins
        end
    | burst ->
        idle_spins := 0;
        List.iter
          (fun (_, (buf : Buffer.t)) ->
            buf.Buffer.in_port <- ingress_port;
            Dp_core.process core no_charge buf)
          burst;
        (* the queued packets alias their frames: run them before release *)
        if !upcalls <> [] then begin
          let queued = List.rev !upcalls in
          upcalls := [];
          Mutex.protect t.slow_mu (fun () ->
              List.iter
                (fun (pkt, key) -> Dp_core.handle_upcall core no_charge pkt key)
                queued)
        end;
        Xsk.release_batch xsk (List.map fst burst);
        ignore (Xsk.refill xsk (List.length burst) : int);
        ignore (Xsk.flush_tx egr : int);
        if !delivered > 0 then begin
          ignore (Atomic.fetch_and_add t.a_delivered !delivered : int);
          delivered := 0
        end
  done;
  ignore (Xsk.flush_tx egr : int);
  Atomic.set t.pmd_done.(k) true

(* -- the books, read at stop after every join -- *)

(* Every offered packet ends delivered (sent from an egress socket), in
   a drop counter — under the rig ledger's names where it has one, then
   the engine's own causes — or still in flight. *)
let read_books t =
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let ingress f = sum f t.ing_xsks in
  {
    Engine.d_phase = name;
    d_offered = t.ws.(t.cfg.n_domains).w_packets;
    d_rejected = 0;
    d_delivered = sum (fun x -> x.Xsk.tx_sent) t.egr_xsks;
    d_drops =
      [
        ("xsk.rx_dropped_no_frame", ingress (fun x -> x.Xsk.rx_dropped_no_frame));
        ("xsk.rx_dropped_ring_full", ingress (fun x -> x.Xsk.rx_dropped_ring_full));
        ("dp.dropped", sum (fun c -> (Dp_core.counters c).Dp_core.dropped) t.cores);
        ("domains.egress_full", sum (fun w -> w.w_egress_full) t.ws);
        ("domains.queue_orphaned", sum (fun w -> w.w_orphaned) t.ws);
      ];
    d_in_flight =
      ingress (fun x -> Ring.available x.Xsk.rx)
      + sum (fun x -> Ring.available x.Xsk.tx) t.egr_xsks;
  }

(* The stale-megaflow oracle: every PMD ran the final pipeline, and
   revalidating its megaflows against it evicts nothing. *)
let check_megaflows t =
  let final = Atomic.get t.live in
  Array.iteri
    (fun k core ->
      if Dp_core.pipeline core != final then
        viol t "pmd%d never adopted the final pipeline" k
      else
        let stale = Dp_core.revalidate core in
        if stale > 0 then
          viol t "pmd%d kept %d megaflows stale against the final pipeline" k
            stale)
    t.cores

(* -- driving the engine: start, step, stats, stop -- *)

(* Wrap a worker body with lifetime measurement, coverage flushing and a
   crash backstop (a worker exception becomes a recorded violation, and
   the worker's done-flag still flips so the rig drains instead of
   wedging). *)
let worker t ~ws ~on_exit body () =
  let t0 = now_ns () in
  (try body () with
  | e ->
      viol t "%s died: %s" ws.w_name (Printexc.to_string e);
      on_exit ());
  ws.w_busy_ns <- now_ns () -. t0;
  Coverage.flush_domain ()

let start t =
  if t.started then invalid_arg "Engine_domains.start: already started";
  t.started <- true;
  t.t_start <- now_ns ();
  let n = t.cfg.n_domains in
  let pmds =
    List.init n (fun k ->
        Domain.spawn
          (worker t ~ws:t.ws.(k)
             ~on_exit:(fun () -> Atomic.set t.pmd_done.(k) true)
             (pmd_body t k)))
  in
  let inj =
    Domain.spawn
      (worker t ~ws:t.ws.(n)
         ~on_exit:(fun () -> Atomic.set t.inj_done true)
         (injector_body t))
  in
  t.workers <- inj :: pmds

let swap_pipeline t p = Atomic.set t.live p

(* Progress probe: the domains run on their own; step just reports
   packets delivered since the last probe. *)
let step t =
  let d = Atomic.get t.a_delivered in
  let delta = d - t.last_seen in
  t.last_seen <- d;
  delta

let stats_of t (books : Engine.books) ~wall_ns =
  let delivered = books.Engine.d_delivered in
  let packets k =
    if k < t.cfg.n_domains then (Dp_core.counters t.cores.(k)).Dp_core.packets
    else t.ws.(k).w_packets
  in
  {
    Engine.s_engine = name;
    s_units = t.cfg.n_domains;
    s_offered = books.Engine.d_offered;
    s_delivered = delivered;
    s_dropped = Engine.drops books;
    s_upcalls =
      Array.fold_left
        (fun a c -> a + (Dp_core.counters c).Dp_core.upcalls) 0 t.cores;
    s_wall_ns = wall_ns;
    s_mpps = Engine.mpps ~delivered ~wall_ns;
    s_units_detail =
      Array.to_list
        (Array.mapi
           (fun k w ->
             { Engine.ul_name = w.w_name; ul_packets = packets k;
               ul_busy_ns = w.w_busy_ns })
           t.ws);
    s_latency =
      (if t.cfg.latency then begin
         (* fold the owner-written per-domain sketches into one readout *)
         let merged = Ovs_sim.Quantiles.create () in
         Array.iter (fun s -> Ovs_sim.Quantiles.merge ~into:merged s) t.lat;
         Some merged
       end
       else None);
  }

let stop t =
  match t.final with
  | Some (s, _) -> s
  | None ->
      if not t.started then invalid_arg "Engine_domains.stop: not started";
      List.iter Domain.join t.workers;
      let wall_ns = now_ns () -. t.t_start in
      t.workers <- [];
      (* every domain joined: the counters, rings, pools and cores hold
         still *)
      let books = read_books t in
      if not (Engine.conserved books) then record t (Engine.render books);
      Audit.check_frames (record t) t.ing_census;
      Audit.check_frames (record t) t.egr_census;
      check_megaflows t;
      let s = stats_of t books ~wall_ns in
      t.final <- Some (s, books);
      s

let books t =
  match t.final with
  | Some (_, b) -> b
  | None -> invalid_arg "Engine_domains.books: not stopped"

(* A megaflow's line without its per-core statistics: the match, then
   everything from [, actions:] on. *)
let strip_stats line =
  let n = String.length line in
  let rec find sub i =
    let m = String.length sub in
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else find sub (i + 1)
  in
  match find ", packets:" 0 with
  | None -> line
  | Some i -> (
      match find ", actions:" i with
      | None -> line
      | Some j -> String.sub line 0 i ^ String.sub line j (n - j))

let dump_megaflows t =
  if t.final = None then invalid_arg "Engine_domains.dump_megaflows: not stopped";
  Array.to_list t.cores
  |> List.concat_map (fun c -> List.map strip_stats (Dp_core.dump_megaflows c))
  |> List.sort_uniq String.compare
