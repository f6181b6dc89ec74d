(** The real-parallelism execution engine: each PMD context is an OCaml
    [Domain.t], and throughput is wall-clock Mpps — the first measurement
    of the paper's O1–O3 optimizations under genuine contention rather
    than charged virtual cycles.

    Topology (one P2P forwarding rig, self-contained):

    {v
                         +--------------- injector domain ---------------+
                         | pops fill(q), DMAs a template, pushes rx(q)   |
                         +--+--------------------+--------------------+--+
                            v                    v                    v
      ingress umem     [rx ring 0]          [rx ring 1]   ...    [rx ring n-1]
      + shared pool         |                    |                    |
      (real Mutex)     PMD domain 0         PMD domain 1         PMD domain n-1
                       extract + EMC        extract + EMC        extract + EMC
                         |     \                                 /
               hit: copy to     \ miss: bounded SPSC upcall queue
               egress frame,     v
               tx + recycle   revalidator domain: translate, install
                              verdict back via per-PMD response queue,
                              transmit or drop, release ingress frame
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
    - flow state is per-domain (each PMD owns an EMC replica, as real
      dpif-netdev gives each PMD thread its own EMC/SMC/dpcls); the only
      classifier shared state is the single revalidator, reached over
      bounded SPSC queues.
    - packet bytes cross domains only through umem frames, published by
      the ring-cursor [Atomic.set] and acquired by the matching
      [Atomic.get] (see DESIGN.md for the memory-model argument).

    Every stop, once every domain has joined, checks the run's books
    ({!Engine.books}: offered = delivered + drops, nothing in flight) and
    takes a census of both umems (every frame owned exactly once, the
    {!Ovs_xsk.Audit} check the schedule explorer runs after each step).
    With [oracles] armed, each poll also runs the explorer's ring check
    ({!Ovs_xsk.Audit.check_ring}, from each ring's consuming domain), XSK
    single-claimant ownership and the upcall-queue bound. Violations are
    collected, not thrown, so a failing run still reports. *)

module Ring = Ovs_xsk.Ring
module Umem = Ovs_xsk.Umem
module Umempool = Ovs_xsk.Umempool
module Xsk = Ovs_xsk.Xsk
module Audit = Ovs_xsk.Audit
module Spscq = Ovs_xsk.Spscq
module Emc = Ovs_flow.Emc
module FK = Ovs_packet.Flow_key
module Buffer = Ovs_packet.Buffer
module Coverage = Ovs_sim.Coverage

type config = {
  n_domains : int;  (** PMD domains (an injector and a revalidator ride along) *)
  templates : Bytes.t array;
      (** pre-built wire frames, one per flow; the injector deals them
          round-robin over the queues *)
  frame_len : int;
  target : int;  (** packets the injector offers in total *)
  batch : int;
  lock : Umempool.lock_strategy;
  frames_per_queue : int;
  ring_size : int;
  upcall_capacity : int;  (** per-PMD bound on the upcall queue *)
  emc_entries : int;
  oracles : bool;
      (** arm the per-poll invariant checks; the stop-time checks always
          run *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches *)
  translate : FK.t -> bool;
      (** the slow path's verdict for a missed flow: forward or drop *)
}

let config ?(n_domains = 2) ?(frame_len = 64) ?(target = 100_000)
    ?(batch = 32) ?(lock = Umempool.Spinlock_batched) ?(frames_per_queue = 2048)
    ?(ring_size = 1024) ?(upcall_capacity = 512) ?(emc_entries = 8192)
    ?(oracles = false) ?(latency = false) ?(translate = fun _ -> true)
    ~templates () =
  if n_domains < 1 then invalid_arg "Engine_domains.config: n_domains < 1";
  if Array.length templates = 0 then
    invalid_arg "Engine_domains.config: no templates";
  { n_domains; templates; frame_len; target; batch; lock; frames_per_queue;
    ring_size; upcall_capacity; emc_entries; oracles; latency; translate }

(* Owner-written worker counters, read by the main domain after join:
   the books' only source besides the XSKs' own counters. *)
type wstats = {
  w_name : string;
  mutable w_packets : int;  (** the injector's count is the offered load *)
  mutable w_upcalls : int;
  mutable w_verdict_drop : int;  (** the flow's verdict is drop *)
  mutable w_egress_full : int;  (** egress pool exhausted or tx ring full *)
  mutable w_upcall_lost : int;  (** the bounded upcall queue was full *)
  mutable w_orphaned : int;  (** offered to a queue whose PMD had exited *)
  mutable w_busy_ns : float;  (** measured domain lifetime *)
}

(* One upcall: (ingress frame, packet length, extracted key). *)
type upcall = int * int * FK.t

type t = {
  cfg : config;
  ing_umem : Umem.t;
  ing_pool : Umempool.t;
  ing_xsks : Xsk.t array;  (** one per PMD domain, atomic rings *)
  egr_umem : Umem.t;
  egr_pool : Umempool.t;
  egr_xsks : Xsk.t array;  (** one per PMD plus one for the revalidator *)
  upq : upcall Spscq.t array;  (** PMD k -> revalidator *)
  resp : (FK.t * bool) Spscq.t array;  (** revalidator -> PMD k installs *)
  a_delivered : int Atomic.t;  (** the {!step} probe's running count *)
  inj_done : bool Atomic.t;
  pmd_done : bool Atomic.t array;
  viol_mu : Mutex.t;
  mutable violations : string list;
  fill_watch : Audit.tracked array;  (** checked by the injector *)
  rx_watch : Audit.tracked array;  (** queue k's, checked by PMD k *)
  ing_census : Audit.census;
  egr_census : Audit.census;
  ws : wstats array;  (** PMDs 0..n-1, revalidator n, injector n+1 *)
  lat : Ovs_sim.Quantiles.t array;
      (** per-domain sojourn sketches (PMDs 0..n-1, revalidator n):
          owner-written, merged into one readout at stop *)
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
  let ing_umem =
    Umem.create ~n_frames:(cfg.frames_per_queue * n) ~ring_size:cfg.ring_size ()
  in
  let ing_pool =
    Umempool.create ~contended:true ~n_frames:(cfg.frames_per_queue * n)
      ~strategy:cfg.lock ()
  in
  let ing_xsks =
    Array.init n (fun q ->
        Xsk.create ~ring_size:cfg.ring_size ~fill_target ~atomic:true
          ~umem:ing_umem ~pool:ing_pool ~queue_id:q ())
  in
  let egr_umem =
    Umem.create ~n_frames:(cfg.frames_per_queue * (n + 1))
      ~ring_size:cfg.ring_size ()
  in
  let egr_pool =
    Umempool.create ~contended:true ~n_frames:(cfg.frames_per_queue * (n + 1))
      ~strategy:cfg.lock ()
  in
  let egr_xsks =
    Array.init (n + 1) (fun q ->
        Xsk.create ~ring_size:cfg.ring_size ~fill_target:0 ~atomic:true
          ~umem:egr_umem ~pool:egr_pool ~queue_id:q ())
  in
  let ws =
    Array.init (n + 2) (fun i ->
        let nm =
          if i < n then Printf.sprintf "pmd%d" i
          else if i = n then "revalidator"
          else "injector"
        in
        { w_name = nm; w_packets = 0; w_upcalls = 0; w_verdict_drop = 0;
          w_egress_full = 0; w_upcall_lost = 0; w_orphaned = 0;
          w_busy_ns = 0. })
  in
  {
    cfg;
    ing_umem;
    ing_pool;
    ing_xsks;
    egr_umem;
    egr_pool;
    egr_xsks;
    upq = Array.init n (fun _ -> Spscq.create ~capacity:cfg.upcall_capacity);
    resp = Array.init n (fun _ -> Spscq.create ~capacity:cfg.upcall_capacity);
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
    lat = Array.init (n + 1) (fun _ -> Ovs_sim.Quantiles.create ());
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

(* -- per-poll oracles (armed by cfg.oracles) -- *)

let check_owner t k xsk =
  if t.cfg.oracles then begin
    let o = Xsk.owner xsk in
    if o <> k then viol t "xsk q%d claimed by pmd %d while pmd %d polls it"
        xsk.Xsk.queue_id o k
  end

let check_qbound t k =
  let q = t.upq.(k) in
  if t.cfg.oracles && Spscq.length q > Spscq.capacity q then
    viol t "pmd%d.upq holds %d > capacity %d" k (Spscq.length q)
      (Spscq.capacity q)

(* -- the injector domain: the kernel side of every queue -- *)

let injector_body t () =
  let cfg = t.cfg in
  let ws = t.ws.(cfg.n_domains + 1) in
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

(* -- a PMD domain: poll its queue, classify per-domain, forward -- *)

let transmit_egress t egr_xsk ~src_start ~len =
  match Umempool.get t.egr_pool with
  | None -> false  (* egress pool exhausted: accounted drop *)
  | Some ef ->
      (* forwarding between two ports copies between their umems, as OVS
         afxdp does (zero-copy holds only within one device's umem) *)
      Umem.dma_into_frame t.egr_umem ef t.ing_umem.Umem.data ~src_off:src_start
        ~len;
      if Xsk.tx egr_xsk ~frame:ef ~len then true
      else begin
        (* tx ring full: the frame must go back or conservation breaks *)
        Umempool.put t.egr_pool ef;
        false
      end

let pmd_body t k () =
  let cfg = t.cfg in
  let ws = t.ws.(k) in
  let xsk = t.ing_xsks.(k) in
  let egr = t.egr_xsks.(k) in
  let emc : bool Emc.t = Emc.create ~entries:cfg.emc_entries () in
  Xsk.set_owner xsk ~pmd:k;
  ignore (Xsk.refill xsk 0 : int);
  let running = ref true in
  let idle_spins = ref 0 in
  while !running do
    (* install verdicts the revalidator sent back, into this PMD's EMC *)
    let rec drain_resp () =
      match Spscq.try_pop t.resp.(k) with
      | Some (key, fwd) ->
          Emc.insert emc key fwd;
          drain_resp ()
      | None -> ()
    in
    drain_resp ();
    check_owner t k xsk;
    if cfg.oracles then Audit.check_ring (record t) t.rx_watch.(k);
    let burst = Xsk.rx_burst xsk ~max:cfg.batch in
    match burst with
    | [] ->
        ignore (Xsk.flush_tx egr : int);
        ignore (Xsk.refill xsk 0 : int);
        if
          Atomic.get t.inj_done
          && Ring.available xsk.Xsk.rx = 0
          && Spscq.is_empty t.upq.(k)
        then running := false
        else begin
          backoff !idle_spins;
          incr idle_spins
        end
    | _ :: _ ->
        idle_spins := 0;
        let consumed = List.length burst in
        ws.w_packets <- ws.w_packets + consumed;
        let recycle = ref [] in
        let delivered = ref 0 in
        List.iter
          (fun (frame, (buf : Buffer.t)) ->
            let key = FK.extract buf in
            match Emc.lookup emc key with
            | Some true ->
                if
                  transmit_egress t egr ~src_start:buf.Buffer.start
                    ~len:buf.Buffer.len
                then begin
                  incr delivered;
                  let birth = buf.Buffer.birth_ns in
                  if birth >= 0. then
                    Ovs_sim.Quantiles.add t.lat.(k)
                      (Float.max 0. (now_ns () -. birth))
                end
                else ws.w_egress_full <- ws.w_egress_full + 1;
                recycle := frame :: !recycle
            | Some false ->
                ws.w_verdict_drop <- ws.w_verdict_drop + 1;
                recycle := frame :: !recycle
            | None ->
                if Spscq.try_push t.upq.(k) (frame, buf.Buffer.len, key) then begin
                  (* frame ownership moves to the revalidator *)
                  check_qbound t k;
                  ws.w_upcalls <- ws.w_upcalls + 1
                end
                else begin
                  (* bounded queue full: the upcall is lost, the packet
                     dropped — same contract as the VT PMD's lost counter *)
                  ws.w_upcall_lost <- ws.w_upcall_lost + 1;
                  recycle := frame :: !recycle
                end)
          burst;
        if !recycle <> [] then Xsk.release_batch xsk !recycle;
        ignore (Xsk.refill xsk consumed : int);
        ignore (Xsk.flush_tx egr : int);
        if !delivered > 0 then
          ignore (Atomic.fetch_and_add t.a_delivered !delivered : int)
  done;
  ignore (Xsk.flush_tx egr : int);
  Atomic.set t.pmd_done.(k) true

(* -- the revalidator domain: single consumer of every upcall queue -- *)

let reval_body t () =
  let cfg = t.cfg in
  let ws = t.ws.(cfg.n_domains) in
  let egr = t.egr_xsks.(cfg.n_domains) in
  let running = ref true in
  let idle_spins = ref 0 in
  while !running do
    let moved = ref 0 in
    for k = 0 to cfg.n_domains - 1 do
      match Spscq.try_pop t.upq.(k) with
      | Some (frame, len, key) ->
          incr moved;
          ws.w_packets <- ws.w_packets + 1;
          let fwd = cfg.translate key in
          let src_start = Umem.frame_offset t.ing_umem frame in
          if not fwd then ws.w_verdict_drop <- ws.w_verdict_drop + 1
          else if not (transmit_egress t egr ~src_start ~len) then
            ws.w_egress_full <- ws.w_egress_full + 1
          else begin
            Atomic.incr t.a_delivered;
            (* birth rides the ingress frame's metadata area — the slow
               path's extra queueing is part of its sojourn *)
            let birth = Umem.birth t.ing_umem frame in
            if birth >= 0. then
              Ovs_sim.Quantiles.add t.lat.(cfg.n_domains)
                (Float.max 0. (now_ns () -. birth))
          end;
          (* the ingress frame goes back to the shared pool — the "any
             thread returns frames to any pool" contention of Sec 3.2 *)
          Umempool.put t.ing_pool frame;
          (* best-effort install: a full response queue skips the install
             (the flow stays slow-path) rather than blocking *)
          ignore (Spscq.try_push t.resp.(k) (key, fwd) : bool)
      | None -> ()
    done;
    ignore (Xsk.flush_tx egr : int);
    if !moved = 0 then begin
      let all_done =
        Array.for_all (fun d -> Atomic.get d) t.pmd_done
        && Array.for_all Spscq.is_empty t.upq
      in
      if all_done then running := false
      else begin
        backoff !idle_spins;
        incr idle_spins
      end
    end
    else idle_spins := 0
  done;
  ignore (Xsk.flush_tx egr : int)

(* -- the books, read at stop after every join -- *)

(* Every offered packet ends delivered (sent from an egress socket), in
   a drop counter — the ingress sockets' under the rig ledger's names,
   then the engine's own causes — or still in flight. *)
let read_books t =
  let sum f = Array.fold_left (fun a w -> a + f w) 0 t.ws in
  let xsks f xs = Array.fold_left (fun a x -> a + f x) 0 xs in
  let ingress f = xsks f t.ing_xsks in
  {
    Engine.d_phase = name;
    d_offered = t.ws.(t.cfg.n_domains + 1).w_packets;
    d_rejected = 0;
    d_delivered = xsks (fun x -> x.Xsk.tx_sent) t.egr_xsks;
    d_drops =
      [
        ("xsk.rx_dropped_no_frame", ingress (fun x -> x.Xsk.rx_dropped_no_frame));
        ("xsk.rx_dropped_ring_full", ingress (fun x -> x.Xsk.rx_dropped_ring_full));
        ("domains.verdict_drop", sum (fun w -> w.w_verdict_drop));
        ("domains.egress_full", sum (fun w -> w.w_egress_full));
        ("domains.upcall_lost", sum (fun w -> w.w_upcall_lost));
        ("domains.queue_orphaned", sum (fun w -> w.w_orphaned));
      ];
    d_in_flight =
      ingress (fun x -> Ring.available x.Xsk.rx)
      + Array.fold_left (fun a q -> a + Spscq.length q) 0 t.upq
      + xsks (fun x -> Ring.available x.Xsk.tx) t.egr_xsks;
  }

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
  let reval =
    Domain.spawn (worker t ~ws:t.ws.(n) ~on_exit:(fun () -> ()) (reval_body t))
  in
  let inj =
    Domain.spawn
      (worker t ~ws:t.ws.(n + 1)
         ~on_exit:(fun () -> Atomic.set t.inj_done true)
         (injector_body t))
  in
  t.workers <- (inj :: reval :: pmds)

(* Progress probe: the domains run on their own; step just reports
   packets delivered since the last probe. *)
let step t =
  let d = Atomic.get t.a_delivered in
  let delta = d - t.last_seen in
  t.last_seen <- d;
  delta

let stats_of t (books : Engine.books) ~wall_ns =
  let delivered = books.Engine.d_delivered in
  {
    Engine.s_engine = name;
    s_units = t.cfg.n_domains;
    s_offered = books.Engine.d_offered;
    s_delivered = delivered;
    s_dropped = Engine.drops books;
    s_upcalls = Array.fold_left (fun a w -> a + w.w_upcalls) 0 t.ws;
    s_wall_ns = wall_ns;
    s_mpps = Engine.mpps ~delivered ~wall_ns;
    s_units_detail =
      Array.to_list t.ws
      |> List.map (fun w ->
             {
               Engine.ul_name = w.w_name;
               ul_packets = w.w_packets;
               ul_busy_ns = w.w_busy_ns;
             });
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
      (* every domain joined: the counters, rings and pools hold still *)
      let books = read_books t in
      if not (Engine.conserved books) then record t (Engine.render books);
      Audit.check_frames (record t) t.ing_census;
      Audit.check_frames (record t) t.egr_census;
      let s = stats_of t books ~wall_ns in
      t.final <- Some (s, books);
      s

let books t =
  match t.final with
  | Some (_, b) -> b
  | None -> invalid_arg "Engine_domains.books: not stopped"
