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

    With [oracles] armed, the schedule explorer's invariants run as
    runtime assertions on the live parallel execution: ring cursor
    monotonicity and occupancy (checked from each ring's owning side),
    XSK single-claimant ownership, upcall-queue bounds, and — at stop,
    once every domain has joined — umem frame conservation (every frame
    owned exactly once) and packet conservation (offered = delivered +
    dropped, nothing in flight). Violations are collected, not thrown,
    so a failing run still reports. *)

module Ring = Ovs_xsk.Ring
module Umem = Ovs_xsk.Umem
module Umempool = Ovs_xsk.Umempool
module Xsk = Ovs_xsk.Xsk
module Spscq = Ovs_xsk.Spscq
module Emc = Ovs_flow.Emc
module FK = Ovs_packet.Flow_key
module Buffer = Ovs_packet.Buffer
module Coverage = Ovs_sim.Coverage

(** Per-PMD connection tracking: each PMD domain owns a private
    [Conntrack.t] (no locks on the hit path — only its domain ever
    touches it) and amortizes expiry with a bounded cursor sweep every
    poll iteration. The per-zone limit, an nf_conncount property of
    the whole switch rather than one PMD, is enforced across the
    private tables with {!Ovs_conntrack.Conntrack.evict_to_limit_multi}
    at stop. *)
type ct_opts = {
  ct_zone : int;
  ct_limit : int option;  (** enforced cross-shard at stop *)
  ct_sweep_budget : int;  (** entries examined per poll iteration *)
}

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
  oracles : bool;  (** arm the runtime invariant assertions *)
  latency : bool;
      (** stamp each injected frame with a monotonic wall-clock birth and
          record per-packet sojourn times into per-domain sketches *)
  translate : FK.t -> bool;
      (** the slow path's verdict for a missed flow: forward or drop *)
  ct : ct_opts option;
      (** arm per-PMD connection tracking; [None] (default) creates no
          tables and adds no per-packet work *)
}

let config ?(n_domains = 2) ?(frame_len = 64) ?(target = 100_000)
    ?(batch = 32) ?(lock = Umempool.Spinlock_batched) ?(frames_per_queue = 2048)
    ?(ring_size = 1024) ?(upcall_capacity = 512) ?(emc_entries = 8192)
    ?(oracles = false) ?(latency = false) ?(translate = fun _ -> true)
    ?ct ~templates () =
  if n_domains < 1 then invalid_arg "Engine_domains.config: n_domains < 1";
  if Array.length templates = 0 then
    invalid_arg "Engine_domains.config: no templates";
  { n_domains; templates; frame_len; target; batch; lock; frames_per_queue;
    ring_size; upcall_capacity; emc_entries; oracles; latency; translate; ct }

(* Owner-written worker counters, read by the main domain after join. *)
type wstats = {
  w_name : string;
  mutable w_packets : int;
  mutable w_delivered : int;
  mutable w_dropped : int;
  mutable w_upcalls : int;
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
  a_offered : int Atomic.t;
  a_delivered : int Atomic.t;
  a_dropped : int Atomic.t;
  a_upcalls : int Atomic.t;
  inj_done : bool Atomic.t;
  pmd_done : bool Atomic.t array;
  viol_mu : Mutex.t;
  mutable violations : string list;
  cts : Ovs_conntrack.Conntrack.t array;
      (** per-PMD private connection tables (length [n_domains] when
          [cfg.ct] is armed, empty otherwise): each is created here but
          only ever touched by its owning PMD domain while it runs *)
  ws : wstats array;  (** PMDs 0..n-1, revalidator n, injector n+1 *)
  lat : Ovs_sim.Quantiles.t array;
      (** per-domain sojourn sketches (PMDs 0..n-1, revalidator n):
          owner-written, merged into one readout at snapshot time *)
  mutable workers : unit Domain.t list;
  mutable started : bool;
  mutable t_start : float;
  mutable last_seen : int;  (** step's delivered watermark *)
  mutable final : Engine.stats option;
}

let name = "domains"

let now_ns () = Unix.gettimeofday () *. 1e9

let viol t fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock t.viol_mu;
      t.violations <- s :: t.violations;
      Mutex.unlock t.viol_mu)
    fmt

let violations t =
  Mutex.lock t.viol_mu;
  let v = List.rev t.violations in
  Mutex.unlock t.viol_mu;
  v

(* Total tracked connections across the per-PMD tables. Exact after
   stop (every owning domain joined); a racy progress probe before. *)
let ct_conns t =
  Array.fold_left
    (fun acc c -> acc + Ovs_conntrack.Conntrack.active_conns c)
    0 t.cts

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
        { w_name = nm; w_packets = 0; w_delivered = 0; w_dropped = 0;
          w_upcalls = 0; w_busy_ns = 0. })
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
    a_offered = Atomic.make 0;
    a_delivered = Atomic.make 0;
    a_dropped = Atomic.make 0;
    a_upcalls = Atomic.make 0;
    inj_done = Atomic.make false;
    pmd_done = Array.init n (fun _ -> Atomic.make false);
    viol_mu = Mutex.create ();
    violations = [];
    cts =
      (match cfg.ct with
      | Some _ ->
          Array.init n (fun _ -> Ovs_conntrack.Conntrack.create ())
      | None -> [||]);
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

(* -- runtime oracles (armed by cfg.oracles) -- *)

(* Cursor sanity from the ring's consuming side: monotone, never ahead of
   the producer, occupancy within the ring. [last] is the caller-local
   previous consumer cursor. *)
let check_ring t label r last =
  if t.cfg.oracles then begin
    let p = Ring.prod_idx r and c = Ring.cons_idx r in
    if c < !last then viol t "%s consumer rewound (%d -> %d)" label !last c;
    if c > p then viol t "%s consumer ahead of producer (%d > %d)" label c p;
    if p - c > Ring.size r then
      viol t "%s holds %d descriptors in a %d-slot ring" label (p - c)
        (Ring.size r);
    last := c
  end

let check_owner t k xsk =
  if t.cfg.oracles then begin
    let o = Xsk.owner xsk in
    if o <> k then viol t "xsk q%d claimed by pmd %d while pmd %d polls it"
        xsk.Xsk.queue_id o k
  end

let check_qbound t label q =
  if t.cfg.oracles && Spscq.length q > Spscq.capacity q then
    viol t "%s holds %d > capacity %d" label (Spscq.length q)
      (Spscq.capacity q)

(* -- the injector domain: the kernel side of every queue -- *)

let injector_body t () =
  let cfg = t.cfg in
  let ws = t.ws.(cfg.n_domains + 1) in
  let n_tpl = Array.length cfg.templates in
  let fill_cons = Array.map (fun x -> ref (Ring.cons_idx x.Xsk.fill)) t.ing_xsks in
  let sent = ref 0 in
  while !sent < cfg.target do
    let q = !sent mod cfg.n_domains in
    let xsk = t.ing_xsks.(q) in
    if Atomic.get t.pmd_done.(q) then begin
      (* owner crashed or exited early: account the rest of this queue's
         share as drops rather than wedging the run *)
      Atomic.incr t.a_offered;
      Atomic.incr t.a_dropped;
      ws.w_dropped <- ws.w_dropped + 1;
      incr sent
    end
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
      check_ring t (Printf.sprintf "q%d.fill" q) xsk.Xsk.fill fill_cons.(q);
      let tpl = cfg.templates.(!sent mod n_tpl) in
      let birth_ns = if cfg.latency then now_ns () else -1. in
      let ok = Xsk.kernel_rx xsk ~birth_ns tpl ~len:cfg.frame_len in
      Atomic.incr t.a_offered;
      ws.w_packets <- ws.w_packets + 1;
      if not ok then begin
        (* counted at the XSK (rx_dropped_no_frame / ring_full) *)
        Atomic.incr t.a_dropped;
        ws.w_dropped <- ws.w_dropped + 1
      end;
      incr sent
    end
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
  (* this PMD's private connection table: no locks on the hit path —
     nothing else reads it until the domain has been joined *)
  let ct = match cfg.ct with Some _ -> Some t.cts.(k) | None -> None in
  let rx_cons = ref (Ring.cons_idx xsk.Xsk.rx) in
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
    check_ring t (Printf.sprintf "q%d.rx" k) xsk.Xsk.rx rx_cons;
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
        let delivered = ref 0 and dropped = ref 0 and upcalled = ref 0 in
        (* amortized expiry: one bounded cursor sweep per poll
           iteration, fixed work regardless of table size *)
        (match (ct, cfg.ct) with
        | Some c, Some opts ->
            ignore
              (Ovs_conntrack.Conntrack.sweep_bounded c ~now:(now_ns ())
                 ~budget:opts.ct_sweep_budget)
        | _ -> ());
        List.iter
          (fun (frame, (buf : Buffer.t)) ->
            let key = FK.extract buf in
            (match (ct, cfg.ct) with
            | Some c, Some opts ->
                let now = now_ns () in
                let v =
                  Ovs_conntrack.Conntrack.track ~buf c ~now
                    ~zone:opts.ct_zone key
                in
                if v.Ovs_conntrack.Conntrack.conn = None then
                  ignore
                    (Ovs_conntrack.Conntrack.commit c ~now ~zone:opts.ct_zone
                       key)
            | _ -> ());
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
                else incr dropped;
                recycle := frame :: !recycle
            | Some false ->
                incr dropped;
                recycle := frame :: !recycle
            | None ->
                if Spscq.try_push t.upq.(k) (frame, buf.Buffer.len, key) then begin
                  (* frame ownership moves to the revalidator *)
                  check_qbound t (Printf.sprintf "pmd%d.upq" k) t.upq.(k);
                  incr upcalled
                end
                else begin
                  (* bounded queue full: the upcall is lost, the packet
                     dropped — same contract as the VT PMD's lost counter *)
                  incr dropped;
                  recycle := frame :: !recycle
                end)
          burst;
        if !recycle <> [] then Xsk.release_batch xsk !recycle;
        ignore (Xsk.refill xsk consumed : int);
        ignore (Xsk.flush_tx egr : int);
        ws.w_delivered <- ws.w_delivered + !delivered;
        ws.w_dropped <- ws.w_dropped + !dropped;
        ws.w_upcalls <- ws.w_upcalls + !upcalled;
        if !delivered > 0 then
          ignore (Atomic.fetch_and_add t.a_delivered !delivered : int);
        if !dropped > 0 then
          ignore (Atomic.fetch_and_add t.a_dropped !dropped : int);
        if !upcalled > 0 then
          ignore (Atomic.fetch_and_add t.a_upcalls !upcalled : int)
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
          let ok = fwd && transmit_egress t egr ~src_start ~len in
          if ok then begin
            ws.w_delivered <- ws.w_delivered + 1;
            Atomic.incr t.a_delivered;
            (* birth rides the ingress frame's metadata area — the slow
               path's extra queueing is part of its sojourn *)
            let birth = Umem.birth t.ing_umem frame in
            if birth >= 0. then
              Ovs_sim.Quantiles.add t.lat.(cfg.n_domains)
                (Float.max 0. (now_ns () -. birth))
          end
          else begin
            ws.w_dropped <- ws.w_dropped + 1;
            Atomic.incr t.a_dropped
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

(* -- quiescent-state oracles, run at stop after every join -- *)

let check_conservation t =
  if t.cfg.oracles then begin
    (* packet conservation: offered = delivered + dropped, nothing in
       flight once every domain has exited *)
    let offered = Atomic.get t.a_offered in
    let delivered = Atomic.get t.a_delivered in
    let dropped = Atomic.get t.a_dropped in
    if offered <> delivered + dropped then
      viol t "packet conservation: offered %d <> delivered %d + dropped %d"
        offered delivered dropped;
    let in_flight =
      Array.fold_left (fun a x -> a + Ring.available x.Xsk.rx) 0 t.ing_xsks
      + Array.fold_left (fun a q -> a + Spscq.length q) 0 t.upq
      + Array.fold_left (fun a x -> a + Ring.available x.Xsk.tx) 0 t.egr_xsks
    in
    if in_flight <> 0 then viol t "%d packets still in flight at stop" in_flight;
    (* umem frame conservation: every frame owned exactly once *)
    let side label n_frames pool (rings : (string * Ring.t) list) =
      let stamp = Array.make n_frames false in
      let seen = ref 0 in
      let visit where f =
        if f < 0 || f >= n_frames then
          viol t "%s: frame %d out of range (%s)" label f where
        else if stamp.(f) then
          viol t "%s: frame %d owned twice (second owner: %s)" label f where
        else begin
          stamp.(f) <- true;
          incr seen
        end
      in
      List.iter (visit "pool free stack") (Umempool.free_frames pool);
      List.iter (visit "leak quarantine") (Umempool.leaked_frames pool);
      List.iter
        (fun (where, r) ->
          List.iter (fun (d : Ring.desc) -> visit where d.Ring.addr)
            (Ring.pending r))
        rings;
      if !seen <> n_frames then
        viol t "%s: %d of %d frames accounted for" label !seen n_frames
    in
    let ing_rings =
      Array.to_list t.ing_xsks
      |> List.concat_map (fun (x : Xsk.t) ->
             let q = x.Xsk.queue_id in
             [
               (Printf.sprintf "q%d fill ring" q, x.Xsk.fill);
               (Printf.sprintf "q%d comp ring" q, x.Xsk.comp);
               (Printf.sprintf "q%d rx ring" q, x.Xsk.rx);
               (Printf.sprintf "q%d tx ring" q, x.Xsk.tx);
             ])
    in
    side "ingress" (t.cfg.frames_per_queue * t.cfg.n_domains) t.ing_pool
      ing_rings;
    let egr_rings =
      Array.to_list t.egr_xsks
      |> List.concat_map (fun (x : Xsk.t) ->
             let q = x.Xsk.queue_id in
             [
               (Printf.sprintf "egr q%d fill ring" q, x.Xsk.fill);
               (Printf.sprintf "egr q%d comp ring" q, x.Xsk.comp);
               (Printf.sprintf "egr q%d rx ring" q, x.Xsk.rx);
               (Printf.sprintf "egr q%d tx ring" q, x.Xsk.tx);
             ])
    in
    side "egress" (t.cfg.frames_per_queue * (t.cfg.n_domains + 1)) t.egr_pool
      egr_rings
  end

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

let snapshot t ~wall_ns =
  let delivered = Atomic.get t.a_delivered in
  {
    Engine.s_engine = name;
    s_units = t.cfg.n_domains;
    s_offered = Atomic.get t.a_offered;
    s_delivered = delivered;
    s_dropped = Atomic.get t.a_dropped;
    s_upcalls = Atomic.get t.a_upcalls;
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
         (* fold the owner-written per-domain sketches into one readout;
            exact after stop (workers joined), a progress sample before *)
         let merged = Ovs_sim.Quantiles.create () in
         Array.iter (fun s -> Ovs_sim.Quantiles.merge ~into:merged s) t.lat;
         Some merged
       end
       else None);
  }

let stats t =
  match t.final with
  | Some s -> s
  | None ->
      snapshot t
        ~wall_ns:(if t.started then now_ns () -. t.t_start else 0.)

let stop t =
  match t.final with
  | Some s -> s
  | None ->
      if not t.started then invalid_arg "Engine_domains.stop: not started";
      List.iter Domain.join t.workers;
      let wall_ns = now_ns () -. t.t_start in
      t.workers <- [];
      (* every domain joined: the private tables are safe to touch from
         here. The per-zone limit is a switch-wide property, so enforce
         it across all PMD tables at once (globally oldest first). *)
      (match t.cfg.ct with
      | Some { ct_zone; ct_limit = Some limit; _ } ->
          ignore
            (Ovs_conntrack.Conntrack.evict_to_limit_multi
               (Array.to_list t.cts) ~zone:ct_zone ~limit)
      | Some _ | None -> ());
      check_conservation t;
      let s = snapshot t ~wall_ns in
      t.final <- Some s;
      s
