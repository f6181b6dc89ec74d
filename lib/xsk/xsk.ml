(** The AF_XDP socket ("XSK"): one rx/tx ring pair bound to a (device,
    queue) and backed by a umem. The kernel side delivers packets that the
    XDP program redirected to the socket; the user side is polled by a PMD
    thread (or, without O1, by the main OVS thread). *)

let cov_rx_no_frame = Ovs_sim.Coverage.counter "xsk_rx_no_frame"
let cov_rx_ring_full = Ovs_sim.Coverage.counter "xsk_rx_ring_full"

type t = {
  umem : Umem.t;
  pool : Umempool.t;
  rx : Ring.t;
  tx : Ring.t;
  fill : Ring.t;
      (** the fill ring this socket posts to. By default the umem's shared
          fill ring (the classic single-socket-per-umem layout); with
          [~atomic:true] a private per-socket ring, as in XDP_SHARED_UMEM
          mode where every socket sharing a umem registers its own
          fill/completion rings — which is what keeps each ring SPSC when
          sockets are polled by different domains. *)
  comp : Ring.t;  (** completion ring; same sharing rule as [fill] *)
  queue_id : int;
  mutable rx_delivered : int;
  mutable rx_dropped_no_frame : int;  (** fill ring empty on arrival *)
  mutable rx_dropped_ring_full : int;
  mutable tx_sent : int;
  mutable kicks : int;  (** sendto() syscalls to flush the tx ring *)
  mutable owner_pmd : int;
      (** id of the PMD thread that owns this socket's rings, or -1. AF_XDP
          rings are single-producer/single-consumer, so exactly one PMD may
          poll an XSK — the runtime claims ownership at assignment time. *)
  fill_target : int;
      (** steady-state fill level the rx path tops the fill ring up to *)
}

let default_fill_target = 1024

(** [~atomic:true] builds the socket for cross-domain use: rx/tx cursors
    become [Atomic.t] SPSC cursors, and the socket gets {e private}
    fill/completion rings over the shared umem (XDP_SHARED_UMEM style)
    instead of using the umem's, so each ring still has exactly one
    producer and one consumer when the kernel side and the PMD side run
    on different domains. *)
let create ?(ring_size = 2048) ?(fill_target = default_fill_target)
    ?(atomic = false) ~umem ~pool ~queue_id () =
  {
    umem;
    pool;
    rx = Ring.create ~atomic ~size:ring_size ();
    tx = Ring.create ~atomic ~size:ring_size ();
    fill = (if atomic then Ring.create ~atomic ~size:ring_size () else umem.Umem.fill);
    comp =
      (if atomic then Ring.create ~atomic ~size:ring_size ()
       else umem.Umem.completion);
    queue_id;
    rx_delivered = 0;
    rx_dropped_no_frame = 0;
    rx_dropped_ring_full = 0;
    tx_sent = 0;
    kicks = 0;
    owner_pmd = -1;
    fill_target;
  }

(** Claim (or release, with [-1]) this socket's rings for one PMD. *)
let set_owner t ~pmd = t.owner_pmd <- pmd

let owner t = t.owner_pmd

(** Userspace: refill the kernel's fill ring from the umempool. Requests
    at least [n] frames (what the last burst consumed) but always enough
    to top the ring back up to the socket's [fill_target] — after an allocation
    failure (pool exhausted) the deficit persists across bursts and must
    be repaid once frames are available again, or rx wedges with an
    empty fill ring. Frames the ring refuses go straight back to the
    pool; returns the number actually posted. *)
let refill t n =
  let deficit = t.fill_target - Ring.available t.fill in
  let want = Int.max n deficit in
  if want <= 0 then 0
  else
    let frames = Umempool.get_batch t.pool want in
    List.fold_left
      (fun posted f ->
        if Ring.push t.fill { Ring.addr = f; len = 0 } then posted + 1
        else begin
          Umempool.put t.pool f;
          posted
        end)
      0 frames

(** Kernel: deliver one received packet into the socket. Copies the wire
    bytes into a fill-ring frame (the DMA step) and posts an rx descriptor.
    [?birth_ns] stamps the frame's XDP-metadata ingress timestamp so the
    latency measurement survives the kernel/userspace crossing (the wire
    bytes carry no metadata). Returns [false] if the packet had to be
    dropped — including frames larger than the umem frame size (AF_XDP of
    this era had no multi-buffer support, so jumbo/TSO frames cannot ride
    an XSK). *)
let drop_no_frame t =
  t.rx_dropped_no_frame <- t.rx_dropped_no_frame + 1;
  Ovs_sim.Coverage.incr cov_rx_no_frame;
  false

let kernel_rx ?(birth_ns = -1.) t (wire : Bytes.t) ~len =
  if len > Umem.frame_capacity t.umem then drop_no_frame t
  else if Ring.is_full t.rx && not (Ring.is_empty t.fill) then begin
    (* rx ring full, checked before a fill frame is taken: this side only
       consumes the fill ring, so it could not hand the frame back
       without becoming the ring's second producer *)
    t.rx_dropped_ring_full <- t.rx_dropped_ring_full + 1;
    Ovs_sim.Coverage.incr cov_rx_ring_full;
    false
  end
  else
    match Ring.pop t.fill with
    | None -> drop_no_frame t
    | Some { Ring.addr = frame; _ } ->
        Umem.dma_into_frame t.umem frame wire ~src_off:0 ~len;
        Umem.set_birth t.umem frame birth_ns;
        (* the rx ring has room and this side is its only producer *)
        ignore (Ring.push t.rx { Ring.addr = frame; len } : bool);
        t.rx_delivered <- t.rx_delivered + 1;
        true

(** Userspace: receive a burst of packets as zero-copy buffers aliasing
    their umem frames. Each returned pair is (frame index, buffer). *)
let rx_burst t ~max : (int * Ovs_packet.Buffer.t) list =
  let descs = Ring.pop_burst t.rx ~max in
  List.map
    (fun { Ring.addr; len } -> (addr, Umem.buffer_of_frame t.umem addr ~len))
    descs

(** Userspace: queue a frame for transmission. The data is already in the
    umem (zero-copy); the kick syscall happens in {!flush_tx}. *)
let tx t ~frame ~len = Ring.push t.tx { Ring.addr = frame; len }

(** Userspace: kick the kernel to transmit queued descriptors (one sendto
    per call — this is the AF_XDP tx syscall overhead of Sec 5.5) and
    recycle completed frames back to the pool. Returns the number sent. *)
let flush_tx t =
  let descs = Ring.pop_burst t.tx ~max:max_int in
  match descs with
  | [] -> 0
  | _ ->
      t.kicks <- t.kicks + 1;
      let frames = List.map (fun d -> d.Ring.addr) descs in
      (* completion-ring round trip, then frames return to the pool *)
      List.iter
        (fun f -> ignore (Ring.push t.comp { Ring.addr = f; len = 0 }))
        frames;
      let done_ = Ring.pop_burst t.comp ~max:max_int in
      Umempool.put_batch t.pool (List.map (fun d -> d.Ring.addr) done_);
      t.tx_sent <- t.tx_sent + List.length descs;
      List.length descs

(** Userspace: return a received frame to the pool without transmitting
    (packet consumed locally or dropped). *)
let release t ~frame = Umempool.put t.pool frame

(** Release a whole burst with batch-friendly locking. *)
let release_batch t frames = Umempool.put_batch t.pool frames
