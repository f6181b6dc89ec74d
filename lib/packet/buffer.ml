(** Packet buffer with metadata — the analogue of OVS's [dp_packet].

    Data lives in a [Bytes.t] with headroom in front so tunnel encapsulation
    can prepend outer headers without copying the payload (as the real
    datapath does). The metadata fields mirror the ones the paper's O4
    optimization preallocates: input port, L3/L4 offsets, RSS hash, plus the
    pipeline state OVS tracks (recirculation id, conntrack state, tunnel
    info after decap). *)

type tunnel_md = {
  tun_id : int;  (** VNI / GRE key *)
  tun_src : int;  (** outer IPv4 source *)
  tun_dst : int;  (** outer IPv4 destination *)
}

type offload_flags = {
  mutable csum_good : bool;  (** receive: checksum validated by NIC *)
  mutable csum_tx_offload : bool;  (** transmit: leave checksum to the NIC *)
  mutable tso_segsz : int;  (** transmit: segment size for TSO; 0 = off *)
}

type t = {
  mutable data : Bytes.t;
  mutable start : int;  (** offset of the first live byte *)
  mutable len : int;  (** live bytes from [start] *)
  mutable in_port : int;
  mutable rss_hash : int;  (** 0 means "not computed" *)
  mutable l3_ofs : int;  (** offset of the L3 header relative to [start]; -1 unknown *)
  mutable l4_ofs : int;
  mutable recirc_id : int;
  mutable ct_state : int;
  mutable ct_zone : int;
  mutable ct_mark : int;
  mutable tunnel : tunnel_md option;
  mutable birth_ns : float;
      (** ingress timestamp for sojourn-time measurement: virtual ns
          under [Engine_vt], monotonic wall ns under [Engine_domains];
          negative = unstamped (latency measurement off) *)
  regs : int array;
      (** pipeline metadata registers reg0..reg7 — like OVS's frozen
          translation state, they survive recirculation, which register-
          driven pipelines (NSX) depend on *)
  offload : offload_flags;
}

let default_headroom = 128

let fresh_offload () = { csum_good = false; csum_tx_offload = false; tso_segsz = 0 }

(* a literal, so no runtime call builds it *)
let fresh_regs () = [| 0; 0; 0; 0; 0; 0; 0; 0 |]

let create ?(headroom = default_headroom) ~size () =
  {
    data = Bytes.make (headroom + size) '\000';
    start = headroom;
    len = 0;
    in_port = -1;
    rss_hash = 0;
    l3_ofs = -1;
    l4_ofs = -1;
    recirc_id = 0;
    ct_state = 0;
    ct_zone = 0;
    ct_mark = 0;
    tunnel = None;
    birth_ns = -1.;
    regs = fresh_regs ();
    offload = fresh_offload ();
  }

(** A fresh buffer holding [len] bytes of [b] from [off]. *)
let of_sub ?(headroom = default_headroom) (b : Bytes.t) ~off ~len =
  let t = create ~headroom ~size:len () in
  Bytes.blit b off t.data t.start len;
  t.len <- len;
  t

let of_bytes ?headroom (b : Bytes.t) = of_sub ?headroom b ~off:0 ~len:(Bytes.length b)

let length t = t.len
let headroom t = t.start

(** Reset all metadata so the buffer can be reused for a new packet, as the
    preallocated dp_packet array does (optimization O4). *)
let reset_metadata t =
  t.start <- default_headroom;
  t.len <- 0;
  t.in_port <- -1;
  t.rss_hash <- 0;
  t.l3_ofs <- -1;
  t.l4_ofs <- -1;
  t.recirc_id <- 0;
  t.ct_state <- 0;
  t.ct_zone <- 0;
  t.ct_mark <- 0;
  t.tunnel <- None;
  t.birth_ns <- -1.;
  Array.fill t.regs 0 8 0;
  t.offload.csum_good <- false;
  t.offload.csum_tx_offload <- false;
  t.offload.tso_segsz <- 0

(** Absolute offset in [data] of a packet-relative offset. *)
let abs t ofs = t.start + ofs

let get_u8 t ofs = Bytes.get_uint8 t.data (abs t ofs)
let set_u8 t ofs v = Bytes.set_uint8 t.data (abs t ofs) v
let get_u16 t ofs = Bytes.get_uint16_be t.data (abs t ofs)
let set_u16 t ofs v = Bytes.set_uint16_be t.data (abs t ofs) v

let get_u32 t ofs =
  Int32.to_int (Bytes.get_int32_be t.data (abs t ofs)) land 0xFFFF_FFFF

let set_u32 t ofs v = Bytes.set_int32_be t.data (abs t ofs) (Int32.of_int v)

(** Prepend [n] bytes of header space; returns unit, new bytes are zeroed.
    Raises [Failure] if the headroom is exhausted. *)
let push t n =
  if n > t.start then failwith "Buffer.push: headroom exhausted";
  t.start <- t.start - n;
  t.len <- t.len + n;
  Bytes.fill t.data t.start n '\000';
  if t.l3_ofs >= 0 then t.l3_ofs <- t.l3_ofs + n;
  if t.l4_ofs >= 0 then t.l4_ofs <- t.l4_ofs + n

(** Drop [n] bytes from the front (tunnel decap). *)
let pull t n =
  if n > t.len then failwith "Buffer.pull: packet too short";
  t.start <- t.start + n;
  t.len <- t.len - n;
  if t.l3_ofs >= 0 then t.l3_ofs <- t.l3_ofs - n;
  if t.l4_ofs >= 0 then t.l4_ofs <- t.l4_ofs - n

(** Append [n] zero bytes at the tail, growing the backing store if needed. *)
let put t n =
  let needed = t.start + t.len + n in
  if needed > Bytes.length t.data then begin
    let bigger = Bytes.make (Int.max needed (2 * Bytes.length t.data)) '\000' in
    Bytes.blit t.data 0 bigger 0 (t.start + t.len);
    t.data <- bigger
  end;
  Bytes.fill t.data (t.start + t.len) n '\000';
  t.len <- t.len + n

(** An independent copy (data and metadata). *)
let clone t =
  {
    t with
    data = Bytes.copy t.data;
    regs = Array.copy t.regs;
    offload =
      {
        csum_good = t.offload.csum_good;
        csum_tx_offload = t.offload.csum_tx_offload;
        tso_segsz = t.offload.tso_segsz;
      };
  }

(** A fresh buffer (default headroom, fresh metadata) holding a copy of
    [t]'s live bytes: one copy, where [of_bytes (contents t)] makes two. *)
let copy_live t = of_sub t.data ~off:t.start ~len:t.len

(** The live bytes as a fresh [Bytes.t] (for tests and tcpdump). *)
let contents t = Bytes.sub t.data t.start t.len

let pp ppf t =
  Fmt.pf ppf "pkt[len=%d in_port=%d l3=%d l4=%d recirc=%d]" t.len t.in_port
    t.l3_ofs t.l4_ofs t.recirc_id
