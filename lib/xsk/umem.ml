(** The umem: a contiguous packet-buffer arena shared between the kernel
    driver and OVS userspace, divided into fixed-size frames. The fill ring
    hands empty frames to the kernel; the completion ring returns transmitted
    frames to userspace (Fig 4 paths 1-6). *)

type t = {
  frame_size : int;
  frame_headroom : int;  (** bytes reserved at the head of each frame *)
  n_frames : int;
  data : Bytes.t;
  fill : Ring.t;  (** userspace -> kernel: empty frames for rx *)
  completion : Ring.t;  (** kernel -> userspace: frames done transmitting *)
  birth : float array;
      (** per-frame ingress timestamp, the model's stand-in for the XDP
          metadata area in front of the packet; negative = unstamped *)
  empty : Ring.desc array;
      (** per frame, its zero-length descriptor — what the fill and
          completion rings carry — built once rather than per post *)
}

let default_frame_size = 2048
let default_frame_headroom = 256

let create ?(frame_size = default_frame_size)
    ?(frame_headroom = default_frame_headroom) ~n_frames ~ring_size () =
  {
    frame_size;
    frame_headroom;
    n_frames;
    data = Bytes.make (frame_size * n_frames) '\000';
    fill = Ring.create ~size:ring_size ();
    completion = Ring.create ~size:ring_size ();
    birth = Array.make n_frames (-1.);
    empty = Array.init n_frames (fun addr -> { Ring.addr; len = 0 });
  }

(** Byte offset of frame [idx]'s packet area (after headroom). *)
let frame_offset t idx =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.frame_offset";
  (idx * t.frame_size) + t.frame_headroom

(** Frame [idx]'s zero-length descriptor, for the fill and completion
    rings. *)
let empty_desc t idx = t.empty.(idx)

(** Usable payload capacity of one frame. *)
let frame_capacity t = t.frame_size - t.frame_headroom

(** Per-frame ingress timestamp (the XDP metadata area in the model):
    stamped by the driver on rx, read back when the frame surfaces as a
    packet buffer. *)
let set_birth t idx ns =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.set_birth";
  t.birth.(idx) <- ns

let birth t idx =
  if idx < 0 || idx >= t.n_frames then invalid_arg "Umem.birth";
  t.birth.(idx)

(** Copy [len] wire bytes into frame [idx] — the model's stand-in for the
    NIC's DMA in zero-copy mode (charged as device time, not CPU). *)
let dma_into_frame t idx (src : Bytes.t) ~src_off ~len =
  if len > frame_capacity t then invalid_arg "Umem.dma_into_frame: frame overflow";
  Bytes.blit src src_off t.data (frame_offset t idx) len

(** A packet buffer whose bytes alias frame [idx] in place — userspace
    processing of an AF_XDP packet is zero-copy. The buffer's headroom is
    the frame headroom, so tunnel encap works without copies too. *)
let buffer_of_frame t idx ~len : Ovs_packet.Buffer.t =
  let open Ovs_packet in
  {
    Buffer.data = t.data;
    start = frame_offset t idx;
    len;
    in_port = -1;
    rss_hash = 0;
    l3_ofs = -1;
    l4_ofs = -1;
    recirc_id = 0;
    ct_state = 0;
    ct_zone = 0;
    ct_mark = 0;
    tunnel = None;
    birth_ns = t.birth.(idx);
    regs = Buffer.fresh_regs ();
    offload = Buffer.fresh_offload ();
  }
