(** TCP header. The simulation carries real TCP headers so conntrack's state
    machine and the classifier's tcp_flags matching run over real bits. *)

let header_len = 20  (** without options *)

module Flags = struct
  let fin = 0x01
  let syn = 0x02
  let rst = 0x04
  let psh = 0x08
  let ack = 0x10
end

type t = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  data_ofs : int;  (** header length in bytes *)
  flags : int;
  window : int;
  csum : int;
}

let parse (buf : Buffer.t) : t option =
  let ofs = buf.Buffer.l4_ofs in
  if ofs < 0 || Buffer.length buf < ofs + header_len then None
  else begin
    let off_flags = Buffer.get_u16 buf (ofs + 12) in
    Some
      {
        src_port = Buffer.get_u16 buf ofs;
        dst_port = Buffer.get_u16 buf (ofs + 2);
        seq = Buffer.get_u32 buf (ofs + 4);
        ack = Buffer.get_u32 buf (ofs + 8);
        data_ofs = ((off_flags lsr 12) land 0xF) * 4;
        flags = off_flags land 0x3F;
        window = Buffer.get_u16 buf (ofs + 14);
        csum = Buffer.get_u16 buf (ofs + 16);
      }
  end

(** Write a 20-byte header at [buf.l4_ofs]. [payload_len] is the data after
    the header (used for the pseudo-header checksum). *)
let write (buf : Buffer.t) ?(fill_csum = true) ?(seq = 0) ?(ack = 0)
    ?(window = 0xFFFF) ~src_port ~dst_port ~flags ~ip_src ~ip_dst ~payload_len
    () =
  let ofs = buf.Buffer.l4_ofs in
  Buffer.set_u16 buf ofs src_port;
  Buffer.set_u16 buf (ofs + 2) dst_port;
  Buffer.set_u32 buf (ofs + 4) seq;
  Buffer.set_u32 buf (ofs + 8) ack;
  Buffer.set_u16 buf (ofs + 12) ((5 lsl 12) lor (flags land 0x3F));
  Buffer.set_u16 buf (ofs + 14) window;
  Buffer.set_u16 buf (ofs + 16) 0;
  Buffer.set_u16 buf (ofs + 18) 0;
  if fill_csum then begin
    let len = header_len + payload_len in
    let c =
      Checksum.compute_pseudo buf.Buffer.data ~off:(Buffer.abs buf ofs) ~len
        ~src:ip_src ~dst:ip_dst ~proto:Ipv4.Proto.tcp
    in
    Buffer.set_u16 buf (ofs + 16) c
  end

let set_src_port (buf : Buffer.t) p = Buffer.set_u16 buf buf.Buffer.l4_ofs p
let set_dst_port (buf : Buffer.t) p = Buffer.set_u16 buf (buf.Buffer.l4_ofs + 2) p
