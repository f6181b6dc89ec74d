(** IPv6 header. Addresses are pairs of 64-bit halves carried in [Int64]. *)

let header_len = 40

type addr = { hi : int64; lo : int64 }

(** Parse a full (uncompressed-or-[::]-style) address is out of scope for the
    dataplane; tests build addresses from integers instead. *)
let addr_of_int i = { hi = 0x20010DB800000000L; lo = Int64.of_int i }

type t = {
  tclass : int;
  flow_label : int;
  payload_len : int;
  next_header : int;
  hop_limit : int;
  src : addr;
  dst : addr;
}

let parse (buf : Buffer.t) : t option =
  let ofs = buf.Buffer.l3_ofs in
  if ofs < 0 || Buffer.length buf < ofs + header_len then None
  else begin
    let w0 = Buffer.get_u32 buf ofs in
    if w0 lsr 28 <> 6 then None
    else begin
      let get64 o =
        Int64.logor
          (Int64.shift_left (Int64.of_int (Buffer.get_u32 buf o)) 32)
          (Int64.of_int (Buffer.get_u32 buf (o + 4)))
      in
      buf.Buffer.l4_ofs <- ofs + header_len;
      Some
        {
          tclass = (w0 lsr 20) land 0xFF;
          flow_label = w0 land 0xFFFFF;
          payload_len = Buffer.get_u16 buf (ofs + 4);
          next_header = Buffer.get_u8 buf (ofs + 6);
          hop_limit = Buffer.get_u8 buf (ofs + 7);
          src = { hi = get64 (ofs + 8); lo = get64 (ofs + 16) };
          dst = { hi = get64 (ofs + 24); lo = get64 (ofs + 32) };
        }
    end
  end

let write (buf : Buffer.t) ?(tclass = 0) ?(flow_label = 0) ?(hop_limit = 64)
    ~next_header ~src ~dst ~payload_len () =
  let ofs = buf.Buffer.l3_ofs in
  Buffer.set_u32 buf ofs ((6 lsl 28) lor (tclass lsl 20) lor flow_label);
  Buffer.set_u16 buf (ofs + 4) payload_len;
  Buffer.set_u8 buf (ofs + 6) next_header;
  Buffer.set_u8 buf (ofs + 7) hop_limit;
  let put64 o (v : int64) =
    Buffer.set_u32 buf o (Int64.to_int (Int64.shift_right_logical v 32));
    Buffer.set_u32 buf (o + 4) (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  in
  put64 (ofs + 8) src.hi;
  put64 (ofs + 16) src.lo;
  put64 (ofs + 24) dst.hi;
  put64 (ofs + 32) dst.lo;
  buf.Buffer.l4_ofs <- ofs + header_len
