(** IPv4 header parsing and construction. Addresses are 32-bit ints. *)

let header_len = 20  (** without options; options are parsed but never emitted *)

module Proto = struct
  let icmp = 1
  let tcp = 6
  let udp = 17
  let gre = 47

  let to_string = function
    | 1 -> "icmp"
    | 6 -> "tcp"
    | 17 -> "udp"
    | 47 -> "gre"
    | x -> string_of_int x
end

type t = {
  ihl : int;  (** header length in bytes *)
  tos : int;
  total_len : int;
  ident : int;
  flags : int;  (** 3-bit flags field: bit 1 = DF, bit 0 (lsb here) = MF *)
  frag_off : int;
  ttl : int;
  proto : int;
  csum : int;
  src : int;
  dst : int;
}

let addr_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      (int_of_string a lsl 24) lor (int_of_string b lsl 16)
      lor (int_of_string c lsl 8) lor int_of_string d
  | _ -> invalid_arg ("Ipv4.addr_of_string: " ^ s)

let addr_to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF) (a land 0xFF)

(** Is this packet a fragment (either MF set or nonzero offset)? *)
let is_fragment t = t.frag_off > 0 || t.flags land 0x1 = 1

(** Is this a later fragment (nonzero offset), whose L4 header is absent? *)
let is_later_fragment t = t.frag_off > 0

(** Parse at [buf.l3_ofs]. Sets [buf.l4_ofs] on success. *)
let parse (buf : Buffer.t) : t option =
  let ofs = buf.Buffer.l3_ofs in
  if ofs < 0 || Buffer.length buf < ofs + header_len then None
  else begin
    let vihl = Buffer.get_u8 buf ofs in
    if vihl lsr 4 <> 4 then None
    else begin
      let ihl = (vihl land 0xF) * 4 in
      if ihl < header_len || Buffer.length buf < ofs + ihl then None
      else begin
        let frag_word = Buffer.get_u16 buf (ofs + 6) in
        buf.Buffer.l4_ofs <- ofs + ihl;
        Some
          {
            ihl;
            tos = Buffer.get_u8 buf (ofs + 1);
            total_len = Buffer.get_u16 buf (ofs + 2);
            ident = Buffer.get_u16 buf (ofs + 4);
            flags = (frag_word lsr 13) land 0x7;
            frag_off = frag_word land 0x1FFF;
            ttl = Buffer.get_u8 buf (ofs + 8);
            proto = Buffer.get_u8 buf (ofs + 9);
            csum = Buffer.get_u16 buf (ofs + 10);
            src = Buffer.get_u32 buf (ofs + 12);
            dst = Buffer.get_u32 buf (ofs + 16);
          }
      end
    end
  end

(** Write a 20-byte header at [buf.l3_ofs]. [total_len] covers header plus
    payload. Computes the header checksum unless [csum] is given (0 leaves
    it for hardware offload). *)
let write (buf : Buffer.t) ?(tos = 0) ?(ident = 0) ?(flags = 2) ?(ttl = 64)
    ?csum ~proto ~src ~dst ~total_len () =
  let ofs = buf.Buffer.l3_ofs in
  Buffer.set_u8 buf ofs 0x45;
  Buffer.set_u8 buf (ofs + 1) tos;
  Buffer.set_u16 buf (ofs + 2) total_len;
  Buffer.set_u16 buf (ofs + 4) ident;
  Buffer.set_u16 buf (ofs + 6) (flags lsl 13);
  Buffer.set_u8 buf (ofs + 8) ttl;
  Buffer.set_u8 buf (ofs + 9) proto;
  Buffer.set_u16 buf (ofs + 10) 0;
  Buffer.set_u32 buf (ofs + 12) src;
  Buffer.set_u32 buf (ofs + 16) dst;
  let c =
    match csum with
    | Some c -> c
    | None ->
        Checksum.compute buf.Buffer.data ~off:(Buffer.abs buf ofs) ~len:header_len
  in
  Buffer.set_u16 buf (ofs + 10) c;
  buf.Buffer.l4_ofs <- ofs + header_len

(** Recompute the header checksum in place (after TTL decrement, NAT...). *)
let update_csum (buf : Buffer.t) =
  let ofs = buf.Buffer.l3_ofs in
  let ihl = (Buffer.get_u8 buf ofs land 0xF) * 4 in
  Buffer.set_u16 buf (ofs + 10) 0;
  let c = Checksum.compute buf.Buffer.data ~off:(Buffer.abs buf ofs) ~len:ihl in
  Buffer.set_u16 buf (ofs + 10) c

let set_tos (buf : Buffer.t) tos = Buffer.set_u8 buf (buf.Buffer.l3_ofs + 1) tos
let set_ttl (buf : Buffer.t) ttl = Buffer.set_u8 buf (buf.Buffer.l3_ofs + 8) ttl
let set_src (buf : Buffer.t) a = Buffer.set_u32 buf (buf.Buffer.l3_ofs + 12) a
let set_dst (buf : Buffer.t) a = Buffer.set_u32 buf (buf.Buffer.l3_ofs + 16) a
