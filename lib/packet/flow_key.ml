(** The flow key: every packet header and metadata field the OVS pipeline
    can match on, extracted once per packet ("miniflow extraction").

    Represented as a fixed-size [int array] indexed by {!Field.t}, private
    to this module. This keeps masking, hashing and comparison generic and
    fast, which is exactly what the exact-match cache and the tuple-space
    classifier need. An OCaml int holds 63 bits, so each 128-bit IPv6
    address is stored losslessly in three words: [ipv6_*_hi] holds bits
    127..66, [ipv6_*_lo] bits 61..0 and the 4-bit [ipv6_*_mid] bits 65..62.
    Prefix masks stay meaningful within each word. The two [mid] fields
    come after [reg7], so every older field keeps its index and OXM
    number. *)

module Field = struct
  type t =
    | In_port
    | Recirc_id
    | Dl_src
    | Dl_dst
    | Dl_type
    | Vlan_tci
    | Nw_src
    | Nw_dst
    | Nw_proto
    | Nw_tos
    | Nw_ttl
    | Nw_frag
    | Tp_src
    | Tp_dst
    | Tcp_flags
    | Tun_id
    | Tun_src
    | Tun_dst
    | Ct_state
    | Ct_zone
    | Ct_mark
    | Ip6_src_hi
    | Ip6_src_lo
    | Ip6_dst_hi
    | Ip6_dst_lo
    | Reg0  (** pipeline metadata registers (NSX uses them heavily) *)
    | Reg1
    | Reg2
    | Reg3
    | Reg4
    | Reg5
    | Reg6
    | Reg7
    | Ip6_src_mid
    | Ip6_dst_mid

  let all =
    [|
      In_port; Recirc_id; Dl_src; Dl_dst; Dl_type; Vlan_tci; Nw_src; Nw_dst;
      Nw_proto; Nw_tos; Nw_ttl; Nw_frag; Tp_src; Tp_dst; Tcp_flags; Tun_id;
      Tun_src; Tun_dst; Ct_state; Ct_zone; Ct_mark; Ip6_src_hi; Ip6_src_lo;
      Ip6_dst_hi; Ip6_dst_lo; Reg0; Reg1; Reg2; Reg3; Reg4; Reg5; Reg6; Reg7;
      Ip6_src_mid; Ip6_dst_mid;
    |]

  let count = Array.length all

  let to_index : t -> int = function
    | In_port -> 0
    | Recirc_id -> 1
    | Dl_src -> 2
    | Dl_dst -> 3
    | Dl_type -> 4
    | Vlan_tci -> 5
    | Nw_src -> 6
    | Nw_dst -> 7
    | Nw_proto -> 8
    | Nw_tos -> 9
    | Nw_ttl -> 10
    | Nw_frag -> 11
    | Tp_src -> 12
    | Tp_dst -> 13
    | Tcp_flags -> 14
    | Tun_id -> 15
    | Tun_src -> 16
    | Tun_dst -> 17
    | Ct_state -> 18
    | Ct_zone -> 19
    | Ct_mark -> 20
    | Ip6_src_hi -> 21
    | Ip6_src_lo -> 22
    | Ip6_dst_hi -> 23
    | Ip6_dst_lo -> 24
    | Reg0 -> 25
    | Reg1 -> 26
    | Reg2 -> 27
    | Reg3 -> 28
    | Reg4 -> 29
    | Reg5 -> 30
    | Reg6 -> 31
    | Reg7 -> 32
    | Ip6_src_mid -> 33
    | Ip6_dst_mid -> 34

  let name = function
    | In_port -> "in_port"
    | Recirc_id -> "recirc_id"
    | Dl_src -> "dl_src"
    | Dl_dst -> "dl_dst"
    | Dl_type -> "dl_type"
    | Vlan_tci -> "vlan_tci"
    | Nw_src -> "nw_src"
    | Nw_dst -> "nw_dst"
    | Nw_proto -> "nw_proto"
    | Nw_tos -> "nw_tos"
    | Nw_ttl -> "nw_ttl"
    | Nw_frag -> "nw_frag"
    | Tp_src -> "tp_src"
    | Tp_dst -> "tp_dst"
    | Tcp_flags -> "tcp_flags"
    | Tun_id -> "tun_id"
    | Tun_src -> "tun_src"
    | Tun_dst -> "tun_dst"
    | Ct_state -> "ct_state"
    | Ct_zone -> "ct_zone"
    | Ct_mark -> "ct_mark"
    | Ip6_src_hi -> "ipv6_src_hi"
    | Ip6_src_lo -> "ipv6_src_lo"
    | Ip6_dst_hi -> "ipv6_dst_hi"
    | Ip6_dst_lo -> "ipv6_dst_lo"
    | Reg0 -> "reg0"
    | Reg1 -> "reg1"
    | Reg2 -> "reg2"
    | Reg3 -> "reg3"
    | Reg4 -> "reg4"
    | Reg5 -> "reg5"
    | Reg6 -> "reg6"
    | Reg7 -> "reg7"
    | Ip6_src_mid -> "ipv6_src_mid"
    | Ip6_dst_mid -> "ipv6_dst_mid"

  let of_name s =
    let rec find i =
      if i >= count then None
      else if name all.(i) = s then Some all.(i)
      else find (i + 1)
    in
    find 0

  (** Width of the field in bits, for exact-match mask construction. *)
  let width = function
    | In_port -> 32
    | Recirc_id -> 32
    | Dl_src | Dl_dst -> 48
    | Dl_type -> 16
    | Vlan_tci -> 16
    | Nw_src | Nw_dst -> 32
    | Nw_proto -> 8
    | Nw_tos -> 8
    | Nw_ttl -> 8
    | Nw_frag -> 8
    | Tp_src | Tp_dst -> 16
    | Tcp_flags -> 16
    | Tun_id -> 32
    | Tun_src | Tun_dst -> 32
    | Ct_state -> 16
    | Ct_zone -> 16
    | Ct_mark -> 32
    | Ip6_src_hi | Ip6_src_lo | Ip6_dst_hi | Ip6_dst_lo -> 62
    | Ip6_src_mid | Ip6_dst_mid -> 4
    | Reg0 | Reg1 | Reg2 | Reg3 | Reg4 | Reg5 | Reg6 | Reg7 -> 32

  let full_mask f =
    let w = width f in
    if w >= 62 then max_int else (1 lsl w) - 1
end

type t = int array

(* ct_state bits, mirroring OVS's +new+est+rel+rpl+inv+trk *)
module Ct_state_bits = struct
  let new_ = 0x01
  let est = 0x02
  let rel = 0x04
  let rpl = 0x08
  let inv = 0x10
  let trk = 0x20
end

let create () : t = Array.make Field.count 0
let get (k : t) f = k.(Field.to_index f)
let set (k : t) f v = k.(Field.to_index f) <- v
let copy (k : t) : t = Array.copy k

(** Overwrite [dst] with [src] (a cache reusing an evicted entry's key). *)
let blit ~(src : t) ~(dst : t) = Array.blit src 0 dst 0 Field.count

(* Field by field, without the polymorphic comparison's generic walk. *)
let equal (a : t) (b : t) =
  a == b
  || Array.length a = Array.length b
     &&
     let i = ref 0 in
     while !i < Array.length a && Array.unsafe_get a !i = Array.unsafe_get b !i do
       incr i
     done;
     !i = Array.length a

let fnv_prime = 0x100000001b3

(* [fnv_pow.(n)] is the FNV prime to the [n]th power, wrapping as OCaml
   ints do. *)
let fnv_pow =
  let a = Array.make (Field.count + 1) 1 in
  for n = 1 to Field.count do
    a.(n) <- a.(n - 1) * fnv_prime
  done;
  a

(* [hash] treats fields [0 .. n_base - 1] (through [Reg7]) as plain
   FNV-1a; the IPv6 middle words after them enter only when nonzero. *)
let n_base = Field.to_index Field.Ip6_src_mid

(** FNV-1a over all fields; the EMC and SMC hash keys this way. A zero
    field only multiplies by the prime ([(h lxor 0) * p = h * p]), so a
    run of [n] zero fields is one multiplication by [p^n]: the value is
    exactly the field-by-field FNV-1a, with one multiplication per
    nonzero field instead of one per field. The fields after [Reg7] (the
    IPv6 middle words) enter only when nonzero: an IPv4 key, which leaves
    them zero, then hashes as FNV-1a over [In_port .. Reg7], so the EMC
    and SMC place IPv4 flows, and charge their collisions, independently
    of the IPv6 fields. *)
let hash (k : t) =
  let h = ref 0x3bf29ce484222325 and zeros = ref 0 in
  for i = 0 to n_base - 1 do
    let v = Array.unsafe_get k i in
    if v = 0 then incr zeros
    else begin
      h := ((!h * Array.unsafe_get fnv_pow !zeros) lxor v) * fnv_prime;
      zeros := 0
    end
  done;
  let h = ref (!h * Array.unsafe_get fnv_pow !zeros) in
  for i = n_base to Field.count - 1 do
    let v = Array.unsafe_get k i in
    if v <> 0 then h := (!h lxor v) * fnv_prime
  done;
  !h land max_int

let rec equal_masked_from (a : t) (b : t) (mask : t) i =
  i >= Field.count
  || (a.(i) land mask.(i) = b.(i) land mask.(i) && equal_masked_from a b mask (i + 1))

let equal_masked (a : t) (b : t) (mask : t) = equal_masked_from a b mask 0

(** Apply [mask] to [k], returning a fresh key with wildcarded bits zeroed. *)
let apply_mask (k : t) (mask : t) : t =
  let m = Array.make Field.count 0 in
  for i = 0 to Field.count - 1 do
    m.(i) <- k.(i) land mask.(i)
  done;
  m

(** {1 Sparse masks}

    A classifier subtable touches only the words its mask covers. These
    run the whole loop here, over the covered words' indices and mask
    words, so a probe makes one call per key rather than one per word. *)

(** The indices of [mask]'s nonzero words and those words, in field
    order. *)
let sparse_of_mask (mask : t) =
  let n = ref 0 in
  Array.iter (fun w -> if w <> 0 then incr n) mask;
  let fields = Array.make !n 0 and words = Array.make !n 0 and j = ref 0 in
  Array.iteri
    (fun i w ->
      if w <> 0 then begin
        fields.(!j) <- i;
        words.(!j) <- w;
        incr j
      end)
    mask;
  (fields, words)

(** FNV-1a over [key]'s covered words, each masked ([key] need not be
    masked). *)
let hash_sparse fields words (key : t) =
  let h = ref 0x3bf29ce484222325 in
  for j = 0 to Array.length fields - 1 do
    h :=
      (!h lxor (Array.unsafe_get key (Array.unsafe_get fields j) land Array.unsafe_get words j))
      * fnv_prime
  done;
  !h

(** Whether [key] masked equals, on the covered words, the words stored
    at [flat.(off) ..] by {!store_sparse}. *)
let equal_sparse fields words (flat : int array) off (key : t) =
  let n = Array.length fields in
  let j = ref 0 in
  while
    !j < n
    && Array.unsafe_get flat (off + !j)
       = Array.unsafe_get key (Array.unsafe_get fields !j) land Array.unsafe_get words !j
  do
    incr j
  done;
  !j = n

(** Store [key]'s covered words, each masked, at [flat.(off) ..]. *)
let store_sparse fields words (key : t) (flat : int array) off =
  Array.iteri (fun j i -> flat.(off + j) <- key.(i) land words.(j)) fields

(** [acc] becomes [acc lor m], word by word (a translation's accumulated
    wildcard mask). *)
let or_mask (acc : t) (m : t) =
  for i = 0 to Field.count - 1 do
    acc.(i) <- acc.(i) lor m.(i)
  done

let rss_mix h v = (h lxor v) * 0x01000193 land 0x7FFFFFFF

(** 5-tuple RSS hash, the value AF_XDP must compute in software (Sec 5.5). *)
let rss_hash (k : t) =
  let open Field in
  let h = rss_mix 0x9e3779b9 (get k Nw_src) in
  let h = rss_mix h (get k Nw_dst) in
  let h = rss_mix h (get k Nw_proto) in
  let h = rss_mix h (get k Tp_src) in
  rss_mix h (get k Tp_dst)

(* Field indices used by extraction, resolved once. *)
let ix_ct_mark = Field.to_index Field.Ct_mark
let ix_ct_state = Field.to_index Field.Ct_state
let ix_ct_zone = Field.to_index Field.Ct_zone
let ix_dl_dst = Field.to_index Field.Dl_dst
let ix_dl_src = Field.to_index Field.Dl_src
let ix_dl_type = Field.to_index Field.Dl_type
let ix_in_port = Field.to_index Field.In_port
let ix_ip6_dst_hi = Field.to_index Field.Ip6_dst_hi
let ix_ip6_dst_lo = Field.to_index Field.Ip6_dst_lo
let ix_ip6_dst_mid = Field.to_index Field.Ip6_dst_mid
let ix_ip6_src_hi = Field.to_index Field.Ip6_src_hi
let ix_ip6_src_lo = Field.to_index Field.Ip6_src_lo
let ix_ip6_src_mid = Field.to_index Field.Ip6_src_mid
let ix_nw_dst = Field.to_index Field.Nw_dst
let ix_nw_frag = Field.to_index Field.Nw_frag
let ix_nw_proto = Field.to_index Field.Nw_proto
let ix_nw_src = Field.to_index Field.Nw_src
let ix_nw_tos = Field.to_index Field.Nw_tos
let ix_nw_ttl = Field.to_index Field.Nw_ttl
let ix_recirc_id = Field.to_index Field.Recirc_id
let ix_reg0 = Field.to_index Field.Reg0
let ix_tcp_flags = Field.to_index Field.Tcp_flags
let ix_tp_dst = Field.to_index Field.Tp_dst
let ix_tp_src = Field.to_index Field.Tp_src
let ix_tun_dst = Field.to_index Field.Tun_dst
let ix_tun_id = Field.to_index Field.Tun_id
let ix_tun_src = Field.to_index Field.Tun_src
let ix_vlan_tci = Field.to_index Field.Vlan_tci

(* Big-endian reads at packet-relative offsets, defined here so they
   inline into the extraction (calls into other modules do not inline in
   dune's dev builds). *)
let[@inline] u8 (b : Buffer.t) o = Bytes.get_uint8 b.Buffer.data (b.Buffer.start + o)
let[@inline] u16 (b : Buffer.t) o = Bytes.get_uint16_be b.Buffer.data (b.Buffer.start + o)

let[@inline] u32 (b : Buffer.t) o =
  Int32.to_int (Bytes.get_int32_be b.Buffer.data (b.Buffer.start + o)) land 0xFFFF_FFFF

let[@inline] mac b o = (u16 b o lsl 32) lor (u16 b (o + 2) lsl 16) lor u16 b (o + 4)

(* Header fields straight from the bytes, with no header records. Each
   step mirrors its parser exactly — the same length and version checks,
   and the same [l3_ofs]/[l4_ofs] side effects ([Ethernet.parse] sets
   [l3_ofs], [Ipv4.parse]/[Ipv6.parse] set [l4_ofs]) — so other modules
   that read those offsets after extraction see what they always saw.
   The test suite checks equality against the parser composition. *)

let extract_l4 (k : t) (buf : Buffer.t) ~proto ~l4 =
  let len = buf.Buffer.len in
  if proto = Ipv4.Proto.udp then begin
    if len >= l4 + Udp.header_len then begin
      k.(ix_tp_src) <- u16 buf l4;
      k.(ix_tp_dst) <- u16 buf (l4 + 2)
    end
  end
  else if proto = Ipv4.Proto.tcp then begin
    if len >= l4 + Tcp.header_len then begin
      k.(ix_tp_src) <- u16 buf l4;
      k.(ix_tp_dst) <- u16 buf (l4 + 2);
      k.(ix_tcp_flags) <- u16 buf (l4 + 12) land 0x3F
    end
  end
  else if proto = Ipv4.Proto.icmp then begin
    if len >= l4 + Icmp.header_len then begin
      k.(ix_tp_src) <- u8 buf l4;
      k.(ix_tp_dst) <- u8 buf (l4 + 1)
    end
  end

let extract_ipv4 (k : t) (buf : Buffer.t) ~l3 =
  if buf.Buffer.len >= l3 + Ipv4.header_len then begin
    let vihl = u8 buf l3 in
    let ihl = (vihl land 0xF) * 4 in
    if vihl lsr 4 = 4 && ihl >= Ipv4.header_len && buf.Buffer.len >= l3 + ihl
    then begin
      let frag_word = u16 buf (l3 + 6) in
      let frag_off = frag_word land 0x1FFF in
      let proto = u8 buf (l3 + 9) in
      let l4 = l3 + ihl in
      buf.Buffer.l4_ofs <- l4;
      k.(ix_nw_src) <- u32 buf (l3 + 12);
      k.(ix_nw_dst) <- u32 buf (l3 + 16);
      k.(ix_nw_proto) <- proto;
      k.(ix_nw_tos) <- u8 buf (l3 + 1);
      k.(ix_nw_ttl) <- u8 buf (l3 + 8);
      (* a fragment: nonzero offset or MF set; a later fragment (nonzero
         offset) carries no L4 header *)
      k.(ix_nw_frag) <-
        (if frag_off > 0 || (frag_word lsr 13) land 0x1 = 1 then 1 else 0);
      if frag_off = 0 then extract_l4 k buf ~proto ~l4
    end
  end

(* An IPv6 address at [ofs], as 32-bit words [w0..w3] from the top,
   split into the key's three words (see the module comment). *)
let extract_ipv6_addr (k : t) (buf : Buffer.t) ofs ~hi ~mid ~lo =
  let w1 = u32 buf (ofs + 4) and w2 = u32 buf (ofs + 8) in
  k.(hi) <- (u32 buf ofs lsl 30) lor (w1 lsr 2);
  k.(mid) <- ((w1 land 0x3) lsl 2) lor (w2 lsr 30);
  k.(lo) <- ((w2 land 0x3FFF_FFFF) lsl 32) lor u32 buf (ofs + 12)

let extract_ipv6 (k : t) (buf : Buffer.t) ~l3 =
  if buf.Buffer.len >= l3 + Ipv6.header_len then begin
    let w0 = u32 buf l3 in
    if w0 lsr 28 = 6 then begin
      buf.Buffer.l4_ofs <- l3 + Ipv6.header_len;
      extract_ipv6_addr k buf (l3 + 8) ~hi:ix_ip6_src_hi ~mid:ix_ip6_src_mid
        ~lo:ix_ip6_src_lo;
      extract_ipv6_addr k buf (l3 + 24) ~hi:ix_ip6_dst_hi ~mid:ix_ip6_dst_mid
        ~lo:ix_ip6_dst_lo;
      k.(ix_nw_proto) <- u8 buf (l3 + 6);
      k.(ix_nw_tos) <- (w0 lsr 20) land 0xFF;
      k.(ix_nw_ttl) <- u8 buf (l3 + 7)
    end
  end

let extract_arp (k : t) (buf : Buffer.t) ~l3 =
  if
    buf.Buffer.len >= l3 + Arp.payload_len
    && u16 buf l3 = 1 (* htype ethernet *)
    && u16 buf (l3 + 2) = Ethernet.Ethertype.ipv4
  then begin
    (* OVS convention: ARP op in nw_proto, spa/tpa in nw_src/dst *)
    k.(ix_nw_proto) <- u16 buf (l3 + 6);
    k.(ix_nw_src) <- u32 buf (l3 + 14);
    k.(ix_nw_dst) <- u32 buf (l3 + 24)
  end

(* Ethernet, then the L3 protocol it names. A frame too short for its
   (VLAN-tagged) Ethernet header sets no [dl_*] field and no offset. *)
let extract_headers (k : t) (buf : Buffer.t) =
  let len = buf.Buffer.len in
  if len >= Ethernet.header_len then begin
    let ty = u16 buf 12 in
    let tagged = ty = Ethernet.Ethertype.vlan in
    if (not tagged) || len >= Ethernet.header_len + Ethernet.vlan_header_len
    then begin
      k.(ix_dl_dst) <- mac buf 0;
      k.(ix_dl_src) <- mac buf 6;
      let eth_type = if tagged then u16 buf 16 else ty in
      let l3 =
        if tagged then Ethernet.header_len + Ethernet.vlan_header_len
        else Ethernet.header_len
      in
      if tagged then k.(ix_vlan_tci) <- u16 buf 14 lor 0x1000;
      k.(ix_dl_type) <- eth_type;
      buf.Buffer.l3_ofs <- l3;
      if eth_type = Ethernet.Ethertype.ipv4 then extract_ipv4 k buf ~l3
      else if eth_type = Ethernet.Ethertype.ipv6 then extract_ipv6 k buf ~l3
      else if eth_type = Ethernet.Ethertype.arp then extract_arp k buf ~l3
    end
  end

(** Extract the flow key from a packet into [k], overwriting every field
    — the analogue of OVS's [miniflow_extract]. Parses Ethernet, VLAN,
    ARP, IPv4/IPv6 and L4 headers and copies packet metadata (port,
    recirculation, conntrack, registers, tunnel). Allocates nothing, so
    the datapath extracts each pass into a key it owns. *)
let extract_into (k : t) (buf : Buffer.t) =
  for i = 0 to Field.count - 1 do
    k.(i) <- 0
  done;
  k.(ix_in_port) <- buf.Buffer.in_port;
  k.(ix_recirc_id) <- buf.Buffer.recirc_id;
  k.(ix_ct_state) <- buf.Buffer.ct_state;
  k.(ix_ct_zone) <- buf.Buffer.ct_zone;
  k.(ix_ct_mark) <- buf.Buffer.ct_mark;
  for i = 0 to 7 do
    k.(ix_reg0 + i) <- buf.Buffer.regs.(i)
  done;
  (match buf.Buffer.tunnel with
  | Some tmd ->
      k.(ix_tun_id) <- tmd.Buffer.tun_id;
      k.(ix_tun_src) <- tmd.Buffer.tun_src;
      k.(ix_tun_dst) <- tmd.Buffer.tun_dst
  | None -> ());
  extract_headers k buf

(** {!extract_into} a fresh key. *)
let extract (buf : Buffer.t) : t =
  let k = create () in
  extract_into k buf;
  k

(* An address from its three key words (bit [b] of the address is bit
   [b - 66] of [hi], [b - 62] of [mid] or [b] of [lo]), as eight
   colon-separated 16-bit groups. *)
let ipv6_to_string hi mid lo =
  let bit b =
    if b >= 66 then (hi lsr (b - 66)) land 1
    else if b >= 62 then (mid lsr (b - 62)) land 1
    else (lo lsr b) land 1
  in
  let group i =
    let v = ref 0 in
    for b = 127 - (16 * i) downto 112 - (16 * i) do
      v := (!v lsl 1) lor bit b
    done;
    Printf.sprintf "%x" !v
  in
  String.concat ":" (List.init 8 group)

let pp ppf (k : t) =
  let open Field in
  Fmt.pf ppf "in_port=%d" (get k In_port);
  if get k Recirc_id <> 0 then Fmt.pf ppf ",recirc=%d" (get k Recirc_id);
  if get k Tun_id <> 0 then Fmt.pf ppf ",tun_id=%d" (get k Tun_id);
  Fmt.pf ppf ",%s>%s,dl_type=%s"
    (Mac.to_string (get k Dl_src))
    (Mac.to_string (get k Dl_dst))
    (Ethernet.Ethertype.to_string (get k Dl_type));
  if get k Dl_type = Ethernet.Ethertype.ipv4 then
    Fmt.pf ppf ",%s>%s,proto=%s,tp=%d>%d"
      (Ipv4.addr_to_string (get k Nw_src))
      (Ipv4.addr_to_string (get k Nw_dst))
      (Ipv4.Proto.to_string (get k Nw_proto))
      (get k Tp_src) (get k Tp_dst);
  if get k Dl_type = Ethernet.Ethertype.ipv6 then
    Fmt.pf ppf ",%s>%s,proto=%s"
      (ipv6_to_string (get k Ip6_src_hi) (get k Ip6_src_mid) (get k Ip6_src_lo))
      (ipv6_to_string (get k Ip6_dst_hi) (get k Ip6_dst_mid) (get k Ip6_dst_lo))
      (Ipv4.Proto.to_string (get k Nw_proto));
  if get k Ct_state <> 0 then Fmt.pf ppf ",ct_state=0x%x" (get k Ct_state)
