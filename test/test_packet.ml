(* Unit and property tests for the packet library: wire formats,
   checksums, tunnels, flow-key extraction. *)

open Ovs_packet
module FK = Flow_key

let check = Alcotest.check

(* -- Mac -- *)

let test_mac_roundtrip () =
  let s = "02:00:00:00:00:2a" in
  check Alcotest.string "string roundtrip" s (Mac.to_string (Mac.of_string s))

let test_mac_bytes_roundtrip () =
  let m = Mac.of_string "de:ad:be:ef:01:02" in
  let b = Bytes.make 8 '\000' in
  Mac.to_bytes m b ~off:1;
  check Alcotest.int "bytes roundtrip" m (Mac.of_bytes b ~off:1)

let test_mac_multicast () =
  Alcotest.(check bool) "broadcast is multicast" true (Mac.is_multicast Mac.broadcast);
  Alcotest.(check bool) "of_index is unicast" false
    (Mac.is_multicast (Mac.of_index 7))

let test_mac_of_index_distinct () =
  Alcotest.(check bool) "distinct" true (Mac.of_index 1 <> Mac.of_index 2)

(* -- Checksum -- *)

let test_checksum_verify_computed () =
  let b = Bytes.of_string "\x45\x00\x00\x54\x00\x00\x40\x00\x40\x01\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let c = Checksum.compute b ~off:0 ~len:20 in
  Bytes.set_uint16_be b 10 c;
  Alcotest.(check bool) "verifies" true (Checksum.verify b ~off:0 ~len:20)

let test_checksum_detects_corruption () =
  let b = Bytes.make 20 'x' in
  let c = Checksum.compute b ~off:0 ~len:20 in
  Bytes.set_uint16_be b 10 c;
  Bytes.set_uint8 b 3 (Bytes.get_uint8 b 3 lxor 0xFF);
  Alcotest.(check bool) "corruption detected" false (Checksum.verify b ~off:0 ~len:20)

let test_checksum_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  let c = Checksum.compute b ~off:0 ~len:3 in
  Alcotest.(check bool) "checksum in range" true (c >= 0 && c <= 0xFFFF)

let prop_checksum_roundtrip =
  QCheck.Test.make ~count:300 ~name:"checksum of random data verifies"
    QCheck.(string_of_size Gen.(int_range 2 256))
    (fun s ->
      let len = String.length s in
      let b = Bytes.make (len + 2) '\000' in
      Bytes.blit_string s 0 b 2 len;
      let c = Checksum.compute b ~off:0 ~len:(len + 2) in
      Bytes.set_uint16_be b 0 c;
      Checksum.verify b ~off:0 ~len:(len + 2))

(* -- Buffer -- *)

let test_buffer_push_pull () =
  let buf = Build.udp ~frame_len:64 () in
  let before = Buffer.contents buf in
  Buffer.push buf 8;
  check Alcotest.int "grew" 72 (Buffer.length buf);
  Buffer.pull buf 8;
  check Alcotest.bytes "restored" before (Buffer.contents buf)

let test_buffer_put_grows () =
  let buf = Buffer.create ~size:8 () in
  Buffer.put buf 10_000;
  check Alcotest.int "len" 10_000 (Buffer.length buf)

let test_buffer_offsets_track_push () =
  let buf = Build.udp ~frame_len:64 () in
  let l3 = buf.Buffer.l3_ofs in
  Buffer.push buf 20;
  check Alcotest.int "l3 shifted" (l3 + 20) buf.Buffer.l3_ofs;
  Buffer.pull buf 20;
  check Alcotest.int "l3 restored" l3 buf.Buffer.l3_ofs

let test_buffer_headroom_exhaustion () =
  let buf = Buffer.create ~headroom:4 ~size:8 () in
  Alcotest.check_raises "push beyond headroom"
    (Failure "Buffer.push: headroom exhausted") (fun () -> Buffer.push buf 5)

let test_buffer_reset_metadata () =
  let buf = Build.udp () in
  buf.Buffer.recirc_id <- 7;
  buf.Buffer.ct_state <- 3;
  Buffer.reset_metadata buf;
  check Alcotest.int "recirc cleared" 0 buf.Buffer.recirc_id;
  check Alcotest.int "ct cleared" 0 buf.Buffer.ct_state

let test_buffer_clone_independent () =
  let a = Build.udp () in
  let original = Buffer.get_u8 a 0 in
  let b = Buffer.clone a in
  Buffer.set_u8 b 0 (original lxor 0xFF);
  check Alcotest.int "clone does not alias" original (Buffer.get_u8 a 0)

(* -- Ethernet -- *)

let test_ethernet_parse_build () =
  let buf = Build.udp ~src_mac:(Mac.of_index 5) ~dst_mac:(Mac.of_index 6) () in
  match Ethernet.parse buf with
  | None -> Alcotest.fail "parse failed"
  | Some e ->
      check Alcotest.int "src" (Mac.of_index 5) e.Ethernet.src;
      check Alcotest.int "dst" (Mac.of_index 6) e.Ethernet.dst;
      check Alcotest.int "type" Ethernet.Ethertype.ipv4 e.Ethernet.eth_type

let test_ethernet_vlan_push_pop () =
  let buf = Build.udp () in
  let original = Buffer.contents buf in
  Ethernet.push_vlan buf ~tci:((3 lsl 13) lor 100);
  (match Ethernet.parse buf with
  | Some e ->
      check Alcotest.int "vid" 100 (Ethernet.vlan_vid e.Ethernet.vlan_tci);
      check Alcotest.int "pcp" 3 (Ethernet.vlan_pcp e.Ethernet.vlan_tci)
  | None -> Alcotest.fail "tagged parse failed");
  Ethernet.pop_vlan buf;
  check Alcotest.bytes "pop undoes push" original (Buffer.contents buf)

let test_ethernet_set_addresses () =
  let buf = Build.udp () in
  Ethernet.set_dst buf (Mac.of_index 77);
  Ethernet.set_src buf (Mac.of_index 78);
  check Alcotest.int "dst" (Mac.of_index 77) (Ethernet.get_dst buf);
  check Alcotest.int "src" (Mac.of_index 78) (Ethernet.get_src buf)

let test_ethernet_short_frame () =
  let buf = Buffer.create ~size:8 () in
  Buffer.put buf 8;
  Alcotest.(check bool) "short frame rejected" true (Ethernet.parse buf = None)

(* -- IPv4 -- *)

let test_ipv4_parse_fields () =
  let src = Ipv4.addr_of_string "192.168.1.10" in
  let dst = Ipv4.addr_of_string "10.20.30.40" in
  let buf = Build.udp ~src_ip:src ~dst_ip:dst ~ttl:17 () in
  ignore (Ethernet.parse buf);
  match Ipv4.parse buf with
  | None -> Alcotest.fail "parse failed"
  | Some ip ->
      check Alcotest.int "src" src ip.Ipv4.src;
      check Alcotest.int "dst" dst ip.Ipv4.dst;
      check Alcotest.int "ttl" 17 ip.Ipv4.ttl;
      check Alcotest.int "proto" Ipv4.Proto.udp ip.Ipv4.proto;
      Alcotest.(check bool) "header checksum valid" true
        (Checksum.verify buf.Buffer.data
           ~off:(Buffer.abs buf buf.Buffer.l3_ofs)
           ~len:Ipv4.header_len)

let test_ipv4_addr_roundtrip () =
  let s = "172.16.254.3" in
  check Alcotest.string "roundtrip" s (Ipv4.addr_to_string (Ipv4.addr_of_string s))

let test_ipv4_update_csum_after_rewrite () =
  let buf = Build.udp () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  Ipv4.set_ttl buf 5;
  Ipv4.update_csum buf;
  Alcotest.(check bool) "csum valid after rewrite" true
    (Checksum.verify buf.Buffer.data
       ~off:(Buffer.abs buf buf.Buffer.l3_ofs)
       ~len:Ipv4.header_len)

let test_ipv4_rejects_v6 () =
  let buf = Build.udp () in
  ignore (Ethernet.parse buf);
  Buffer.set_u8 buf buf.Buffer.l3_ofs 0x65;
  Alcotest.(check bool) "wrong version rejected" true (Ipv4.parse buf = None)

let test_ipv4_fragments () =
  let buf = Build.udp () in
  ignore (Ethernet.parse buf);
  (* set MF flag *)
  Buffer.set_u16 buf (buf.Buffer.l3_ofs + 6) (0x1 lsl 13);
  (match Ipv4.parse buf with
  | Some ip ->
      Alcotest.(check bool) "MF makes fragment" true (Ipv4.is_fragment ip);
      Alcotest.(check bool) "first fragment has L4" false (Ipv4.is_later_fragment ip)
  | None -> Alcotest.fail "parse");
  Buffer.set_u16 buf (buf.Buffer.l3_ofs + 6) 100;
  match Ipv4.parse buf with
  | Some ip -> Alcotest.(check bool) "offset makes later fragment" true (Ipv4.is_later_fragment ip)
  | None -> Alcotest.fail "parse"

(* -- UDP / TCP / ICMP / ARP -- *)

let test_udp_parse_ports () =
  let buf = Build.udp ~src_port:1111 ~dst_port:2222 () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  match Udp.parse buf with
  | Some u ->
      check Alcotest.int "sport" 1111 u.Udp.src_port;
      check Alcotest.int "dport" 2222 u.Udp.dst_port
  | None -> Alcotest.fail "udp parse"

let test_udp_checksum_valid () =
  let src_ip = Ipv4.addr_of_string "10.0.0.1" in
  let dst_ip = Ipv4.addr_of_string "10.0.0.2" in
  let buf = Build.udp ~frame_len:128 ~src_ip ~dst_ip () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  match Udp.parse buf with
  | Some u ->
      Alcotest.(check bool) "pseudo-header checksum verifies" true
        (Checksum.verify_pseudo buf.Buffer.data
           ~off:(Buffer.abs buf buf.Buffer.l4_ofs)
           ~len:u.Udp.len ~src:src_ip ~dst:dst_ip ~proto:Ipv4.Proto.udp)
  | None -> Alcotest.fail "udp parse"

let test_tcp_parse_flags () =
  let buf = Build.tcp ~flags:(Tcp.Flags.syn lor Tcp.Flags.ack) ~seq:1000 ~ack:2000 () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  match Tcp.parse buf with
  | Some t ->
      check Alcotest.int "flags" (Tcp.Flags.syn lor Tcp.Flags.ack) t.Tcp.flags;
      check Alcotest.int "seq" 1000 t.Tcp.seq;
      check Alcotest.int "ack" 2000 t.Tcp.ack;
      check Alcotest.int "data offset" 20 t.Tcp.data_ofs
  | None -> Alcotest.fail "tcp parse"

let test_tcp_checksum_valid () =
  let src_ip = Ipv4.addr_of_string "1.2.3.4" and dst_ip = Ipv4.addr_of_string "5.6.7.8" in
  let buf = Build.tcp ~payload_len:37 ~src_ip ~dst_ip () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  Alcotest.(check bool) "tcp checksum verifies" true
    (Checksum.verify_pseudo buf.Buffer.data
       ~off:(Buffer.abs buf buf.Buffer.l4_ofs)
       ~len:(Tcp.header_len + 37) ~src:src_ip ~dst:dst_ip ~proto:Ipv4.Proto.tcp)

let test_icmp_echo () =
  let buf = Build.icmp ~ident:9 ~seq:3 () in
  ignore (Ethernet.parse buf);
  ignore (Ipv4.parse buf);
  match Icmp.parse buf with
  | Some i ->
      check Alcotest.int "type" Icmp.Kind.echo_request i.Icmp.icmp_type;
      check Alcotest.int "ident" 9 i.Icmp.ident;
      check Alcotest.int "seq" 3 i.Icmp.seq
  | None -> Alcotest.fail "icmp parse"

let test_arp_roundtrip () =
  let spa = Ipv4.addr_of_string "10.0.0.1" and tpa = Ipv4.addr_of_string "10.0.0.2" in
  let buf = Build.arp ~src_mac:(Mac.of_index 3) ~op:Arp.Op.request ~spa ~tpa () in
  ignore (Ethernet.parse buf);
  match Arp.parse buf with
  | Some a ->
      check Alcotest.int "op" Arp.Op.request a.Arp.op;
      check Alcotest.int "sha" (Mac.of_index 3) a.Arp.sha;
      check Alcotest.int "spa" spa a.Arp.spa;
      check Alcotest.int "tpa" tpa a.Arp.tpa
  | None -> Alcotest.fail "arp parse"

(* -- Tunnels -- *)

let tunnel_roundtrip kind () =
  let inner = Build.udp ~frame_len:96 ~src_port:777 () in
  let original = Buffer.contents inner in
  let src_ip = Ipv4.addr_of_string "192.168.0.1" in
  let dst_ip = Ipv4.addr_of_string "192.168.0.2" in
  Tunnel.encap inner kind ~vni:42 ~src_mac:(Mac.of_index 1)
    ~dst_mac:(Mac.of_index 2) ~src_ip ~dst_ip ();
  check Alcotest.int "overhead added"
    (Bytes.length original + Tunnel.overhead kind)
    (Buffer.length inner);
  match Tunnel.decap inner with
  | None -> Alcotest.fail "decap failed"
  | Some r ->
      Alcotest.(check bool) "kind" true (r.Tunnel.kind = kind);
      check Alcotest.int "vni" 42 r.Tunnel.md.Buffer.tun_id;
      check Alcotest.int "outer src" src_ip r.Tunnel.md.Buffer.tun_src;
      check Alcotest.int "outer dst" dst_ip r.Tunnel.md.Buffer.tun_dst;
      check Alcotest.bytes "inner intact" original (Buffer.contents inner);
      (match inner.Buffer.tunnel with
      | Some md -> check Alcotest.int "metadata recorded" 42 md.Buffer.tun_id
      | None -> Alcotest.fail "no tunnel metadata")

let test_decap_non_tunnel () =
  let buf = Build.udp ~dst_port:80 () in
  Alcotest.(check bool) "plain udp is not a tunnel" true (Tunnel.decap buf = None)

let test_geneve_udp_port_on_wire () =
  let inner = Build.udp () in
  Tunnel.encap inner Tunnel.Geneve ~vni:7 ~src_mac:1 ~dst_mac:2
    ~src_ip:(Ipv4.addr_of_string "1.1.1.1") ~dst_ip:(Ipv4.addr_of_string "2.2.2.2") ();
  ignore (Ethernet.parse inner);
  ignore (Ipv4.parse inner);
  match Udp.parse inner with
  | Some u -> check Alcotest.int "dst port 6081" 6081 u.Udp.dst_port
  | None -> Alcotest.fail "outer udp"

let prop_tunnel_roundtrip =
  QCheck.Test.make ~count:200 ~name:"tunnel encap/decap preserves inner packet"
    QCheck.(pair (int_range 0 3) (int_range 64 1400))
    (fun (k, len) ->
      let kind =
        match k with 0 -> Tunnel.Geneve | 1 -> Tunnel.Vxlan | 2 -> Tunnel.Gre | _ -> Tunnel.Erspan
      in
      let inner = Build.udp ~frame_len:len () in
      let original = Buffer.contents inner in
      Tunnel.encap inner kind ~vni:(len land 0xFFFF) ~src_mac:1 ~dst_mac:2
        ~src_ip:(Ipv4.addr_of_string "1.0.0.1")
        ~dst_ip:(Ipv4.addr_of_string "1.0.0.2") ();
      match Tunnel.decap inner with
      | Some r -> r.Tunnel.md.Buffer.tun_id = len land 0xFFFF
                  && Buffer.contents inner = original
      | None -> false)

(* -- Flow key -- *)

let test_flow_key_extract_udp () =
  let buf =
    Build.udp ~src_mac:(Mac.of_index 1) ~dst_mac:(Mac.of_index 2)
      ~src_ip:(Ipv4.addr_of_string "10.1.1.1") ~dst_ip:(Ipv4.addr_of_string "10.2.2.2")
      ~src_port:100 ~dst_port:200 ()
  in
  buf.Buffer.in_port <- 4;
  let k = FK.extract buf in
  check Alcotest.int "in_port" 4 (FK.get k FK.Field.In_port);
  check Alcotest.int "dl_type" Ethernet.Ethertype.ipv4 (FK.get k FK.Field.Dl_type);
  check Alcotest.int "nw_src" (Ipv4.addr_of_string "10.1.1.1") (FK.get k FK.Field.Nw_src);
  check Alcotest.int "nw_proto" Ipv4.Proto.udp (FK.get k FK.Field.Nw_proto);
  check Alcotest.int "tp_src" 100 (FK.get k FK.Field.Tp_src);
  check Alcotest.int "tp_dst" 200 (FK.get k FK.Field.Tp_dst)

let test_flow_key_extract_tcp_flags () =
  let buf = Build.tcp ~flags:Tcp.Flags.syn () in
  let k = FK.extract buf in
  check Alcotest.int "tcp flags" Tcp.Flags.syn (FK.get k FK.Field.Tcp_flags)

let test_flow_key_extract_arp () =
  let spa = Ipv4.addr_of_string "10.0.0.1" and tpa = Ipv4.addr_of_string "10.0.0.9" in
  let buf = Build.arp ~op:Arp.Op.request ~spa ~tpa () in
  let k = FK.extract buf in
  check Alcotest.int "arp op in nw_proto" Arp.Op.request (FK.get k FK.Field.Nw_proto);
  check Alcotest.int "spa in nw_src" spa (FK.get k FK.Field.Nw_src);
  check Alcotest.int "tpa in nw_dst" tpa (FK.get k FK.Field.Nw_dst)

let test_flow_key_tunnel_metadata () =
  let buf = Build.udp () in
  buf.Buffer.tunnel <- Some { Buffer.tun_id = 9; tun_src = 1; tun_dst = 2 };
  let k = FK.extract buf in
  check Alcotest.int "tun_id" 9 (FK.get k FK.Field.Tun_id)

let test_flow_key_hash_equal_consistent () =
  let a = FK.extract (Build.udp ()) in
  let b = FK.extract (Build.udp ()) in
  Alcotest.(check bool) "equal keys" true (FK.equal a b);
  check Alcotest.int "equal hashes" (FK.hash a) (FK.hash b)

let test_flow_key_masked_ops () =
  let a = FK.extract (Build.udp ~src_port:1 ()) in
  let b = FK.extract (Build.udp ~src_port:2 ()) in
  let mask = FK.create () in
  FK.set mask FK.Field.Nw_src (FK.Field.full_mask FK.Field.Nw_src);
  Alcotest.(check bool) "equal under mask ignoring ports" true (FK.equal_masked a b mask);
  let full = FK.create () in
  Array.iter (fun f -> FK.set full f (FK.Field.full_mask f)) FK.Field.all;
  Alcotest.(check bool) "differ under full mask" false (FK.equal_masked a b full)

let test_flow_key_rss_depends_on_tuple () =
  let a = FK.extract (Build.udp ~src_port:1 ()) in
  let b = FK.extract (Build.udp ~src_port:9 ()) in
  Alcotest.(check bool) "different ports, different hash" true
    (FK.rss_hash a <> FK.rss_hash b)

let prop_mask_application_idempotent =
  QCheck.Test.make ~count:200 ~name:"apply_mask is idempotent"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int seed in
      let k = FK.create () and m = FK.create () in
      Array.iter
        (fun f ->
          FK.set k f (Ovs_sim.Prng.int prng 1_000_000);
          if Ovs_sim.Prng.bool prng then FK.set m f (FK.Field.full_mask f))
        FK.Field.all;
      let once = FK.apply_mask k m in
      let twice = FK.apply_mask once m in
      FK.equal once twice)

(* -- randomized round-trip properties: build -> parse -> rebuild -- *)

module Prng = Ovs_sim.Prng

let rand_ip prng = 1 + Prng.int prng 0x0FFF_FFFE
let rand_port prng = 1 + Prng.int prng 65534
let rand_mac prng = Mac.of_index (1 + Prng.int prng 200)

(* Rebuilding a frame from nothing but its parsed headers and comparing
   bytes proves the parsers capture every field the builders write (the
   payloads are zero-filled by construction). *)
let prop_udp_reserialize =
  QCheck.Test.make ~count:300 ~name:"udp: build -> parse -> rebuild byte-identical"
    QCheck.small_int
    (fun seed ->
      let prng = Prng.of_int (seed + 1) in
      let src_ip = rand_ip prng and dst_ip = rand_ip prng in
      let buf =
        Build.udp
          ~frame_len:(64 + Prng.int prng 600)
          ~src_mac:(rand_mac prng) ~dst_mac:(rand_mac prng) ~src_ip ~dst_ip
          ~src_port:(rand_port prng) ~dst_port:(rand_port prng)
          ~ttl:(1 + Prng.int prng 254) ()
      in
      let e = Option.get (Ethernet.parse buf) in
      let ip = Option.get (Ipv4.parse buf) in
      let u = Option.get (Udp.parse buf) in
      let rebuilt =
        Build.udp ~frame_len:(Buffer.length buf) ~src_mac:e.Ethernet.src
          ~dst_mac:e.Ethernet.dst ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst
          ~src_port:u.Udp.src_port ~dst_port:u.Udp.dst_port ~ttl:ip.Ipv4.ttl ()
      in
      Buffer.contents rebuilt = Buffer.contents buf
      (* and both header checksums must verify on the wire *)
      && Checksum.verify buf.Buffer.data
           ~off:(Buffer.abs buf buf.Buffer.l3_ofs)
           ~len:Ipv4.header_len
      && Checksum.verify_pseudo buf.Buffer.data
           ~off:(Buffer.abs buf buf.Buffer.l4_ofs)
           ~len:u.Udp.len ~src:src_ip ~dst:dst_ip ~proto:Ipv4.Proto.udp)

let prop_tcp_reserialize =
  QCheck.Test.make ~count:300 ~name:"tcp: build -> parse -> rebuild byte-identical"
    QCheck.small_int
    (fun seed ->
      let prng = Prng.of_int (seed + 2) in
      let src_ip = rand_ip prng and dst_ip = rand_ip prng in
      let payload_len = Prng.int prng 512 in
      let buf =
        Build.tcp ~payload_len ~src_mac:(rand_mac prng) ~dst_mac:(rand_mac prng)
          ~src_ip ~dst_ip ~src_port:(rand_port prng) ~dst_port:(rand_port prng)
          ~flags:(1 + Prng.int prng 0x3E)
          ~seq:(Prng.int prng 0x3FFF_FFFF)
          ~ack:(Prng.int prng 0x3FFF_FFFF)
          ()
      in
      let e = Option.get (Ethernet.parse buf) in
      let ip = Option.get (Ipv4.parse buf) in
      let t = Option.get (Tcp.parse buf) in
      let rebuilt =
        Build.tcp ~payload_len ~src_mac:e.Ethernet.src ~dst_mac:e.Ethernet.dst
          ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ~src_port:t.Tcp.src_port
          ~dst_port:t.Tcp.dst_port ~flags:t.Tcp.flags ~seq:t.Tcp.seq ~ack:t.Tcp.ack ()
      in
      Buffer.contents rebuilt = Buffer.contents buf
      && Checksum.verify_pseudo buf.Buffer.data
           ~off:(Buffer.abs buf buf.Buffer.l4_ofs)
           ~len:(Tcp.header_len + payload_len)
           ~src:src_ip ~dst:dst_ip ~proto:Ipv4.Proto.tcp)

let prop_arp_reserialize =
  QCheck.Test.make ~count:300 ~name:"arp: build -> parse -> rebuild byte-identical"
    QCheck.small_int
    (fun seed ->
      let prng = Prng.of_int (seed + 3) in
      let buf =
        Build.arp ~src_mac:(rand_mac prng) ~dst_mac:(rand_mac prng)
          ~op:(if Prng.bool prng then Arp.Op.request else Arp.Op.reply)
          ~spa:(rand_ip prng) ~tpa:(rand_ip prng) ()
      in
      let e = Option.get (Ethernet.parse buf) in
      let a = Option.get (Arp.parse buf) in
      let rebuilt =
        Build.arp ~src_mac:a.Arp.sha ~dst_mac:e.Ethernet.dst ~op:a.Arp.op
          ~spa:a.Arp.spa ~tpa:a.Arp.tpa ()
      in
      Buffer.contents rebuilt = Buffer.contents buf)

(* Flow-key extraction is a pure function of the frame: building the same
   randomized spec twice (across every protocol, including Geneve
   encapsulation) must yield equal keys, hashes and RSS hashes. *)
let prop_extract_deterministic =
  QCheck.Test.make ~count:300 ~name:"flow-key extraction is deterministic"
    QCheck.small_int
    (fun seed ->
      let build salt =
        let prng = Prng.of_int (seed + 4) in
        ignore salt;
        let src_ip = rand_ip prng and dst_ip = rand_ip prng in
        let sport = rand_port prng and dport = rand_port prng in
        let pkt =
          match Prng.int prng 5 with
          | 0 -> Build.udp ~src_ip ~dst_ip ~src_port:sport ~dst_port:dport ()
          | 1 ->
              Build.tcp ~src_ip ~dst_ip ~src_port:sport ~dst_port:dport
                ~flags:(1 + Prng.int prng 0x3E) ()
          | 2 -> Build.icmp ~src_ip ~dst_ip ~ident:sport ~seq:3 ()
          | 3 -> Build.arp ~spa:src_ip ~tpa:dst_ip ()
          | _ ->
              let inner =
                Build.udp ~src_ip ~dst_ip ~src_port:sport ~dst_port:dport ()
              in
              Tunnel.encap inner Tunnel.Geneve
                ~vni:(Prng.int prng 0xFFFF)
                ~src_mac:(rand_mac prng) ~dst_mac:(rand_mac prng)
                ~src_ip:(rand_ip prng) ~dst_ip:(rand_ip prng) ();
              ignore (Tunnel.decap inner);
              inner
        in
        pkt.Buffer.in_port <- 1 + Prng.int prng 8;
        pkt
      in
      let a = FK.extract (build 0) and b = FK.extract (build 1) in
      FK.equal a b && FK.hash a = FK.hash b && FK.rss_hash a = FK.rss_hash b)

let prop_geneve_extract_tunnel_fields =
  QCheck.Test.make ~count:200 ~name:"geneve: outer and decapsulated keys"
    QCheck.(int_range 1 0xFFFFFF)
    (fun vni ->
      let sport = 1 + (vni mod 60_000) in
      let inner = Build.udp ~src_port:sport () in
      Tunnel.encap inner Tunnel.Geneve ~vni ~src_mac:1 ~dst_mac:2
        ~src_ip:(Ipv4.addr_of_string "192.168.0.1")
        ~dst_ip:(Ipv4.addr_of_string "192.168.0.2") ();
      (* the outer flow is a UDP flow to the Geneve port *)
      let outer = FK.extract inner in
      FK.get outer FK.Field.Tp_dst = 6081
      && FK.get outer FK.Field.Nw_proto = Ipv4.Proto.udp
      &&
      (* after decap, the key is the inner flow plus tunnel metadata *)
      match Tunnel.decap inner with
      | None -> false
      | Some _ ->
          let k = FK.extract inner in
          FK.get k FK.Field.Tun_id = vni && FK.get k FK.Field.Tp_src = sport)

(* -- IPv6 -- *)

let build_ipv6_udp ~src ~dst () =
  let payload = Udp.header_len + 16 in
  let flen = Ethernet.header_len + Ipv6.header_len + payload in
  let buf = Buffer.create ~size:flen () in
  Buffer.put buf flen;
  Ethernet.write buf ~dst:(Mac.of_index 2) ~src:(Mac.of_index 1)
    ~eth_type:Ethernet.Ethertype.ipv6;
  Ipv6.write buf ~next_header:Ipv4.Proto.udp ~src ~dst ~payload_len:payload ();
  buf

let test_ipv6_parse_roundtrip () =
  let src = Ipv6.addr_of_int 0x1111 and dst = Ipv6.addr_of_int 0x2222 in
  let buf = build_ipv6_udp ~src ~dst () in
  ignore (Ethernet.parse buf);
  match Ipv6.parse buf with
  | None -> Alcotest.fail "ipv6 parse failed"
  | Some ip ->
      Alcotest.(check bool) "src" true (ip.Ipv6.src = src);
      Alcotest.(check bool) "dst" true (ip.Ipv6.dst = dst);
      check Alcotest.int "next header" Ipv4.Proto.udp ip.Ipv6.next_header

let prop_ipv6_extract_deterministic =
  QCheck.Test.make ~count:200 ~name:"ipv6: extraction deterministic, addresses folded"
    QCheck.(int_range 1 0xFFFF)
    (fun host ->
      let build () =
        build_ipv6_udp ~src:(Ipv6.addr_of_int host) ~dst:(Ipv6.addr_of_int (host + 1)) ()
      in
      let a = FK.extract (build ()) and b = FK.extract (build ()) in
      FK.equal a b
      && FK.get a FK.Field.Dl_type = Ethernet.Ethertype.ipv6
      && FK.get a FK.Field.Ip6_src_lo <> 0)

(* An address's key words from its two 64-bit halves: bits 127..66,
   65..62 and 61..0. *)
let ipv6_words (a : Ipv6.addr) =
  Int64.
    ( to_int (shift_right_logical a.Ipv6.hi 2),
      to_int (logor (shift_left (logand a.Ipv6.hi 3L) 2) (shift_right_logical a.Ipv6.lo 62)),
      to_int (logand a.Ipv6.lo 0x3FFF_FFFF_FFFF_FFFFL) )

(* The address back from its key words. *)
let ipv6_of_words (hi, mid, lo) =
  Int64.
    {
      Ipv6.hi = logor (shift_left (of_int hi) 2) (of_int (mid lsr 2));
      lo = logor (shift_left (of_int (mid land 3)) 62) (of_int lo);
    }

let ipv6_key ~src ~dst = FK.extract (build_ipv6_udp ~src ~dst ())

(* Hosts that differ only in their low two address bits get distinct
   keys, as source and as destination. *)
let test_ipv6_low_bits_distinct () =
  let hosts = List.map Ipv6.addr_of_int [ 1; 2; 3 ] in
  let other = Ipv6.addr_of_int 0x100 in
  let distinct what keys =
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j then
              Alcotest.(check bool) (Printf.sprintf "%s ::%d <> ::%d" what (i + 1) (j + 1))
                false (FK.equal a b))
          keys)
      keys
  in
  distinct "src" (List.map (fun h -> ipv6_key ~src:h ~dst:other) hosts);
  distinct "dst" (List.map (fun h -> ipv6_key ~src:other ~dst:h) hosts)

let test_ipv6_key_pp () =
  let src = { Ipv6.hi = 0x2001_0db8_0000_0003L; lo = 0xC000_0000_0000_0001L } in
  let s = Fmt.str "%a" FK.pp (ipv6_key ~src ~dst:(Ipv6.addr_of_int 2)) in
  let has sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) ("addresses in " ^ s) true
    (has "2001:db8:0:3:c000:0:0:1>2001:db8:0:0:0:0:0:2")

let gen_ipv6_addr =
  QCheck.Gen.(map2 (fun hi lo -> { Ipv6.hi; lo }) int64 int64)

(* The key keeps all 128 bits of both addresses: each address reads back
   from its three words, and flipping any one of the 256 address bits
   changes the key. *)
let prop_ipv6_key_injective =
  QCheck.Test.make ~count:2000 ~name:"ipv6: the key is injective over both addresses"
    QCheck.(make Gen.(triple gen_ipv6_addr gen_ipv6_addr (int_bound 255)))
    (fun (src, dst, bit) ->
      let k = ipv6_key ~src ~dst in
      let words hi mid lo = (FK.get k hi, FK.get k mid, FK.get k lo) in
      let flip (a : Ipv6.addr) b =
        if b >= 64 then { a with Ipv6.hi = Int64.(logxor a.Ipv6.hi (shift_left 1L (b - 64))) }
        else { a with Ipv6.lo = Int64.(logxor a.Ipv6.lo (shift_left 1L b)) }
      in
      let flipped =
        if bit < 128 then ipv6_key ~src:(flip src bit) ~dst
        else ipv6_key ~src ~dst:(flip dst (bit - 128))
      in
      ipv6_of_words FK.Field.(words Ip6_src_hi Ip6_src_mid Ip6_src_lo) = src
      && ipv6_of_words FK.Field.(words Ip6_dst_hi Ip6_dst_mid Ip6_dst_lo) = dst
      && not (FK.equal k flipped))

(* -- record-free extraction against the parsers --

   [FK.extract] reads header fields straight from the bytes. The
   reference below is the same walk composed from the header parsers
   ([Ethernet.parse], [Ipv4.parse], ...), which build records; on any
   frame, well-formed, truncated or byte-mutated, the two must produce
   the same key and leave the same [l3_ofs]/[l4_ofs] behind. *)

let reference_extract (buf : Buffer.t) : FK.t =
  let open FK.Field in
  let k = FK.create () in
  let set = FK.set k in
  set In_port buf.Buffer.in_port;
  set Recirc_id buf.Buffer.recirc_id;
  set Ct_state buf.Buffer.ct_state;
  set Ct_zone buf.Buffer.ct_zone;
  set Ct_mark buf.Buffer.ct_mark;
  List.iteri (fun i f -> set f buf.Buffer.regs.(i))
    [ Reg0; Reg1; Reg2; Reg3; Reg4; Reg5; Reg6; Reg7 ];
  (match buf.Buffer.tunnel with
  | Some tmd ->
      set Tun_id tmd.Buffer.tun_id;
      set Tun_src tmd.Buffer.tun_src;
      set Tun_dst tmd.Buffer.tun_dst
  | None -> ());
  (match Ethernet.parse buf with
  | None -> ()
  | Some eth ->
      set Dl_src eth.Ethernet.src;
      set Dl_dst eth.Ethernet.dst;
      set Dl_type eth.Ethernet.eth_type;
      set Vlan_tci eth.Ethernet.vlan_tci;
      if eth.Ethernet.eth_type = Ethernet.Ethertype.ipv4 then begin
        match Ipv4.parse buf with
        | None -> ()
        | Some ip ->
            set Nw_src ip.Ipv4.src;
            set Nw_dst ip.Ipv4.dst;
            set Nw_proto ip.Ipv4.proto;
            set Nw_tos ip.Ipv4.tos;
            set Nw_ttl ip.Ipv4.ttl;
            set Nw_frag (if Ipv4.is_fragment ip then 1 else 0);
            if not (Ipv4.is_later_fragment ip) then
              if ip.Ipv4.proto = Ipv4.Proto.udp then
                Option.iter
                  (fun u ->
                    set Tp_src u.Udp.src_port;
                    set Tp_dst u.Udp.dst_port)
                  (Udp.parse buf)
              else if ip.Ipv4.proto = Ipv4.Proto.tcp then
                Option.iter
                  (fun t ->
                    set Tp_src t.Tcp.src_port;
                    set Tp_dst t.Tcp.dst_port;
                    set Tcp_flags t.Tcp.flags)
                  (Tcp.parse buf)
              else if ip.Ipv4.proto = Ipv4.Proto.icmp then
                Option.iter
                  (fun ic ->
                    set Tp_src ic.Icmp.icmp_type;
                    set Tp_dst ic.Icmp.code)
                  (Icmp.parse buf)
      end
      else if eth.Ethernet.eth_type = Ethernet.Ethertype.ipv6 then
        Option.iter
          (fun ip6 ->
            let src_hi, src_mid, src_lo = ipv6_words ip6.Ipv6.src
            and dst_hi, dst_mid, dst_lo = ipv6_words ip6.Ipv6.dst in
            set Ip6_src_hi src_hi;
            set Ip6_src_mid src_mid;
            set Ip6_src_lo src_lo;
            set Ip6_dst_hi dst_hi;
            set Ip6_dst_mid dst_mid;
            set Ip6_dst_lo dst_lo;
            set Nw_proto ip6.Ipv6.next_header;
            set Nw_tos ip6.Ipv6.tclass;
            set Nw_ttl ip6.Ipv6.hop_limit)
          (Ipv6.parse buf)
      else if eth.Ethernet.eth_type = Ethernet.Ethertype.arp then
        Option.iter
          (fun a ->
            set Nw_proto a.Arp.op;
            set Nw_src a.Arp.spa;
            set Nw_dst a.Arp.tpa)
          (Arp.parse buf));
  k

(* A random frame: one of the well-formed kinds, then optionally
   truncated and byte-mutated (biased towards the header bytes that steer
   the parse: ethertypes, version/IHL, fragment word, protocol), with
   random metadata and random stale [l3_ofs]/[l4_ofs]. *)
let random_frame seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let ip () = Random.State.bits st in
  let base =
    match int 9 with
    | 0 -> Build.udp ~src_ip:(ip ()) ~dst_ip:(ip ()) ~src_port:(int 65536)
             ~dst_port:(int 65536) ~frame_len:(42 + int 200) ()
    | 1 -> Build.tcp ~flags:(int 64) ~src_port:(int 65536) ~dst_port:(int 65536) ()
    | 2 -> Build.icmp ~icmp_type:(int 20) ()
    | 3 -> Build.arp ~op:(1 + int 2) ~spa:(ip ()) ~tpa:(ip ()) ()
    | 4 ->
        build_ipv6_udp
          ~src:{ Ipv6.hi = Random.State.int64 st Int64.max_int; lo = Random.State.bits64 st }
          ~dst:{ Ipv6.hi = Random.State.bits64 st; lo = Random.State.bits64 st } ()
    | 5 ->
        let p = Build.udp () in
        Ethernet.push_vlan p ~tci:(int 0x10000);
        p
    | 6 ->
        (* IPv4 with options and a fragment word *)
        let p = Build.tcp () in
        Buffer.set_u8 p 14 (0x40 lor (5 + int 11));
        Buffer.set_u16 p 20 (int 0x10000);
        p
    | 7 ->
        let len = int 80 in
        let p = Buffer.create ~size:(Int.max len 1) () in
        Buffer.put p len;
        for i = 0 to len - 1 do
          Buffer.set_u8 p i (int 256)
        done;
        p
    | _ ->
        let inner = Build.udp () in
        Tunnel.encap inner Tunnel.Geneve ~vni:(int 0xFFFFFF) ~src_mac:1 ~dst_mac:2
          ~src_ip:(ip ()) ~dst_ip:(ip ()) ();
        ignore (Tunnel.decap inner);
        inner
  in
  let len = Buffer.length base in
  if len > 0 && int 3 = 0 then base.Buffer.len <- int len;
  let len = Buffer.length base in
  if len > 0 then
    for _ = 1 to int 4 do
      let pos =
        match int 4 with
        | 0 -> int len
        | 1 -> Int.min (len - 1) (12 + int 4)  (* ethertype, VLAN TCI *)
        | 2 -> Int.min (len - 1) (14 + int 10)  (* version/IHL .. protocol *)
        | _ -> Int.min (len - 1) (16 + int 30)
      in
      let v =
        match int 6 with
        | 0 -> 0x08
        | 1 -> 0x81
        | 2 -> 0x86
        | 3 -> 0x45
        | _ -> int 256
      in
      Buffer.set_u8 base pos v
    done;
  base.Buffer.in_port <- int 64;
  base.Buffer.recirc_id <- int 4;
  base.Buffer.ct_state <- int 64;
  base.Buffer.ct_zone <- int 8;
  base.Buffer.ct_mark <- int 8;
  Array.iteri (fun i _ -> base.Buffer.regs.(i) <- int 1000) base.Buffer.regs;
  base.Buffer.l3_ofs <- int 40 - 1;
  base.Buffer.l4_ofs <- int 60 - 1;
  base

let prop_extract_matches_parsers =
  QCheck.Test.make ~count:2000
    ~name:"record-free extraction equals the composed header parsers"
    QCheck.int
    (fun seed ->
      let a = random_frame seed in
      let b = Buffer.clone a in
      let c = Buffer.clone a in
      let want = reference_extract a in
      let got = FK.extract b in
      (* extracting into a dirty key overwrites every field *)
      let dirty = FK.create () in
      FK.Field.(List.iter (fun f -> FK.set dirty f 0x5a5a) (Array.to_list all));
      FK.extract_into dirty c;
      FK.equal want got && FK.equal want dirty
      && a.Buffer.l3_ofs = b.Buffer.l3_ofs
      && a.Buffer.l4_ofs = b.Buffer.l4_ofs
      && a.Buffer.l3_ofs = c.Buffer.l3_ofs
      && a.Buffer.l4_ofs = c.Buffer.l4_ofs)

(* [FK.hash] skips the multiplications of zero fields; it must equal the
   plain field-by-field FNV-1a, which places EMC entries, except that the
   fields after [Reg7] enter only when nonzero. *)
let prop_hash_is_fnv1a =
  QCheck.Test.make ~count:1000 ~name:"flow-key hash equals field-by-field FNV-1a"
    QCheck.int
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let k = FK.create () in
      let density = 1 + Random.State.int st 4 in
      Array.iteri
        (fun i f ->
          if Random.State.int st density = 0 then
            FK.set k f (if i mod 3 = 0 then -1 - Random.State.bits st else Random.State.bits st))
        FK.Field.all;
      let h = ref 0x3bf29ce484222325 in
      Array.iter
        (fun f ->
          let v = FK.get k f in
          if FK.Field.(to_index f <= to_index Reg7) || v <> 0 then
            h := (!h lxor v) * 0x100000001b3)
        FK.Field.all;
      FK.hash k = !h land max_int)

(* A VLAN tag with no room for the inner ethertype: no [dl_*] field is
   set and [l3_ofs] is left alone, exactly as [Ethernet.parse] does. *)
let test_extract_vlan_runt () =
  let buf = Buffer.create ~size:16 () in
  Buffer.put buf 16;
  Buffer.set_u16 buf 12 Ethernet.Ethertype.vlan;
  buf.Buffer.l3_ofs <- 7;
  let k = FK.extract buf in
  check Alcotest.int "dl_type unset" 0 (FK.get k FK.Field.Dl_type);
  check Alcotest.int "dl_src unset" 0 (FK.get k FK.Field.Dl_src);
  check Alcotest.int "l3_ofs untouched" 7 buf.Buffer.l3_ofs;
  Alcotest.(check bool) "equals the parsers" true
    (FK.equal k (reference_extract buf))

(* -- GSO -- *)

let big_tcp ?(payload = 5000) ?(flags = Tcp.Flags.ack lor Tcp.Flags.psh) () =
  Build.tcp ~payload_len:payload ~flags ~seq:1_000_000 ()

let test_gso_segment_counts_and_sizes () =
  let buf = big_tcp () in
  let segs = Gso.segment buf ~mtu:1500 in
  (* mss = 1500 - 20 - 20 = 1460; 5000 -> 4 segments *)
  check Alcotest.int "segment count" 4 (List.length segs);
  List.iter
    (fun s ->
      Alcotest.(check bool) "within MTU + ethernet" true (Buffer.length s <= 1514))
    segs

let test_gso_payload_reassembles () =
  let payload = 4321 in
  let buf = big_tcp ~payload () in
  (* stamp a recognizable payload *)
  let base = Ethernet.header_len + Ipv4.header_len + Tcp.header_len in
  for i = 0 to payload - 1 do
    Buffer.set_u8 buf (base + i) (i land 0xFF)
  done;
  (* refresh the checksum after stamping *)
  ignore (Ethernet.parse buf);
  (match Ipv4.parse buf with
  | Some ip ->
      Tcp.write buf ~seq:1_000_000 ~src_port:40000 ~dst_port:80
        ~flags:Tcp.Flags.ack ~ip_src:ip.Ipv4.src ~ip_dst:ip.Ipv4.dst
        ~payload_len:payload ()
  | None -> Alcotest.fail "reparse");
  let segs = Gso.segment buf ~mtu:1500 in
  let reassembled = Stdlib.Buffer.create payload in
  List.iter
    (fun s ->
      ignore (Ethernet.parse s);
      ignore (Ipv4.parse s);
      match Tcp.parse s with
      | Some t ->
          let data_start = s.Buffer.l4_ofs + t.Tcp.data_ofs in
          for i = data_start to Buffer.length s - 1 do
            Stdlib.Buffer.add_char reassembled (Char.chr (Buffer.get_u8 s i))
          done
      | None -> Alcotest.fail "segment tcp parse")
    segs;
  check Alcotest.int "no bytes lost" payload (Stdlib.Buffer.length reassembled);
  let ok = ref true in
  String.iteri
    (fun i c -> if Char.code c <> i land 0xFF then ok := false)
    (Stdlib.Buffer.contents reassembled);
  Alcotest.(check bool) "payload byte-exact in order" true !ok

let test_gso_headers_correct () =
  let buf = big_tcp ~flags:(Tcp.Flags.ack lor Tcp.Flags.fin) () in
  let segs = Gso.segment buf ~mtu:1500 in
  let n = List.length segs in
  List.iteri
    (fun i s ->
      ignore (Ethernet.parse s);
      match (Ipv4.parse s, ()) with
      | Some ip, () -> begin
          (* IP length matches the frame, checksum valid, idents advance *)
          check Alcotest.int "ip total_len"
            (Buffer.length s - Ethernet.header_len)
            ip.Ipv4.total_len;
          Alcotest.(check bool) "ip csum" true
            (Checksum.verify s.Buffer.data
               ~off:(Buffer.abs s s.Buffer.l3_ofs) ~len:Ipv4.header_len);
          match Tcp.parse s with
          | Some t ->
              check Alcotest.int "seq advances by mss" (1_000_000 + (i * 1460)) t.Tcp.seq;
              let has_fin = t.Tcp.flags land Tcp.Flags.fin <> 0 in
              Alcotest.(check bool) "FIN only on the last segment"
                (i = n - 1) has_fin;
              Alcotest.(check bool) "tcp csum" true
                (Checksum.verify_pseudo s.Buffer.data
                   ~off:(Buffer.abs s s.Buffer.l4_ofs)
                   ~len:(Buffer.length s - s.Buffer.l4_ofs)
                   ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst ~proto:Ipv4.Proto.tcp)
          | None -> Alcotest.fail "tcp"
        end
      | None, () -> Alcotest.fail "ip")
    segs

let test_gso_passthrough () =
  let small = Build.tcp ~payload_len:100 () in
  check Alcotest.int "small tcp untouched" 1 (List.length (Gso.segment small ~mtu:1500));
  let udp = Build.udp ~frame_len:3000 () in
  check Alcotest.int "udp untouched" 1 (List.length (Gso.segment udp ~mtu:1500))

let prop_gso_conservation =
  QCheck.Test.make ~count:100 ~name:"gso conserves payload length"
    QCheck.(int_range 1 20_000)
    (fun payload ->
      let buf = big_tcp ~payload () in
      let segs = Gso.segment buf ~mtu:1500 in
      let total =
        List.fold_left
          (fun acc s ->
            ignore (Ethernet.parse s);
            ignore (Ipv4.parse s);
            match Tcp.parse s with
            | Some t -> acc + (Buffer.length s - s.Buffer.l4_ofs - t.Tcp.data_ofs)
            | None -> acc)
          0 segs
      in
      total = payload)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_packet"
    [
      ( "mac",
        [
          Alcotest.test_case "string roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_mac_bytes_roundtrip;
          Alcotest.test_case "multicast bit" `Quick test_mac_multicast;
          Alcotest.test_case "of_index distinct" `Quick test_mac_of_index_distinct;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "verify computed" `Quick test_checksum_verify_computed;
          Alcotest.test_case "detects corruption" `Quick test_checksum_detects_corruption;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
        ]
        @ qcheck [ prop_checksum_roundtrip ] );
      ( "buffer",
        [
          Alcotest.test_case "push/pull" `Quick test_buffer_push_pull;
          Alcotest.test_case "put grows" `Quick test_buffer_put_grows;
          Alcotest.test_case "offsets track push" `Quick test_buffer_offsets_track_push;
          Alcotest.test_case "headroom exhaustion" `Quick test_buffer_headroom_exhaustion;
          Alcotest.test_case "reset metadata" `Quick test_buffer_reset_metadata;
          Alcotest.test_case "clone independent" `Quick test_buffer_clone_independent;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "parse/build" `Quick test_ethernet_parse_build;
          Alcotest.test_case "vlan push/pop" `Quick test_ethernet_vlan_push_pop;
          Alcotest.test_case "set addresses" `Quick test_ethernet_set_addresses;
          Alcotest.test_case "short frame" `Quick test_ethernet_short_frame;
        ] );
      ( "ipv4",
        [
          Alcotest.test_case "parse fields" `Quick test_ipv4_parse_fields;
          Alcotest.test_case "addr roundtrip" `Quick test_ipv4_addr_roundtrip;
          Alcotest.test_case "update csum" `Quick test_ipv4_update_csum_after_rewrite;
          Alcotest.test_case "rejects v6" `Quick test_ipv4_rejects_v6;
          Alcotest.test_case "fragments" `Quick test_ipv4_fragments;
        ] );
      ( "l4",
        [
          Alcotest.test_case "udp ports" `Quick test_udp_parse_ports;
          Alcotest.test_case "udp checksum" `Quick test_udp_checksum_valid;
          Alcotest.test_case "tcp flags/seq" `Quick test_tcp_parse_flags;
          Alcotest.test_case "tcp checksum" `Quick test_tcp_checksum_valid;
          Alcotest.test_case "icmp echo" `Quick test_icmp_echo;
          Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
        ] );
      ( "tunnel",
        [
          Alcotest.test_case "geneve roundtrip" `Quick (tunnel_roundtrip Tunnel.Geneve);
          Alcotest.test_case "vxlan roundtrip" `Quick (tunnel_roundtrip Tunnel.Vxlan);
          Alcotest.test_case "gre roundtrip" `Quick (tunnel_roundtrip Tunnel.Gre);
          Alcotest.test_case "erspan roundtrip" `Quick (tunnel_roundtrip Tunnel.Erspan);
          Alcotest.test_case "non-tunnel" `Quick test_decap_non_tunnel;
          Alcotest.test_case "geneve port" `Quick test_geneve_udp_port_on_wire;
        ]
        @ qcheck [ prop_tunnel_roundtrip ] );
      ( "flow_key",
        [
          Alcotest.test_case "extract udp" `Quick test_flow_key_extract_udp;
          Alcotest.test_case "extract tcp flags" `Quick test_flow_key_extract_tcp_flags;
          Alcotest.test_case "extract arp" `Quick test_flow_key_extract_arp;
          Alcotest.test_case "tunnel metadata" `Quick test_flow_key_tunnel_metadata;
          Alcotest.test_case "hash/equal consistent" `Quick test_flow_key_hash_equal_consistent;
          Alcotest.test_case "masked ops" `Quick test_flow_key_masked_ops;
          Alcotest.test_case "rss hash tuple" `Quick test_flow_key_rss_depends_on_tuple;
        ]
        @ qcheck [ prop_mask_application_idempotent ] );
      ( "roundtrip",
        [
          Alcotest.test_case "ipv6 parse" `Quick test_ipv6_parse_roundtrip;
          Alcotest.test_case "ipv6 low address bits distinct" `Quick
            test_ipv6_low_bits_distinct;
          Alcotest.test_case "ipv6 key prints its addresses" `Quick test_ipv6_key_pp;
        ]
        @ qcheck
            [
              prop_udp_reserialize;
              prop_tcp_reserialize;
              prop_arp_reserialize;
              prop_extract_deterministic;
              prop_geneve_extract_tunnel_fields;
              prop_ipv6_extract_deterministic;
              prop_ipv6_key_injective;
            ] );
      ( "extract",
        [ Alcotest.test_case "vlan runt" `Quick test_extract_vlan_runt ]
        @ qcheck [ prop_extract_matches_parsers; prop_hash_is_fnv1a ] );
      ( "gso",
        [
          Alcotest.test_case "segment counts/sizes" `Quick test_gso_segment_counts_and_sizes;
          Alcotest.test_case "payload reassembles" `Quick test_gso_payload_reassembles;
          Alcotest.test_case "headers correct" `Quick test_gso_headers_correct;
          Alcotest.test_case "passthrough" `Quick test_gso_passthrough;
        ]
        @ qcheck [ prop_gso_conservation ] );
    ]
