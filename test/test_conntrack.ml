(* Tests for the userspace connection tracker: TCP state machine, zones,
   NAT, limits, expiry. *)

module Ct = Ovs_conntrack.Conntrack
module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build
module Bits = FK.Ct_state_bits

let check = Alcotest.check

let client_ip = Ovs_packet.Ipv4.addr_of_string "10.0.0.1"
let server_ip = Ovs_packet.Ipv4.addr_of_string "10.0.0.2"

let tcp_key ?(src = client_ip) ?(dst = server_ip) ?(sport = 40000) ?(dport = 80)
    ~flags () =
  FK.extract (B.tcp ~src_ip:src ~dst_ip:dst ~src_port:sport ~dst_port:dport ~flags ())

let udp_key ?(src = client_ip) ?(dst = server_ip) ?(sport = 50) ?(dport = 53) () =
  FK.extract (B.udp ~src_ip:src ~dst_ip:dst ~src_port:sport ~dst_port:dport ())

let has v bit = v land bit <> 0

let test_untracked_is_new () =
  let ct = Ct.create () in
  let v = Ct.track ct ~now:0. ~zone:1 (tcp_key ~flags:Ovs_packet.Tcp.Flags.syn ()) in
  Alcotest.(check bool) "+trk" true (has v.Ct.ct_state Bits.trk);
  Alcotest.(check bool) "+new" true (has v.Ct.ct_state Bits.new_);
  Alcotest.(check bool) "no conn yet" true (v.Ct.conn = None)

let test_commit_and_handshake () =
  let ct = Ct.create () in
  let open Ovs_packet.Tcp.Flags in
  let syn = tcp_key ~flags:syn () in
  (match Ct.commit ct ~now:0. ~zone:1 syn with
  | Some conn -> Alcotest.(check bool) "SYN_SENT" true (Ct.state conn = Ct.Tcp Ct.Syn_sent)
  | None -> Alcotest.fail "commit failed");
  (* server SYN+ACK (reply direction) *)
  let synack =
    tcp_key ~src:server_ip ~dst:client_ip ~sport:80 ~dport:40000
      ~flags:(Ovs_packet.Tcp.Flags.syn lor ack) ()
  in
  let v = Ct.track ct ~now:1000. ~zone:1 synack in
  Alcotest.(check bool) "reply seen" true (has v.Ct.ct_state Bits.rpl);
  (* client ACK completes the handshake *)
  let ackk = tcp_key ~flags:ack () in
  let v2 = Ct.track ct ~now:2000. ~zone:1 ackk in
  Alcotest.(check bool) "+est" true (has v2.Ct.ct_state Bits.est);
  match v2.Ct.conn with
  | Some conn -> Alcotest.(check bool) "ESTABLISHED" true (Ct.state conn = Ct.Tcp Ct.Established)
  | None -> Alcotest.fail "no connection"

let established ct =
  let open Ovs_packet.Tcp.Flags in
  ignore (Ct.commit ct ~now:0. ~zone:1 (tcp_key ~flags:syn ()));
  ignore
    (Ct.track ct ~now:1.
       ~zone:1
       (tcp_key ~src:server_ip ~dst:client_ip ~sport:80 ~dport:40000
          ~flags:(syn lor ack) ()));
  ignore (Ct.track ct ~now:2. ~zone:1 (tcp_key ~flags:ack ()))

let test_rst_invalidates () =
  let ct = Ct.create () in
  established ct;
  let v = Ct.track ct ~now:3. ~zone:1 (tcp_key ~flags:Ovs_packet.Tcp.Flags.rst ()) in
  (match v.Ct.conn with
  | Some conn -> Alcotest.(check bool) "CLOSED" true (Ct.state conn = Ct.Tcp Ct.Closed)
  | None -> Alcotest.fail "conn missing");
  (* subsequent packets on a closed connection are invalid *)
  let v2 = Ct.track ct ~now:4. ~zone:1 (tcp_key ~flags:Ovs_packet.Tcp.Flags.ack ()) in
  Alcotest.(check bool) "+inv" true (has v2.Ct.ct_state Bits.inv)

let test_zones_isolate () =
  let ct = Ct.create () in
  established ct;  (* zone 1 *)
  (* same 5-tuple in zone 2 is untracked/new *)
  let v = Ct.track ct ~now:5. ~zone:2 (tcp_key ~flags:Ovs_packet.Tcp.Flags.ack ()) in
  Alcotest.(check bool) "zone 2 sees new" true (has v.Ct.ct_state Bits.new_)

let test_udp_pseudo_state () =
  let ct = Ct.create () in
  ignore (Ct.commit ct ~now:0. ~zone:1 (udp_key ()));
  (* first forward packet: still single-direction, not established *)
  let v = Ct.track ct ~now:1. ~zone:1 (udp_key ()) in
  Alcotest.(check bool) "not yet est" false (has v.Ct.ct_state Bits.est);
  (* a reply upgrades to bidirectional *)
  let reply = udp_key ~src:server_ip ~dst:client_ip ~sport:53 ~dport:50 () in
  ignore (Ct.track ct ~now:2. ~zone:1 reply);
  let v2 = Ct.track ct ~now:3. ~zone:1 (udp_key ()) in
  Alcotest.(check bool) "est after reply" true (has v2.Ct.ct_state Bits.est)

let test_timeout_expiry () =
  let ct = Ct.create () in
  ignore (Ct.commit ct ~now:0. ~zone:1 (udp_key ()));
  (* beyond the 30s single-direction UDP timeout *)
  let late = Ovs_sim.Time.s 31. in
  let v = Ct.track ct ~now:late ~zone:1 (udp_key ()) in
  Alcotest.(check bool) "expired -> new" true (has v.Ct.ct_state Bits.new_)

let test_sweep_reclaims () =
  let ct = Ct.create () in
  ignore (Ct.commit ct ~now:0. ~zone:1 (udp_key ()));
  ignore (Ct.commit ct ~now:0. ~zone:1 (udp_key ~sport:51 ()));
  check Alcotest.int "two conns" 2 (Ct.active_conns ct);
  let reclaimed = Ct.sweep ct ~now:(Ovs_sim.Time.s 60.) in
  check Alcotest.int "swept" 2 reclaimed;
  check Alcotest.int "empty" 0 (Ct.active_conns ct);
  check Alcotest.int "zone count back to zero" 0 (Ct.zone_count ct ~zone:1)

let test_zone_limit () =
  let ct = Ct.create () in
  Ct.set_zone_limit ct ~zone:7 ~limit:2;
  let commit i = Ct.commit ct ~now:0. ~zone:7 (udp_key ~sport:(100 + i) ()) in
  Alcotest.(check bool) "1" true (commit 1 <> None);
  Alcotest.(check bool) "2" true (commit 2 <> None);
  Alcotest.(check bool) "3 rejected (nf_conncount)" true (commit 3 = None);
  (* other zones unaffected *)
  Alcotest.(check bool) "other zone fine" true
    (Ct.commit ct ~now:0. ~zone:8 (udp_key ~sport:200 ()) <> None)

let test_commit_idempotent () =
  let ct = Ct.create () in
  let k = udp_key () in
  let a = Ct.commit ct ~now:0. ~zone:1 k in
  let b = Ct.commit ct ~now:1. ~zone:1 k in
  (match (a, b) with
  | Some x, Some y -> Alcotest.(check bool) "same conn" true (x == y)
  | _ -> Alcotest.fail "commit failed");
  check Alcotest.int "one connection" 1 (Ct.active_conns ct)

let test_nat_rewrites_forward_and_reply () =
  let ct = Ct.create () in
  let nat_ip = Ovs_packet.Ipv4.addr_of_string "203.0.113.5" in
  let pkt = B.udp ~src_ip:client_ip ~dst_ip:server_ip ~src_port:50 ~dst_port:53 () in
  let k = FK.extract pkt in
  let conn =
    match
      Ct.commit ct ~now:0. ~zone:1
        ~nat:{ Ct.nat_src = Some (nat_ip, 1024); nat_dst = None }
        k
    with
    | Some c -> c
    | None -> Alcotest.fail "commit"
  in
  (* forward direction: source rewritten *)
  Alcotest.(check bool) "rewritten" true (Ct.apply_nat conn ~is_reply:false pkt k);
  check Alcotest.int "key src natted" nat_ip (FK.get k FK.Field.Nw_src);
  check Alcotest.int "key sport natted" 1024 (FK.get k FK.Field.Tp_src);
  ignore (Ovs_packet.Ethernet.parse pkt);
  (match Ovs_packet.Ipv4.parse pkt with
  | Some ip ->
      check Alcotest.int "packet src natted" nat_ip ip.Ovs_packet.Ipv4.src;
      Alcotest.(check bool) "ip checksum refreshed" true
        (Ovs_packet.Checksum.verify pkt.Ovs_packet.Buffer.data
           ~off:(Ovs_packet.Buffer.abs pkt pkt.Ovs_packet.Buffer.l3_ofs)
           ~len:Ovs_packet.Ipv4.header_len)
  | None -> Alcotest.fail "reparse");
  (* reply direction: destination un-natted back to the original source *)
  let reply = B.udp ~src_ip:server_ip ~dst_ip:nat_ip ~src_port:53 ~dst_port:1024 () in
  let rk = FK.extract reply in
  Alcotest.(check bool) "reply rewritten" true (Ct.apply_nat conn ~is_reply:true reply rk);
  check Alcotest.int "reply dst restored" client_ip (FK.get rk FK.Field.Nw_dst);
  check Alcotest.int "reply dport restored" 50 (FK.get rk FK.Field.Tp_dst)

let test_related_icmp () =
  let ct = Ct.create () in
  (* a tracked UDP flow client -> server *)
  let offending =
    B.udp ~src_ip:client_ip ~dst_ip:server_ip ~src_port:50 ~dst_port:53 ()
  in
  ignore (Ct.commit ct ~now:0. ~zone:1 (FK.extract offending));
  (* a router reports port-unreachable, quoting the offending packet *)
  let err =
    B.icmp_error ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.254") ~offending ()
  in
  let k = FK.extract err in
  let v = Ct.track ~buf:err ct ~now:1. ~zone:1 k in
  Alcotest.(check bool) "+rel" true (has v.Ct.ct_state Bits.rel);
  Alcotest.(check bool) "+trk" true (has v.Ct.ct_state Bits.trk);
  Alcotest.(check bool) "bound to the connection" true (v.Ct.conn <> None);
  (* the same error in another zone is unrelated *)
  let v2 = Ct.track ~buf:err ct ~now:1. ~zone:2 k in
  Alcotest.(check bool) "zone isolation holds for rel" false
    (has v2.Ct.ct_state Bits.rel);
  (* an error quoting an untracked flow is just new *)
  let stranger = B.udp ~src_ip:server_ip ~dst_ip:client_ip ~src_port:9 ~dst_port:9 () in
  let err2 =
    B.icmp_error ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.254")
      ~offending:stranger ()
  in
  let v3 = Ct.track ~buf:err2 ct ~now:1. ~zone:1 (FK.extract err2) in
  Alcotest.(check bool) "unrelated error is new" true (has v3.Ct.ct_state Bits.new_)

let test_fin_teardown_states () =
  let ct = Ct.create () in
  established ct;
  let open Ovs_packet.Tcp.Flags in
  ignore (Ct.track ct ~now:10. ~zone:1 (tcp_key ~flags:(fin lor ack) ()));
  (match Ct.track ct ~now:11. ~zone:1 (tcp_key ~flags:ack ()) with
  | { Ct.conn = Some c; _ } ->
      Alcotest.(check bool) "left ESTABLISHED" true (Ct.state c <> Ct.Tcp Ct.Established)
  | { Ct.conn = None; _ } -> Alcotest.fail "conn lost");
  ()

(* -- property tests: evict_to_limit and the ct_pressure fault -- *)

(* Distinct UDP flows (one per source port) committed at strictly
   increasing times, so "oldest" is unambiguous. *)
let commit_flows ct ~zone n =
  List.init n (fun i ->
      let k = udp_key ~sport:(1000 + i) () in
      (match Ct.commit ct ~now:(float_of_int i) ~zone k with
      | Some _ -> ()
      | None -> Alcotest.failf "seed commit %d rejected" i);
      k)

let tracked ct ~zone k =
  (Ct.track ct ~now:100. ~zone k).Ct.conn <> None

let prop_evict_count =
  QCheck.Test.make ~count:100
    ~name:"evict_to_limit: count <= limit, evicted = excess"
    QCheck.(pair (int_range 0 40) (int_range 0 40))
    (fun (n, limit) ->
      let ct = Ct.create () in
      ignore (commit_flows ct ~zone:3 n);
      let evicted = Ct.evict_to_limit ct ~zone:3 ~limit in
      Ct.zone_count ct ~zone:3 <= limit && evicted = Int.max 0 (n - limit))

let prop_evict_oldest_first =
  QCheck.Test.make ~count:100 ~name:"evict_to_limit: oldest evicted first"
    QCheck.(pair (int_range 1 40) (int_range 0 40))
    (fun (n, limit) ->
      let ct = Ct.create () in
      let keys = commit_flows ct ~zone:3 n in
      ignore (Ct.evict_to_limit ct ~zone:3 ~limit);
      (* survivors must be exactly the [limit] newest commits *)
      List.for_all2
        (fun i k -> tracked ct ~zone:3 k = (i >= n - limit))
        (List.init n Fun.id) keys)

let prop_evict_then_readd =
  QCheck.Test.make ~count:100
    ~name:"evict_to_limit: re-add succeeds after eviction"
    QCheck.(int_range 1 32)
    (fun limit ->
      let ct = Ct.create () in
      Ct.set_zone_limit ct ~zone:5 ~limit;
      ignore (commit_flows ct ~zone:5 limit);
      (* zone full: the next commit is rejected by the nf_conncount cap *)
      let extra = udp_key ~sport:5000 () in
      Ct.commit ct ~now:50. ~zone:5 extra = None
      && Ct.evict_to_limit ct ~zone:5 ~limit:(limit - 1) = 1
      && Ct.commit ct ~now:51. ~zone:5 extra <> None
      && Ct.zone_count ct ~zone:5 = limit)

(* -- property tests: sharding and bounded sweeps -- *)

(* The sharded table is an implementation split, never a semantic one:
   any interleaving of commits, tracks (both directions), zone-limited
   commits and full sweeps must produce the same verdicts and the same
   population as the unsharded oracle. *)
let prop_sharded_oracle =
  QCheck.Test.make ~count:60 ~name:"sharded conntrack == unsharded oracle"
    QCheck.(
      pair (int_range 2 16) (list_of_size Gen.(int_range 20 80) (int_range 0 999)))
    (fun (shards, ops) ->
      let a = Ct.create () and b = Ct.create ~shards () in
      Ct.set_zone_limit a ~zone:1 ~limit:4;
      Ct.set_zone_limit b ~zone:1 ~limit:4;
      let now = ref 0. in
      let ok = ref true in
      let agree c = ok := !ok && c in
      List.iter
        (fun r ->
          now := !now +. Ovs_sim.Time.s (float_of_int (r mod 7));
          let sport = 40000 + (r mod 6) and zone = 1 + (r mod 2) in
          let k = udp_key ~sport () in
          let krev =
            udp_key ~src:server_ip ~dst:client_ip ~sport:53 ~dport:sport ()
          in
          match r / 7 mod 4 with
          | 0 ->
              agree
                (Ct.commit a ~now:!now ~zone k <> None
                = (Ct.commit b ~now:!now ~zone k <> None))
          | 1 ->
              agree
                ((Ct.track a ~now:!now ~zone k).Ct.ct_state
                = (Ct.track b ~now:!now ~zone k).Ct.ct_state)
          | 2 ->
              agree
                ((Ct.track a ~now:!now ~zone krev).Ct.ct_state
                = (Ct.track b ~now:!now ~zone krev).Ct.ct_state)
          | _ -> agree (Ct.sweep a ~now:!now = Ct.sweep b ~now:!now))
        ops;
      !ok
      && Ct.active_conns a = Ct.active_conns b
      && Ct.zone_count a ~zone:1 = Ct.zone_count b ~zone:1
      && Ct.zone_count a ~zone:2 = Ct.zone_count b ~zone:2
      && Ct.limit_drops a = Ct.limit_drops b)

(* However small the per-call budget, amortized bounded sweeps reclaim
   exactly what one unbounded sweep would — a full cursor rotation
   visits every bucket — and an empty bucket still consumes budget, so
   the loop provably terminates. *)
let prop_sweep_bounded_total =
  QCheck.Test.make ~count:80
    ~name:"sweep_bounded: amortized calls == one full sweep"
    QCheck.(triple (int_range 1 8) (int_range 0 40) (int_range 1 50))
    (fun (shards, n, budget) ->
      let ct = Ct.create ~shards () in
      ignore (commit_flows ct ~zone:3 n);
      let late = Ovs_sim.Time.s 120. in
      let total = ref 0 and calls = ref 0 in
      while Ct.active_conns ct > 0 && !calls < 100_000 do
        total := !total + Ct.sweep_bounded ct ~now:late ~budget;
        incr calls
      done;
      !total = n && Ct.active_conns ct = 0)

(* Cross-shard eviction: "oldest first" is a global order, not a
   per-shard one. *)
let prop_evict_sharded =
  QCheck.Test.make ~count:100
    ~name:"evict_to_limit: oldest first across shards"
    QCheck.(triple (int_range 2 8) (int_range 1 40) (int_range 0 40))
    (fun (shards, n, limit) ->
      let ct = Ct.create ~shards () in
      let keys = commit_flows ct ~zone:3 n in
      ignore (Ct.evict_to_limit ct ~zone:3 ~limit);
      List.for_all2
        (fun i k -> tracked ct ~zone:3 k = (i >= n - limit))
        (List.init n Fun.id) keys)

module Faults = Ovs_faults.Faults

(* The ct_pressure fault forces an effective zone limit while its window
   is open (Conntrack.commit consults Faults.ct_limit), and the chaos
   runner's window-open side effect evicts down to it — committed count
   never exceeds the forced limit, and the zone recovers after the
   window closes. *)
let prop_ct_pressure_fault =
  QCheck.Test.make ~count:50
    ~name:"ct_pressure fault: forced limit enforced, recovery after close"
    QCheck.(pair (int_range 1 16) (int_range 0 24))
    (fun (limit, preload) ->
      let ct = Ct.create () in
      ignore (commit_flows ct ~zone:9 preload);
      Faults.arm
        (Faults.plan ~name:"ct-prop"
           [
             {
               Faults.f_name = "pressure";
               f_action = Faults.Ct_pressure { zone = 9; limit };
               f_start = Ovs_sim.Time.us 10.;
               f_stop = Ovs_sim.Time.us 20.;
             };
           ]);
      Fun.protect ~finally:Faults.disarm (fun () ->
          (* window opens: apply the runner's side effect, then push one
             more commit against the forced cap *)
          let opened = Faults.tick (Ovs_sim.Time.us 15.) in
          List.iter
            (fun (f : Faults.fault) ->
              match f.Faults.f_action with
              | Faults.Ct_pressure { zone; limit } ->
                  ignore (Ct.evict_to_limit ct ~zone ~limit)
              | _ -> ())
            opened;
          let evicted_down = Ct.zone_count ct ~zone:9 <= limit in
          let had_room = Ct.zone_count ct ~zone:9 < limit in
          let admitted =
            Ct.commit ct ~now:60. ~zone:9 (udp_key ~sport:7000 ()) <> None
          in
          let in_window_ok =
            evicted_down && admitted = had_room
            && Ct.zone_count ct ~zone:9 <= limit
          in
          (* window closes: the cap is gone, commits succeed again *)
          ignore (Faults.tick (Ovs_sim.Time.us 25.));
          let recovered =
            Ct.commit ct ~now:70. ~zone:9 (udp_key ~sport:7001 ()) <> None
          in
          in_window_ok && recovered))

(* -- IPv6 tuples and self-reverse connections -- *)

(* A UDP frame between two IPv6 addresses. *)
let ipv6_udp_addrs ~src ~dst =
  let open Ovs_packet in
  let payload = Udp.header_len + 16 in
  let flen = Ethernet.header_len + Ipv6.header_len + payload in
  let buf = Buffer.create ~size:flen () in
  Buffer.put buf flen;
  Ethernet.write buf ~dst:(Mac.of_index 2) ~src:(Mac.of_index 1)
    ~eth_type:Ethernet.Ethertype.ipv6;
  Ipv6.write buf ~next_header:Ipv4.Proto.udp ~src ~dst ~payload_len:payload ();
  buf

(* A UDP frame between the IPv6 hosts 2001:db8::[src] and ::[dst]. *)
let ipv6_udp ~src ~dst =
  ipv6_udp_addrs ~src:(Ovs_packet.Ipv6.addr_of_int src) ~dst:(Ovs_packet.Ipv6.addr_of_int dst)

let ipv6_udp_key ~src ~dst = FK.extract (ipv6_udp ~src ~dst)

(* IPv6 hosts carry their addresses only in the Ip6_* words (Nw_src and
   Nw_dst are 0), so those words must be part of the tuple. *)
let test_ipv6_hosts_distinct () =
  let ct = Ct.create () in
  let server = 0x100 in
  let conn_of host =
    match Ct.commit ct ~now:0. ~zone:1 (ipv6_udp_key ~src:host ~dst:server) with
    | Some c -> c
    | None -> Alcotest.fail "commit"
  in
  let a = conn_of 0x10 in
  let v = Ct.track ct ~now:1. ~zone:1 (ipv6_udp_key ~src:0x20 ~dst:server) in
  Alcotest.(check bool) "second host is new" true (has v.Ct.ct_state Bits.new_);
  let b = conn_of 0x20 in
  Alcotest.(check bool) "two connections" true (a != b);
  check Alcotest.int "active" 2 (Ct.active_conns ct);
  List.iter
    (fun (host, conn) ->
      let r = Ct.track ct ~now:2. ~zone:1 (ipv6_udp_key ~src:server ~dst:host) in
      Alcotest.(check bool) "reply is +rpl" true (has r.Ct.ct_state Bits.rpl);
      Alcotest.(check bool) "on its own connection" true
        (match r.Ct.conn with Some c -> c == conn | None -> false))
    [ (0x10, a); (0x20, b) ];
  Alcotest.(check bool) "each reply moved only its own connection" true
    (Ct.state a = Ct.Udp_multiple && Ct.state b = Ct.Udp_multiple)

(* Addresses that differ in any one bit — the low two and the four
   around the 64-bit boundary included — are different hosts, as the
   source and as the destination, and each reply finds its own
   connection. *)
let test_ipv6_every_address_bit () =
  let module Ipv6 = Ovs_packet.Ipv6 in
  let base = Ipv6.addr_of_int 0x10 and server = Ipv6.addr_of_int 0x100 in
  let flip (a : Ipv6.addr) b =
    if b >= 64 then { a with Ipv6.hi = Int64.(logxor a.Ipv6.hi (shift_left 1L (b - 64))) }
    else { a with Ipv6.lo = Int64.(logxor a.Ipv6.lo (shift_left 1L b)) }
  in
  let hosts = base :: List.map (flip base) [ 0; 1; 2; 61; 62; 63; 64; 65; 66; 127 ] in
  List.iter
    (fun as_src ->
      let ct = Ct.create () in
      let key host =
        FK.extract
          (if as_src then ipv6_udp_addrs ~src:host ~dst:server
           else ipv6_udp_addrs ~src:server ~dst:host)
      and reply host =
        FK.extract
          (if as_src then ipv6_udp_addrs ~src:server ~dst:host
           else ipv6_udp_addrs ~src:host ~dst:server)
      in
      let conns =
        List.map
          (fun h ->
            match Ct.commit ct ~now:0. ~zone:1 (key h) with
            | Some c -> (h, c)
            | None -> Alcotest.fail "commit")
          hosts
      in
      let what = if as_src then "source" else "destination" in
      check Alcotest.int (what ^ ": one connection per address") (List.length hosts)
        (Ct.active_conns ct);
      List.iter
        (fun (h, c) ->
          let r = Ct.track ct ~now:1. ~zone:1 (reply h) in
          Alcotest.(check bool) (what ^ ": reply on its own connection") true
            (has r.Ct.ct_state Bits.rpl
            && match r.Ct.conn with Some c' -> c' == c | None -> false))
        conns)
    [ true; false ]

(* A connection whose reply tuple is its original tuple (src = dst,
   sport = dport) has one directional entry; it still counts as one. *)
let test_self_reverse_conn_counted () =
  let ct = Ct.create () in
  let k = udp_key ~src:client_ip ~dst:client_ip ~sport:7 ~dport:7 () in
  Alcotest.(check bool) "committed" true (Ct.commit ct ~now:0. ~zone:1 k <> None);
  check Alcotest.int "active_conns" 1 (Ct.active_conns ct);
  check Alcotest.int "zone_count" 1 (Ct.zone_count ct ~zone:1);
  let v = Ct.track ct ~now:1. ~zone:1 k in
  Alcotest.(check bool) "original direction" false (has v.Ct.ct_state Bits.rpl);
  check Alcotest.int "swept" 1 (Ct.sweep ct ~now:(Ovs_sim.Time.s 60.));
  check Alcotest.int "empty" 0 (Ct.active_conns ct)

let test_reshard_keeps_limits () =
  let ct = Ct.create () in
  Ct.set_zone_limit ct ~zone:4 ~limit:1;
  let ct = Ct.reshard ct ~shards:4 in
  Alcotest.(check bool) "first" true (Ct.commit ct ~now:0. ~zone:4 (udp_key ()) <> None);
  Alcotest.(check bool) "limit carried over" true
    (Ct.commit ct ~now:0. ~zone:4 (udp_key ~sport:51 ()) = None);
  Alcotest.check_raises "live connections refuse a reshard"
    (Invalid_argument "Conntrack.reshard: connections are live") (fun () ->
      ignore (Ct.reshard ct ~shards:2 : Ct.t))

(* -- equivalence with the list-bucket reference table -- *)

module Ref = Ct_reference
module Buf = Ovs_packet.Buffer

(* A packet from a deliberately small space, so tuples, self-reverse
   tuples and reply directions collide often. *)
type pkt = {
  kind : int;  (** 0 tcp, 1 udp, 2 icmp echo, 3 ipv6 udp, 4 icmp error *)
  src : int;
  dst : int;
  sport : int;
  dport : int;
  flags : int;
}

let hosts = [| "10.0.0.1"; "10.0.0.2"; "10.0.0.3" |] |> Array.map Ovs_packet.Ipv4.addr_of_string

let tcp_flag_choices =
  Ovs_packet.Tcp.Flags.[| syn; syn lor ack; ack; fin lor ack; rst; 0; psh lor ack |]

let build_pkt p =
  let src_ip = hosts.(p.src) and dst_ip = hosts.(p.dst) in
  let src_port = 1000 + p.sport and dst_port = 1000 + p.dport in
  let transport ~tcp =
    if tcp then
      B.tcp ~src_ip ~dst_ip ~src_port ~dst_port ~flags:tcp_flag_choices.(p.flags) ()
    else B.udp ~src_ip ~dst_ip ~src_port ~dst_port ()
  in
  match p.kind with
  | 0 -> transport ~tcp:true
  | 1 -> transport ~tcp:false
  | 2 ->
      B.icmp ~src_ip ~dst_ip
        ~icmp_type:
          (if p.sport = 0 then Ovs_packet.Icmp.Kind.echo_request
           else Ovs_packet.Icmp.Kind.echo_reply)
        ()
  | 3 -> ipv6_udp ~src:(16 * p.src) ~dst:(16 * p.dst)
  | _ ->
      (* a router (host [flags mod 3]) reports an error on a TCP or UDP
         packet of the space *)
      B.icmp_error
        ~src_ip:hosts.(p.flags mod 3)
        ~offending:(transport ~tcp:(p.flags land 1 = 0))
        ()

type op =
  | Track of pkt * int  (** packet, zone *)
  | Commit of pkt * int * int  (** packet, zone, NAT choice *)
  | Advance of float
  | Limit of int * int  (** zone, limit *)
  | Pressure of int * int  (** open a Ct_pressure window: zone, limit *)
  | Release  (** close it *)
  | Evict of int * int  (** zone, limit *)
  | Sweep

let pp_pkt p =
  Printf.sprintf "{k%d %d>%d %d>%d f%d}" p.kind p.src p.dst p.sport p.dport p.flags

let pp_op = function
  | Track (p, z) -> Printf.sprintf "track %s z%d" (pp_pkt p) z
  | Commit (p, z, n) -> Printf.sprintf "commit %s z%d nat%d" (pp_pkt p) z n
  | Advance d -> Printf.sprintf "advance %g" d
  | Limit (z, l) -> Printf.sprintf "limit z%d %d" z l
  | Pressure (z, l) -> Printf.sprintf "pressure z%d %d" z l
  | Release -> "release"
  | Evict (z, l) -> Printf.sprintf "evict z%d %d" z l
  | Sweep -> "sweep"

(* Time steps straddling every protocol timeout, and zero so same-instant
   commits tie on creation time. *)
let time_steps =
  Ovs_sim.Time.[| 0.; 0.; us 1.; s 1.; s 29.; s 31.; s 59.; s 61.; s 119.; s 121.; s 7441. |]

let gen_pkt =
  QCheck.Gen.(
    map
      (fun ((kind, src, dst), (sport, dport, flags)) -> { kind; src; dst; sport; dport; flags })
      (pair
         (triple (int_bound 4) (int_bound 2) (int_bound 2))
         (triple (int_bound 1) (int_bound 1) (int_bound 6))))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (10, map2 (fun p z -> Track (p, z)) gen_pkt (int_range 1 2));
        (6, map3 (fun p z n -> Commit (p, z, n)) gen_pkt (int_range 1 2) (int_bound 3));
        (3, map (fun i -> Advance time_steps.(i)) (int_bound (Array.length time_steps - 1)));
        (1, map2 (fun z l -> Limit (z, l)) (int_range 1 2) (int_bound 6));
        (1, map2 (fun z l -> Pressure (z, l)) (int_range 1 2) (int_bound 4));
        (1, return Release);
        (1, map2 (fun z l -> Evict (z, l)) (int_range 1 2) (int_bound 6));
        (1, return Sweep);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun (shards, ops) ->
      Printf.sprintf "shards=%d\n%s" shards (String.concat "\n" (List.map pp_op ops)))
    ~shrink:QCheck.Shrink.(pair nil list)
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 80) gen_op))

let nat_choices =
  let ip = Ovs_packet.Ipv4.addr_of_string "203.0.113.5" in
  [|
    None;
    Some { Ct.nat_src = Some (ip, 2000); nat_dst = None };
    Some { Ct.nat_src = None; nat_dst = Some (ip, 2001) };
    Some { Ct.nat_src = Some (ip, 2002); nat_dst = Some (hosts.(2), 2003) };
  |]

let ref_nat = function
  | None -> None
  | Some { Ct.nat_src; nat_dst } -> Some { Ref.nat_src; nat_dst }

let ref_state : Ref.proto_state -> Ct.proto_state = function
  | Ref.Tcp Ref.Syn_sent -> Ct.Tcp Ct.Syn_sent
  | Ref.Tcp Ref.Syn_recv -> Ct.Tcp Ct.Syn_recv
  | Ref.Tcp Ref.Established -> Ct.Tcp Ct.Established
  | Ref.Tcp Ref.Fin_wait -> Ct.Tcp Ct.Fin_wait
  | Ref.Tcp Ref.Close_wait -> Ct.Tcp Ct.Close_wait
  | Ref.Tcp Ref.Time_wait -> Ct.Tcp Ct.Time_wait
  | Ref.Tcp Ref.Closed -> Ct.Tcp Ct.Closed
  | Ref.Udp_single -> Ct.Udp_single
  | Ref.Udp_multiple -> Ct.Udp_multiple
  | Ref.Icmp_active -> Ct.Icmp_active

(* Every packet of the space in its forward direction (ICMP errors from
   one router), for probing which connections survived. *)
let probe_space =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun src ->
          List.concat_map
            (fun dst ->
              List.concat_map
                (fun sport ->
                  List.map
                    (fun dport -> { kind; src; dst; sport; dport; flags = 5 })
                    [ 0; 1 ])
                [ 0; 1 ])
            [ 0; 1; 2 ])
        [ 0; 1; 2 ])
    [ 0; 1; 2; 3; 4 ]

(* Run one operation sequence against the open-addressed table and the
   reference, failing with a description at the first difference: every
   verdict's ct_state and connection state, the bytes and key apply_nat
   leaves, the reclaimed and evicted counts, and after every operation
   active_conns, zone_count and limit_drops. A final full sweep is
   followed by a probe of every packet of the space, which compares the
   survivors. *)
let run_equivalence (shards, ops) =
  let ct = Ct.create ~shards () and rf = Ref.create () in
  let now = ref 0. in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let same_conn what c r =
    match (c, r) with
    | None, None -> ()
    | Some c, Some r ->
        if Ct.state c <> ref_state r.Ref.state then fail "%s: connection state differs" what
    | _ -> fail "%s: one table has a connection, the other not" what
  in
  (* apply_nat on a copy of the packet per table *)
  let same_nat what p c r ~is_reply =
    match (c, r) with
    | Some c, Some r ->
        let b1 = build_pkt p and b2 = build_pkt p in
        let k1 = FK.extract b1 and k2 = FK.extract b2 in
        let x = Ct.apply_nat c ~is_reply b1 k1 and y = Ref.apply_nat r ~is_reply b2 k2 in
        if x <> y || Buf.contents b1 <> Buf.contents b2 || not (FK.equal k1 k2) then
          fail "%s: apply_nat differs" what
    | _ -> ()
  in
  let counts what =
    if Ct.active_conns ct <> Ref.active_conns rf then
      fail "%s: active_conns %d vs %d" what (Ct.active_conns ct) (Ref.active_conns rf);
    List.iter
      (fun zone ->
        if Ct.zone_count ct ~zone <> Ref.zone_count rf ~zone then
          fail "%s: zone_count %d differs" what zone)
      [ 1; 2 ];
    if Ct.limit_drops ct <> Ref.limit_drops rf then fail "%s: limit_drops differs" what
  in
  let track what p zone =
    let b1 = build_pkt p and b2 = build_pkt p in
    let v = Ct.track ~buf:b1 ct ~now:!now ~zone (FK.extract b1)
    and w = Ref.track ~buf:b2 rf ~now:!now ~zone (FK.extract b2) in
    if v.Ct.ct_state <> w.Ref.ct_state then
      fail "%s: ct_state 0x%x vs 0x%x" what v.Ct.ct_state w.Ref.ct_state;
    same_conn what v.Ct.conn w.Ref.conn;
    same_nat what p v.Ct.conn w.Ref.conn
      ~is_reply:(v.Ct.ct_state land Bits.rpl <> 0)
  in
  let pressure zone limit =
    Ovs_faults.Faults.arm
      (Ovs_faults.Faults.plan ~name:"ct-equiv"
         [
           {
             Ovs_faults.Faults.f_name = "pressure";
             f_action = Ovs_faults.Faults.Ct_pressure { zone; limit };
             f_start = Ovs_sim.Time.us 10.;
             f_stop = Ovs_sim.Time.us 20.;
           };
         ]);
    List.iter
      (fun (f : Ovs_faults.Faults.fault) ->
        match f.Ovs_faults.Faults.f_action with
        | Ovs_faults.Faults.Ct_pressure { zone; limit } ->
            let a = Ct.evict_to_limit ct ~zone ~limit
            and b = Ref.evict_to_limit rf ~zone ~limit in
            if a <> b then fail "pressure: evicted %d vs %d" a b
        | _ -> ())
      (Ovs_faults.Faults.tick (Ovs_sim.Time.us 15.))
  in
  let step i op =
    let what = Printf.sprintf "op %d (%s)" i (pp_op op) in
    (match op with
    | Track (p, zone) -> track what p zone
    | Commit (p, zone, n) ->
        let k1 = FK.extract (build_pkt p) and k2 = FK.extract (build_pkt p) in
        let nat = nat_choices.(n) in
        let c = Ct.commit ct ~now:!now ~zone ?nat k1
        and r = Ref.commit rf ~now:!now ~zone ?nat:(ref_nat nat) k2 in
        same_conn what c r;
        same_nat what p c r ~is_reply:false
    | Advance d -> now := !now +. d
    | Limit (zone, limit) ->
        Ct.set_zone_limit ct ~zone ~limit;
        Ref.set_zone_limit rf ~zone ~limit
    | Pressure (zone, limit) -> pressure zone limit
    | Release -> Ovs_faults.Faults.disarm ()
    | Evict (zone, limit) ->
        let a = Ct.evict_to_limit ct ~zone ~limit and b = Ref.evict_to_limit rf ~zone ~limit in
        if a <> b then fail "%s: evicted %d vs %d" what a b
    | Sweep ->
        let a = Ct.sweep ct ~now:!now and b = Ref.sweep rf ~now:!now in
        if a <> b then fail "%s: reclaimed %d vs %d" what a b);
    counts what
  in
  Fun.protect ~finally:Ovs_faults.Faults.disarm (fun () ->
      List.iteri step ops;
      Ovs_faults.Faults.disarm ();
      now := !now +. Ovs_sim.Time.s 100.;
      step (List.length ops) Sweep;
      List.iter
        (fun p ->
          List.iter (fun zone -> track ("survivor " ^ pp_pkt p) p zone) [ 1; 2 ])
        probe_space;
      true)

(* The default count keeps tier-1 quick; [make ct-equiv] runs the
   property in QCheck's long mode at 100,000 cases. *)
let equivalence_count = 250

let prop_reference_equivalence =
  QCheck.Test.make ~count:equivalence_count
    ~long_factor:(100_000 / equivalence_count)
    ~name:"open-addressed conntrack == list-bucket reference" arb_ops run_equivalence

(* Heavy insert/delete through the index: rounds of commits and full
   sweeps that reclaim whatever passed the 30 s single-direction UDP
   timeout, so backward-shift deletion runs constantly. Afterwards every
   connection the model holds is still found (a hit, not +new), none it
   dropped is, and the longest probe run stays short: the index doubles
   at half occupancy, and over 200 seeds of this run it never exceeded
   18 positions. *)
let prop_churn_stress =
  QCheck.Test.make ~count:20 ~name:"churn: backward-shift deletion keeps every conn reachable"
    QCheck.(pair (int_range 1 3) (int_range 0 1_000_000))
    (fun (shards, seed) ->
      let rng = Random.State.make [| seed |] in
      let ct = Ct.create ~shards () in
      let key id =
        let k = FK.create () in
        FK.set k FK.Field.Nw_src (0x0A000000 + (id lsr 4));
        FK.set k FK.Field.Nw_dst 0x0A0000FE;
        FK.set k FK.Field.Nw_proto Ovs_packet.Ipv4.Proto.udp;
        FK.set k FK.Field.Tp_src (1024 + (id land 15));
        FK.set k FK.Field.Tp_dst 53;
        k
      in
      let space = 8192 in
      let born = Array.make space (-1.) in
      let now = ref 0. in
      let sweep () =
        ignore (Ct.sweep ct ~now:!now : int);
        Array.iteri
          (fun id t -> if t >= 0. && !now -. t > Ovs_sim.Time.s 30. then born.(id) <- -1.)
          born
      in
      for round = 1 to 60 do
        now := !now +. Ovs_sim.Time.s 1.;
        for _ = 1 to 150 do
          let id = Random.State.int rng space in
          ignore (Ct.commit ct ~now:!now ~zone:1 (key id) : Ct.conn option);
          if born.(id) < 0. then born.(id) <- !now
        done;
        if round = 60 || Random.State.int rng 4 = 0 then sweep ()
      done;
      let live = Array.fold_left (fun n t -> if t >= 0. then n + 1 else n) 0 born in
      let probe = Ct.longest_probe ct in
      let found =
        let ok = ref true in
        Array.iteri
          (fun id t ->
            (* no time passes, so tracking refreshes nothing that matters *)
            let v = Ct.track ct ~now:!now ~zone:1 (key id) in
            ok := !ok && has v.Ct.ct_state Bits.new_ = (t < 0.))
          born;
        !ok
      in
      if Ct.active_conns ct <> live then
        QCheck.Test.fail_reportf "active_conns %d, model %d" (Ct.active_conns ct) live;
      if probe > 32 then QCheck.Test.fail_reportf "longest probe %d" probe;
      found)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_conntrack"
    [
      ( "tcp",
        [
          Alcotest.test_case "untracked is new" `Quick test_untracked_is_new;
          Alcotest.test_case "commit and handshake" `Quick test_commit_and_handshake;
          Alcotest.test_case "rst invalidates" `Quick test_rst_invalidates;
          Alcotest.test_case "fin teardown" `Quick test_fin_teardown_states;
        ] );
      ( "state",
        [
          Alcotest.test_case "zones isolate" `Quick test_zones_isolate;
          Alcotest.test_case "udp pseudo state" `Quick test_udp_pseudo_state;
          Alcotest.test_case "timeout expiry" `Quick test_timeout_expiry;
          Alcotest.test_case "sweep reclaims" `Quick test_sweep_reclaims;
          Alcotest.test_case "zone limit" `Quick test_zone_limit;
          Alcotest.test_case "commit idempotent" `Quick test_commit_idempotent;
        ] );
      ( "related",
        [ Alcotest.test_case "related icmp errors" `Quick test_related_icmp ] );
      ( "tuples",
        [
          Alcotest.test_case "ipv6 hosts distinct" `Quick test_ipv6_hosts_distinct;
          Alcotest.test_case "ipv6 every address bit" `Quick test_ipv6_every_address_bit;
          Alcotest.test_case "self-reverse conn counted" `Quick
            test_self_reverse_conn_counted;
          Alcotest.test_case "reshard keeps limits" `Quick test_reshard_keeps_limits;
        ] );
      ( "nat",
        [ Alcotest.test_case "snat forward and reply" `Quick test_nat_rewrites_forward_and_reply ] );
      ( "eviction-properties",
        qcheck
          [
            prop_evict_count;
            prop_evict_oldest_first;
            prop_evict_then_readd;
            prop_ct_pressure_fault;
          ] );
      ( "sharding-properties",
        qcheck
          [ prop_sharded_oracle; prop_sweep_bounded_total; prop_evict_sharded ] );
      ( "equivalence", qcheck [ prop_reference_equivalence; prop_churn_stress ] );
    ]
