(* Tests for the AF_XDP socket mechanics: rings, umem, umempool, XSK. *)

open Ovs_xsk

let check = Alcotest.check

(* -- Ring -- *)

let test_ring_fifo () =
  let r = Ring.create ~size:8 () in
  for i = 1 to 5 do
    Alcotest.(check bool) "push" true (Ring.push r { Ring.addr = i; len = i })
  done;
  for i = 1 to 5 do
    match Ring.pop r with
    | Some d -> check Alcotest.int "fifo order" i d.Ring.addr
    | None -> Alcotest.fail "unexpected empty"
  done

let test_ring_full_empty () =
  let r = Ring.create ~size:4 () in
  Alcotest.(check bool) "empty" true (Ring.is_empty r);
  for i = 1 to 4 do
    Alcotest.(check bool) "fills" true (Ring.push r { Ring.addr = i; len = 0 })
  done;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  Alcotest.(check bool) "push on full fails" false
    (Ring.push r { Ring.addr = 9; len = 0 });
  check Alcotest.int "available" 4 (Ring.available r)

let test_ring_wraparound () =
  let r = Ring.create ~size:4 () in
  for round = 1 to 10 do
    Alcotest.(check bool) "push" true (Ring.push r { Ring.addr = round; len = 0 });
    match Ring.pop r with
    | Some d -> check Alcotest.int "wrap value" round d.Ring.addr
    | None -> Alcotest.fail "empty"
  done

let test_ring_pop_burst () =
  let r = Ring.create ~size:16 () in
  for i = 1 to 10 do
    ignore (Ring.push r { Ring.addr = i; len = 0 })
  done;
  let burst = Ring.pop_burst r ~max:4 in
  check Alcotest.int "burst size" 4 (List.length burst);
  check
    (Alcotest.list Alcotest.int)
    "burst order" [ 1; 2; 3; 4 ]
    (List.map (fun d -> d.Ring.addr) burst);
  check Alcotest.int "remaining" 6 (Ring.available r)

let test_ring_push_burst_partial () =
  let r = Ring.create ~size:4 () in
  let n = Ring.push_burst r (List.init 6 (fun i -> { Ring.addr = i; len = 0 })) in
  check Alcotest.int "only capacity accepted" 4 n

let test_ring_rejects_bad_size () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Ring.create: size must be a positive power of two")
    (fun () -> ignore (Ring.create ~size:6 ()))

let test_ring_op_counting () =
  let r = Ring.create ~size:8 () in
  ignore (Ring.push r { Ring.addr = 0; len = 0 });
  ignore (Ring.pop r);
  ignore (Ring.pop_burst r ~max:4);
  check Alcotest.int "ops counted" 3 (Ring.ops r)

(* -- Umem -- *)

let test_umem_frame_layout () =
  let u = Umem.create ~n_frames:4 ~ring_size:8 () in
  let o0 = Umem.frame_offset u 0 and o1 = Umem.frame_offset u 1 in
  check Alcotest.int "frame stride" u.Umem.frame_size (o1 - o0);
  Alcotest.check_raises "bad index" (Invalid_argument "Umem.frame_offset")
    (fun () -> ignore (Umem.frame_offset u 4))

let test_umem_dma_and_alias () =
  let u = Umem.create ~n_frames:2 ~ring_size:8 () in
  let wire = Bytes.of_string "hello world, this is packet data" in
  Umem.dma_into_frame u 1 wire ~src_off:0 ~len:(Bytes.length wire);
  let buf = Umem.buffer_of_frame u 1 ~len:(Bytes.length wire) in
  check Alcotest.bytes "zero-copy view" wire (Ovs_packet.Buffer.contents buf);
  (* mutating the buffer mutates the umem (zero-copy semantics) *)
  Ovs_packet.Buffer.set_u8 buf 0 0x58;
  let again = Umem.buffer_of_frame u 1 ~len:(Bytes.length wire) in
  check Alcotest.int "aliasing" 0x58 (Ovs_packet.Buffer.get_u8 again 0)

let test_umem_frame_overflow () =
  let u = Umem.create ~frame_size:512 ~frame_headroom:128 ~n_frames:1 ~ring_size:8 () in
  let big = Bytes.make 500 'x' in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Umem.dma_into_frame: frame overflow") (fun () ->
      Umem.dma_into_frame u 0 big ~src_off:0 ~len:500)

(* -- Umempool -- *)

let test_umempool_get_put () =
  let p = Umempool.create ~n_frames:4 ~strategy:Umempool.Spinlock () in
  check Alcotest.int "initially full" 4 (Umempool.available p);
  let f1 = Umempool.get p in
  Alcotest.(check bool) "got a frame" true (f1 <> None);
  check Alcotest.int "one out" 3 (Umempool.available p);
  (match f1 with Some f -> Umempool.put p f | None -> ());
  check Alcotest.int "returned" 4 (Umempool.available p)

let test_umempool_exhaustion () =
  let p = Umempool.create ~n_frames:2 ~strategy:Umempool.Spinlock () in
  ignore (Umempool.get p);
  ignore (Umempool.get p);
  Alcotest.(check bool) "exhausted" true (Umempool.get p = None);
  check Alcotest.int "failure counted" 1 p.Umempool.stats.Umempool.exhausted

let test_umempool_batch_locking () =
  (* O3's point: batched strategy takes one lock per batch, not per frame *)
  let batched = Umempool.create ~n_frames:64 ~strategy:Umempool.Spinlock_batched () in
  let unbatched = Umempool.create ~n_frames:64 ~strategy:Umempool.Spinlock () in
  ignore (Umempool.get_batch batched 32);
  ignore (Umempool.get_batch unbatched 32);
  check Alcotest.int "batched: one acquisition" 1
    batched.Umempool.stats.Umempool.lock_acquisitions;
  check Alcotest.int "unbatched: one per frame" 32
    unbatched.Umempool.stats.Umempool.lock_acquisitions

let test_umempool_distinct_frames () =
  let p = Umempool.create ~n_frames:16 ~strategy:Umempool.Mutex () in
  let frames = Umempool.get_batch p 16 in
  check Alcotest.int "all frames" 16 (List.length frames);
  let unique = List.sort_uniq compare frames in
  check Alcotest.int "all distinct" 16 (List.length unique);
  Umempool.put_batch p frames;
  check Alcotest.int "all back" 16 (Umempool.available p)

let test_umempool_lock_costs () =
  let c = Ovs_sim.Costs.default in
  let mutex = Umempool.create ~n_frames:4 ~strategy:Umempool.Mutex () in
  let spin = Umempool.create ~n_frames:4 ~strategy:Umempool.Spinlock () in
  Alcotest.(check bool) "mutex dearer (the O2 story)" true
    (Umempool.lock_cost mutex c > Umempool.lock_cost spin c)

(* -- Xsk -- *)

let make_xsk () =
  let umem = Umem.create ~n_frames:64 ~ring_size:64 () in
  let pool = Umempool.create ~n_frames:64 ~strategy:Umempool.Spinlock_batched () in
  Xsk.create ~ring_size:64 ~umem ~pool ~queue_id:0 ()

let test_xsk_rx_path () =
  let xsk = make_xsk () in
  ignore (Xsk.refill xsk 16);
  let wire = Ovs_packet.Buffer.contents (Ovs_packet.Build.udp ~frame_len:64 ()) in
  Alcotest.(check bool) "delivered" true (Xsk.kernel_rx xsk wire ~len:64);
  match Xsk.rx_burst xsk ~max:32 with
  | [ (frame, buf) ] ->
      check Alcotest.int "length" 64 (Ovs_packet.Buffer.length buf);
      check Alcotest.bytes "bytes" wire (Ovs_packet.Buffer.contents buf);
      Xsk.release xsk ~frame
  | l -> Alcotest.failf "expected 1 packet, got %d" (List.length l)

let test_xsk_drop_without_fill () =
  let xsk = make_xsk () in
  (* no refill: the fill ring is empty, the kernel must drop *)
  let wire = Bytes.make 64 'x' in
  Alcotest.(check bool) "dropped" false (Xsk.kernel_rx xsk wire ~len:64);
  check Alcotest.int "drop counted" 1 xsk.Xsk.rx_dropped_no_frame

let test_xsk_tx_kick_and_recycle () =
  let xsk = make_xsk () in
  ignore (Xsk.refill xsk 4);
  let before = Umempool.available xsk.Xsk.pool in
  let wire = Bytes.make 64 'y' in
  Alcotest.(check bool) "rx" true (Xsk.kernel_rx xsk wire ~len:64);
  (match Xsk.rx_burst xsk ~max:1 with
  | [ (frame, _) ] ->
      Alcotest.(check bool) "queued" true (Xsk.tx xsk ~frame ~len:64);
      check Alcotest.int "one kick, one sent" 1 (Xsk.flush_tx xsk);
      check Alcotest.int "kick counted" 1 xsk.Xsk.kicks;
      (* frame returned to the pool through the completion ring *)
      check Alcotest.int "frame recycled" (before + 1) (Umempool.available xsk.Xsk.pool)
  | _ -> Alcotest.fail "rx_burst");
  check Alcotest.int "flush on empty is free" 0 (Xsk.flush_tx xsk)

let test_xsk_burst_order () =
  let xsk = make_xsk () in
  ignore (Xsk.refill xsk 8);
  for i = 0 to 4 do
    let pkt = Ovs_packet.Build.udp ~frame_len:64 ~src_port:(1000 + i) () in
    ignore (Xsk.kernel_rx xsk (Ovs_packet.Buffer.contents pkt) ~len:64)
  done;
  let batch = Xsk.rx_burst xsk ~max:16 in
  check Alcotest.int "batch" 5 (List.length batch);
  List.iteri
    (fun i (_, buf) ->
      ignore (Ovs_packet.Ethernet.parse buf);
      ignore (Ovs_packet.Ipv4.parse buf);
      match Ovs_packet.Udp.parse buf with
      | Some u -> check Alcotest.int "arrival order" (1000 + i) u.Ovs_packet.Udp.src_port
      | None -> Alcotest.fail "udp parse")
    batch

(* The domains layout: atomic sockets with private fill/completion rings
   over one umem and one pool, [n] queues, each fill ring stocked. *)
let domains_layout ?(n = 2) ?(ring_size = 8) () =
  let n_frames = 16 * n in
  let umem = Umem.create ~n_frames ~ring_size () in
  let pool = Umempool.create ~n_frames ~strategy:Umempool.Spinlock_batched () in
  let xsks =
    Array.init n (fun q ->
        Xsk.create ~ring_size ~fill_target:(ring_size / 2) ~atomic:true ~umem
          ~pool ~queue_id:q ())
  in
  Array.iter (fun x -> ignore (Xsk.refill x 0 : int)) xsks;
  (pool, xsks)

(* every report of one frame census, oldest first *)
let census_reports pool xsks =
  let got = ref [] in
  Audit.check_frames
    (fun s -> got := s :: !got)
    (Audit.census ~label:"ingress" pool (Audit.xsk_rings xsks));
  List.rev !got

let test_xsk_rx_full_keeps_fill () =
  let pool, xsks = domains_layout ~n:1 ~ring_size:4 () in
  let xsk = xsks.(0) in
  let wire = Bytes.make 64 'z' in
  while not (Ring.is_full xsk.Xsk.rx) do
    Alcotest.(check bool) "rx" true (Xsk.kernel_rx xsk wire ~len:64);
    ignore (Xsk.refill xsk 0 : int)
  done;
  let fill_prod = Ring.prod_idx xsk.Xsk.fill in
  Alcotest.(check bool) "a fill frame is ready" false (Ring.is_empty xsk.Xsk.fill);
  Alcotest.(check bool) "dropped" false (Xsk.kernel_rx xsk wire ~len:64);
  check Alcotest.int "counted as ring full" 1 xsk.Xsk.rx_dropped_ring_full;
  check Alcotest.int "nothing produced onto the fill ring" fill_prod
    (Ring.prod_idx xsk.Xsk.fill);
  check Alcotest.(list string) "every frame owned once" []
    (census_reports pool xsks)

(* -- Audit: the shared ring and frame oracles -- *)

let test_audit_clean () =
  let pool, xsks = domains_layout () in
  check Alcotest.(list string) "clean census" [] (census_reports pool xsks);
  check Alcotest.(list string) "private rings listed per queue"
    [ "q0 fill ring"; "q0 completion ring"; "q1 fill ring";
      "q1 completion ring"; "q0 rx ring"; "q0 tx ring"; "q1 rx ring";
      "q1 tx ring" ]
    (List.map fst (Audit.xsk_rings xsks))

let test_audit_double_owner () =
  let pool, xsks = domains_layout () in
  (* a frame still posted on q1's fill ring goes back to the pool too *)
  let d = Ring.peek xsks.(1).Xsk.fill 0 in
  Umempool.put pool d.Ring.addr;
  let reports = census_reports pool xsks in
  let affix =
    Printf.sprintf "frame %d owned twice (second owner: q1 fill ring)"
      d.Ring.addr
  in
  Alcotest.(check bool)
    (String.concat "; " reports)
    true
    (List.exists (fun r -> Astring.String.is_infix ~affix r) reports)

let test_audit_unowned () =
  let pool, xsks = domains_layout () in
  match Umempool.get pool with
  | None -> Alcotest.fail "pool empty"
  | Some f ->
      check Alcotest.(list string) "the taken frame is named"
        [ Printf.sprintf "ingress: 31 of 32 frames accounted (frame %d unowned)" f ]
        (census_reports pool xsks)

let test_audit_rewind () =
  let _, xsks = domains_layout () in
  let xsk = xsks.(0) in
  Alcotest.(check bool) "rx" true (Xsk.kernel_rx xsk (Bytes.make 64 'r') ~len:64);
  ignore (Xsk.rx_burst xsk ~max:1);
  let tr = Audit.track "q0.rx" xsk.Xsk.rx in
  let got = ref [] in
  let report s = got := s :: !got in
  Audit.check_ring report tr;
  check Alcotest.(list string) "quiet ring" [] !got;
  Ring.corrupt_rewind_cons xsk.Xsk.rx;
  Audit.check_ring report tr;
  check Alcotest.(list string) "rewind caught" [ "q0.rx consumer rewound (1 -> 0)" ]
    !got

(* -- Dp_packet_pool -- *)

let test_metadata_costs () =
  let c = Ovs_sim.Costs.default in
  let pre = Dp_packet_pool.create ~mode:Dp_packet_pool.Preallocated in
  let dyn = Dp_packet_pool.create ~mode:Dp_packet_pool.Per_packet_alloc in
  Alcotest.(check bool) "O4 saves time" true
    (Dp_packet_pool.metadata_cost pre c < Dp_packet_pool.metadata_cost dyn c);
  Dp_packet_pool.acquire pre;
  Dp_packet_pool.acquire dyn;
  check Alcotest.int "counted" 1 pre.Dp_packet_pool.allocations

let prop_ring_sequence =
  QCheck.Test.make ~count:100 ~name:"ring preserves any push/pop interleaving"
    QCheck.(list_of_size Gen.(int_range 1 200) bool)
    (fun ops ->
      let r = Ring.create ~size:16 () in
      let next = ref 0 and expect = ref 0 and ok = ref true in
      List.iter
        (fun push ->
          if push then begin
            if Ring.push r { Ring.addr = !next; len = 0 } then incr next
          end
          else
            match Ring.pop r with
            | Some d ->
                if d.Ring.addr <> !expect then ok := false;
                incr expect
            | None -> if Ring.available r <> 0 then ok := false)
        ops;
      !ok)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_xsk"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "full/empty" `Quick test_ring_full_empty;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "pop burst" `Quick test_ring_pop_burst;
          Alcotest.test_case "push burst partial" `Quick test_ring_push_burst_partial;
          Alcotest.test_case "bad size" `Quick test_ring_rejects_bad_size;
          Alcotest.test_case "op counting" `Quick test_ring_op_counting;
        ]
        @ qcheck [ prop_ring_sequence ] );
      ( "umem",
        [
          Alcotest.test_case "frame layout" `Quick test_umem_frame_layout;
          Alcotest.test_case "dma and aliasing" `Quick test_umem_dma_and_alias;
          Alcotest.test_case "frame overflow" `Quick test_umem_frame_overflow;
        ] );
      ( "umempool",
        [
          Alcotest.test_case "get/put" `Quick test_umempool_get_put;
          Alcotest.test_case "exhaustion" `Quick test_umempool_exhaustion;
          Alcotest.test_case "batch locking (O3)" `Quick test_umempool_batch_locking;
          Alcotest.test_case "distinct frames" `Quick test_umempool_distinct_frames;
          Alcotest.test_case "lock costs (O2)" `Quick test_umempool_lock_costs;
        ] );
      ( "xsk",
        [
          Alcotest.test_case "rx path" `Quick test_xsk_rx_path;
          Alcotest.test_case "drop without fill" `Quick test_xsk_drop_without_fill;
          Alcotest.test_case "tx kick and recycle" `Quick test_xsk_tx_kick_and_recycle;
          Alcotest.test_case "burst order" `Quick test_xsk_burst_order;
          Alcotest.test_case "rx ring full leaves the fill ring alone" `Quick
            test_xsk_rx_full_keeps_fill;
        ] );
      ( "dp_packet_pool",
        [ Alcotest.test_case "metadata costs (O4)" `Quick test_metadata_costs ] );
      ( "audit",
        [
          Alcotest.test_case "clean domains layout" `Quick test_audit_clean;
          Alcotest.test_case "frame on fill ring and in pool" `Quick
            test_audit_double_owner;
          Alcotest.test_case "frame taken from pool" `Quick test_audit_unowned;
          Alcotest.test_case "rx consumer rewound" `Quick test_audit_rewind;
        ] );
    ]
