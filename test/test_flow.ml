(* Tests for the caching layer: exact-match cache and dpcls. *)

module FK = Ovs_packet.Flow_key
module Emc = Ovs_flow.Emc
module Dpcls = Ovs_flow.Dpcls

let check = Alcotest.check

let key_of_flow i =
  let pkt =
    Ovs_packet.Build.udp
      ~src_ip:(Ovs_packet.Ipv4.addr_of_string "10.0.0.1" + (i land 0xFF))
      ~src_port:(1000 + i) ()
  in
  FK.extract pkt

(* -- EMC -- *)

let test_emc_hit_miss () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 0 in
  Alcotest.(check bool) "miss" true (Emc.lookup emc k = None);
  Emc.insert emc k 42;
  Alcotest.(check bool) "hit" true (Emc.lookup emc k = Some 42);
  check Alcotest.int "occupancy" 1 (Emc.occupancy emc)

let test_emc_update_in_place () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 1 in
  Emc.insert emc k 1;
  Emc.insert emc k 2;
  Alcotest.(check bool) "updated" true (Emc.lookup emc k = Some 2);
  check Alcotest.int "no duplicate" 1 (Emc.occupancy emc)

let test_emc_eviction_bounded () =
  let emc = Emc.create ~entries:8 () in
  for i = 0 to 99 do
    Emc.insert emc (key_of_flow i) i
  done;
  Alcotest.(check bool) "bounded" true (Emc.occupancy emc <= 8)

let test_emc_flush () =
  let emc = Emc.create ~entries:8 () in
  Emc.insert emc (key_of_flow 0) 0;
  Emc.flush emc;
  check Alcotest.int "flushed" 0 (Emc.occupancy emc);
  Alcotest.(check bool) "post-flush miss" true (Emc.lookup emc (key_of_flow 0) = None)

let test_emc_hit_rate () =
  let emc = Emc.create ~entries:64 () in
  let k = key_of_flow 5 in
  Emc.insert emc k 5;
  ignore (Emc.lookup emc k);
  ignore (Emc.lookup emc (key_of_flow 6));
  check (Alcotest.float 1e-9) "50%" 0.5 (Emc.hit_rate emc)

let test_emc_rejects_bad_size () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Emc.create: entries must be a power of two") (fun () ->
      ignore (Emc.create ~entries:10 ()))

(* -- Dpcls -- *)

(* [Dpcls.lookup_entry] resolved to the value and the probe count. *)
let lookup cls k =
  match Dpcls.lookup_entry cls k with
  | Some (e, probes, _) -> Some (e.Dpcls.value, probes)
  | None -> None

let mask_of fields =
  let m = FK.create () in
  List.iter (fun f -> FK.set m f (FK.Field.full_mask f)) fields;
  m

let test_dpcls_masked_match () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.Nw_src ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k "flow-a";
  (* a different flow with the same nw_src must match the same megaflow *)
  let k2 = FK.copy k in
  FK.set k2 FK.Field.Tp_src 9999;
  (match lookup cls k2 with
  | Some ("flow-a", probes) -> check Alcotest.int "one subtable" 1 probes
  | _ -> Alcotest.fail "masked lookup failed");
  (* different nw_src misses *)
  let k3 = FK.copy k in
  FK.set k3 FK.Field.Nw_src 1;
  Alcotest.(check bool) "different src misses" true (lookup cls k3 = None)

let test_dpcls_one_subtable_per_mask () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  for i = 0 to 9 do
    let k = FK.create () in
    FK.set k FK.Field.In_port i;
    Dpcls.insert cls ~mask ~key:k i
  done;
  check Alcotest.int "subtables" 1 (Dpcls.subtable_count cls);
  check Alcotest.int "flows" 10 (Dpcls.flow_count cls)

let test_dpcls_multiple_subtables_probed () =
  let cls = Dpcls.create () in
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:(key_of_flow 0) 1;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Nw_src ]) ~key:(key_of_flow 1) 2;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Tp_src ]) ~key:(key_of_flow 2) 3;
  check Alcotest.int "three subtables" 3 (Dpcls.subtable_count cls);
  (* a key that only matches the last-created subtable probes several *)
  match lookup cls (key_of_flow 2) with
  | Some (_, probes) -> Alcotest.(check bool) "probed >= 1" true (probes >= 1)
  | None ->
      (* key_of_flow 2 shares in_port with flow 0's subtable mask, so a hit
         through another subtable is possible; ensure at least the lookup
         terminates with all subtables probed *)
      ()

let test_dpcls_replace_same_key () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k 1;
  Dpcls.insert cls ~mask ~key:k 2;
  check Alcotest.int "replaced, not duplicated" 1 (Dpcls.flow_count cls);
  match lookup cls k with
  | Some (v, _) -> check Alcotest.int "new value" 2 v
  | None -> Alcotest.fail "lookup"

let test_dpcls_remove () =
  let cls = Dpcls.create () in
  let mask = mask_of [ FK.Field.In_port ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask ~key:k 1;
  Alcotest.(check bool) "removed" true (Dpcls.remove cls ~mask ~key:k);
  Alcotest.(check bool) "gone" true (lookup cls k = None);
  check Alcotest.int "empty subtable collected" 0 (Dpcls.subtable_count cls);
  check Alcotest.int "no flows" 0 (Dpcls.flow_count cls);
  Alcotest.(check bool) "double remove" false (Dpcls.remove cls ~mask ~key:k);
  check Alcotest.int "still no flows" 0 (Dpcls.flow_count cls)

let test_dpcls_flush () =
  let cls = Dpcls.create () in
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:(key_of_flow 0) 1;
  Dpcls.flush cls;
  check Alcotest.int "no flows" 0 (Dpcls.flow_count cls)

let test_dpcls_resort_keeps_semantics () =
  let cls = Dpcls.create () in
  let m1 = mask_of [ FK.Field.In_port ] in
  let m2 = mask_of [ FK.Field.Nw_src ] in
  let k = key_of_flow 0 in
  Dpcls.insert cls ~mask:m1 ~key:k "by-port";
  Dpcls.insert cls ~mask:m2 ~key:(key_of_flow 3) "by-src";
  (* hammer one subtable so periodic resorting reorders them *)
  for _ = 1 to 3000 do
    ignore (lookup cls k)
  done;
  match lookup cls k with
  | Some (v, _) -> check Alcotest.string "still matches" "by-port" v
  | None -> Alcotest.fail "lost after resort"

(* Regression for subtable re-ranking staleness: hit counts are halved at
   every resort, so a workload shift must reorder the probe order within a
   few resort periods. Without the decay, months of accumulated hits on
   the old subtable would keep it ranked first ~forever. *)
let test_dpcls_resort_decay_converges () =
  let cls = Dpcls.create () in
  let key_a = FK.create () in
  FK.set key_a FK.Field.In_port 7;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.In_port ]) ~key:key_a "old";
  let key_b = FK.create () in
  FK.set key_b FK.Field.In_port 9;
  FK.set key_b FK.Field.Nw_src 42;
  Dpcls.insert cls ~mask:(mask_of [ FK.Field.Nw_src ]) ~key:key_b "new";
  (* phase 1: a long-lived workload hammers the first subtable *)
  for _ = 1 to 20_000 do
    ignore (lookup cls key_a)
  done;
  (match lookup cls key_b with
  | Some ("new", probes) -> check Alcotest.int "shifted flow probes second" 2 probes
  | _ -> Alcotest.fail "shifted flow must match");
  (* phase 2: the workload shifts entirely; convergence must take only a
     few 1024-lookup resort periods, not 20k lookups of catch-up *)
  for _ = 1 to 4 * 1024 do
    ignore (lookup cls key_b)
  done;
  match lookup cls key_b with
  | Some ("new", probes) -> check Alcotest.int "reordered to front" 1 probes
  | _ -> Alcotest.fail "shifted flow must still match"

(* Property: dpcls lookup agrees with a linear-scan oracle. Megaflows are
   disjoint in OVS; we generate disjoint entries by construction (distinct
   masked values under a shared mask per subtable). *)
let prop_dpcls_vs_oracle =
  QCheck.Test.make ~count:60 ~name:"dpcls agrees with linear oracle"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 1) in
      let cls = Dpcls.create () in
      let field_pool =
        [| FK.Field.In_port; FK.Field.Nw_src; FK.Field.Nw_dst; FK.Field.Tp_src;
           FK.Field.Tp_dst; FK.Field.Dl_type |]
      in
      (* build 3 subtable masks and entries under each *)
      let entries = ref [] in
      for s = 0 to 2 do
        let nf = 1 + Ovs_sim.Prng.int prng 3 in
        let fields =
          List.init nf (fun i -> field_pool.((s + i * 2) mod Array.length field_pool))
        in
        let mask = mask_of fields in
        for e = 0 to 4 do
          let k = FK.create () in
          Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 50)) FK.Field.all;
          Dpcls.insert cls ~mask ~key:k ((s * 10) + e);
          entries := (FK.copy mask, FK.apply_mask k mask, (s * 10) + e) :: !entries
        done
      done;
      (* random probe keys; oracle = first match in insertion-reversed order
         is not well-defined across subtables, so compare hit/miss sets *)
      let ok = ref true in
      for _ = 1 to 50 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 50)) FK.Field.all;
        let oracle_hits =
          List.filter_map
            (fun (m, masked, v) ->
              if FK.equal (FK.apply_mask k m) masked then Some v else None)
            !entries
        in
        match lookup cls k with
        | Some (v, _) -> if not (List.mem v oracle_hits) then ok := false
        | None -> if oracle_hits <> [] then ok := false
      done;
      !ok)

(* -- cache-hierarchy invariants (EMC + SMC + dpcls against the datapath) -- *)

module Smc = Ovs_flow.Smc
module Dpif = Ovs_datapath.Dpif
module Dp_core = Ovs_datapath.Dp_core
module Netdev = Ovs_netdev.Netdev
module Buffer = Ovs_packet.Buffer

(* The three cache tiers may miss independently, but any tier that claims a
   hit must agree with the classifier (the ground truth): a disagreement
   would forward a packet on a stale or foreign megaflow. *)
let prop_cache_tiers_agree =
  QCheck.Test.make ~count:60 ~name:"EMC/SMC/dpcls agree on every lookup"
    QCheck.(small_int)
    (fun seed ->
      let prng = Ovs_sim.Prng.of_int (seed + 11) in
      let cls = Dpcls.create () in
      let emc = Emc.create ~entries:1024 () in
      let smc = Smc.create ~entries:1024 () in
      let masks =
        [|
          mask_of [ FK.Field.Nw_src ];
          mask_of [ FK.Field.Nw_src; FK.Field.Tp_src ];
          mask_of [ FK.Field.In_port; FK.Field.Nw_dst ];
        |]
      in
      for v = 0 to 19 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 16)) FK.Field.all;
        Dpcls.insert cls ~mask:masks.(v mod 3) ~key:k v
      done;
      let seen = ref [] in
      let ok = ref true in
      let probe k =
        let truth = Dpcls.lookup_entry cls k in
        (match (Emc.lookup emc k, truth) with
        | Some v, Some (e, _, _) when v <> e.Dpcls.value -> ok := false
        | Some _, None -> ok := false
        | _ -> ());
        (match (Smc.lookup smc k, truth) with
        | Some v, Some (e, _, _) when v <> e.Dpcls.value -> ok := false
        | Some _, None -> ok := false
        | _ -> ());
        (* a dpcls hit populates the upper tiers, like the datapath does *)
        match truth with
        | Some (e, _, mask) ->
            Emc.insert emc k e.Dpcls.value;
            Smc.insert smc k ~mask e.Dpcls.value;
            seen := FK.copy k :: !seen
        | None -> ()
      in
      for _ = 1 to 200 do
        let k = FK.create () in
        Array.iter (fun f -> FK.set k f (Ovs_sim.Prng.int prng 16)) FK.Field.all;
        probe k;
        (* revisit a known flow: every tier must now hit and agree *)
        match !seen with
        | k' :: _ -> probe k'
        | [] -> ()
      done;
      !ok)

let flow_rules = [ "table=0,priority=10,udp actions=output:1" ]

let make_dp ?(rules = flow_rules) () =
  let pipeline = Ovs_ofproto.Pipeline.create ~n_tables:2 () in
  ignore (Ovs_ofproto.Parser.install_flows pipeline rules);
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  for i = 0 to 2 do
    ignore (Dpif.add_port dp (Netdev.create ~name:(Printf.sprintf "p%d" i) ()))
  done;
  (pipeline, dp)

let udp_pkt () =
  let pkt = Ovs_packet.Build.udp ~src_port:7777 () in
  pkt.Buffer.in_port <- 0;
  pkt

let process dp pkt = Dpif.process dp (fun _ _ -> ()) pkt

let test_hit_after_install_miss_after_flush () =
  let _, dp = make_dp () in
  let c = Dpif.counters dp in
  process dp (udp_pkt ());
  check Alcotest.int "first packet upcalls" 1 c.Dp_core.upcalls;
  check Alcotest.int "megaflow installed" 1 (List.length (Dpif.dump_megaflows dp));
  process dp (udp_pkt ());
  check Alcotest.int "second packet hits the cache" 1 c.Dp_core.upcalls;
  check Alcotest.int "EMC served it" 1 c.Dp_core.emc_hits;
  Dpif.flush_caches dp;
  check Alcotest.int "flush empties the flow table" 0
    (List.length (Dpif.dump_megaflows dp));
  process dp (udp_pkt ());
  check Alcotest.int "post-flush packet misses again" 2 c.Dp_core.upcalls

let new_policy = "table=0,priority=100,udp actions=output:2"

let test_revalidate_evicts_and_never_resurrects () =
  let pipeline, dp = make_dp () in
  process dp (udp_pkt ());
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "old policy cached" true
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  (* the controller overrides the policy; the cached megaflow is now stale *)
  ignore (Ovs_ofproto.Parser.install_flows pipeline [ new_policy ]);
  Alcotest.(check bool) "revalidation evicts the stale megaflow" true
    (Dpif.revalidate dp >= 1);
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "stale megaflow gone" false
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  (* re-processing must follow the new policy, and revalidation must agree *)
  process dp (udp_pkt ());
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "new policy cached" true
    (Astring.String.is_infix ~affix:"output(2)" dumped);
  Alcotest.(check bool) "old megaflow did not come back" false
    (Astring.String.is_infix ~affix:"output(1)" dumped);
  check Alcotest.int "nothing left to evict" 0 (Dpif.revalidate dp)

(* Regression for the deferred-upcall re-probe path: an upcall queued
   before a rule change must translate against the *new* tables when it is
   finally drained, not resurrect the old decision. *)
let test_deferred_upcall_sees_rule_change () =
  let pipeline, dp = make_dp () in
  let hit_ports = ref [] in
  List.iter
    (fun p ->
      Netdev.set_tx_sink p.Dpif.dev (fun dev _ ->
          hit_ports := dev.Netdev.port_no :: !hit_ports))
    (Dpif.ports dp);
  let pending = Queue.create () in
  Dpif.set_upcall_hook dp (Some (fun pkt key -> Queue.add (pkt, key) pending; true));
  process dp (udp_pkt ());
  check Alcotest.int "packet parked on the upcall queue" 1 (Queue.length pending);
  ignore (Ovs_ofproto.Parser.install_flows pipeline [ new_policy ]);
  (let pkt, key = Queue.pop pending in
   Dpif.handle_upcall dp (fun _ _ -> ()) pkt key);
  Alcotest.(check (list Alcotest.int)) "forwarded by the new rule" [ 2 ] !hit_ports;
  let dumped = String.concat "\n" (Dpif.dump_megaflows dp) in
  Alcotest.(check bool) "megaflow carries the new actions" true
    (Astring.String.is_infix ~affix:"output(2)" dumped)

(* -- equivalence with the list-bucket reference classifier -- *)

module Ref = Dpcls_reference

let equiv_fields = FK.Field.[| In_port; Nw_src; Nw_dst; Tp_src; Tp_dst |]

(* A small pool of masks that overlap: a key can match in several
   subtables, so the probe order decides which entry answers, and a prefix
   mask and an empty (catch-all) mask cover partial and no words. *)
let equiv_masks =
  let mask fields =
    let m = FK.create () in
    List.iter (fun (f, w) -> FK.set m f w) fields;
    m
  in
  let full f = (f, FK.Field.full_mask f) in
  FK.Field.
    [|
      mask [ full In_port ];
      mask [ full Nw_src ];
      mask [ full Nw_src; full Tp_src ];
      mask [ (Nw_src, 0xFFFF0000) ];
      mask [ full Nw_dst; full Tp_dst; full In_port ];
      mask [];
    |]

(* Key [code]: base-4 digits, one per field of [equiv_fields], each spread
   over every byte of the field so the prefix mask sees it. *)
let key_space = 1024

let equiv_key code =
  let k = FK.create () in
  Array.iteri (fun i f -> FK.set k f ((code lsr (2 * i)) land 3 * 0x01010101)) equiv_fields;
  k

type dop =
  | Insert of int * int list  (** mask, keys; a key already there is reinstalled *)
  | Remove of int * int  (** mask, key *)
  | Remove_nth of int  (** the nth installed megaflow, in sorted order *)
  | Drain of int  (** remove every megaflow of the mask, emptying its subtable *)
  | Lookup of int
  | Peek of int
  | Burst of int list * int  (** lookups cycling over the keys, this many *)
  | Flush

let pp_codes l = String.concat "," (List.map string_of_int l)

let pp_dop = function
  | Insert (m, ks) -> Printf.sprintf "insert m%d [%s]" m (pp_codes ks)
  | Remove (m, k) -> Printf.sprintf "remove m%d %d" m k
  | Remove_nth n -> Printf.sprintf "remove #%d" n
  | Drain m -> Printf.sprintf "drain m%d" m
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Burst (ks, n) -> Printf.sprintf "burst %d over [%s]" n (pp_codes ks)
  | Flush -> "flush"

let gen_dop =
  QCheck.Gen.(
    let mask = int_bound (Array.length equiv_masks - 1) and key = int_bound (key_space - 1) in
    frequency
      [
        (8, map2 (fun m ks -> Insert (m, ks)) mask (list_size (int_range 1 12) key));
        (2, map2 (fun m k -> Remove (m, k)) mask key);
        (4, map (fun n -> Remove_nth n) (int_bound 1000));
        (1, map (fun m -> Drain m) mask);
        (6, map (fun k -> Lookup k) key);
        (3, map (fun k -> Peek k) key);
        (3, map2 (fun ks n -> Burst (ks, n)) (list_size (int_range 1 4) key) (int_range 1 1200));
        (1, return Flush);
      ])

let arb_dops =
  QCheck.make
    ~print:(fun ops -> String.concat "\n" (List.map pp_dop ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_dop)

(* Every megaflow as (mask, masked key, value, hits), sorted. *)
let dpcls_contents t =
  let l = ref [] in
  Dpcls.iter t (fun ~mask ~key v hits -> l := (FK.copy mask, FK.copy key, v, hits) :: !l);
  List.sort compare !l

let ref_contents r =
  let l = ref [] in
  Ref.iter r (fun ~mask ~key v hits -> l := (FK.copy mask, FK.copy key, v, hits) :: !l);
  List.sort compare !l

(* Run one operation sequence on the open-addressed classifier and the
   reference, failing at the first difference: every lookup's (value,
   probes, mask), every peek, every remove's result, and after every
   operation the subtable and flow counts, the mean probes and the
   contents as a sorted multiset. At the end every installed megaflow is
   looked up by its own key, so an entry a deletion left unreachable
   shows. *)
let run_dpcls_equivalence ops =
  let t = Dpcls.create () and r = Ref.create () in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let next_value = ref 0 in
  let lookup what k =
    match (Dpcls.lookup_entry t k, Ref.lookup_entry r k) with
    | None, None -> ()
    | Some (e, p, m), Some (e', p', m') ->
        if e.Dpcls.value <> e'.Ref.value || p <> p' || not (FK.equal m m') then
          fail "%s: lookup gives value %d after %d probes vs %d after %d" what e.Dpcls.value p
            e'.Ref.value p'
    | Some _, None | None, Some _ -> fail "%s: lookup hits in one classifier only" what
  in
  let remove what mask key =
    let a = Dpcls.remove t ~mask ~key and b = Ref.remove r ~mask ~key in
    if a <> b then fail "%s: remove %b vs %b" what a b
  in
  let step i op =
    let what = Printf.sprintf "op %d (%s)" i (pp_dop op) in
    (match op with
    | Insert (m, ks) ->
        List.iter
          (fun code ->
            incr next_value;
            let key = equiv_key code and mask = equiv_masks.(m) in
            Dpcls.insert t ~mask ~key !next_value;
            Ref.insert r ~mask ~key !next_value)
          ks
    | Remove (m, k) -> remove what equiv_masks.(m) (equiv_key k)
    | Remove_nth n -> (
        match ref_contents r with
        | [] -> ()
        | l ->
            let mask, key, _, _ = List.nth l (n mod List.length l) in
            remove what mask key)
    | Drain m ->
        List.iter
          (fun (mask, key, _, _) -> if FK.equal mask equiv_masks.(m) then remove what mask key)
          (ref_contents r)
    | Lookup k -> lookup what (equiv_key k)
    | Peek k -> (
        let k = equiv_key k in
        match (Dpcls.peek t k, Ref.peek r k) with
        | None, None -> ()
        | Some (v, m), Some (v', m') when v = v' && FK.equal m m' -> ()
        | _ -> fail "%s: peek differs" what)
    | Burst (ks, n) ->
        let keys = Array.of_list (List.map equiv_key ks) in
        for j = 0 to n - 1 do
          lookup what keys.(j mod Array.length keys)
        done
    | Flush ->
        Dpcls.flush t;
        Ref.flush r);
    if Dpcls.subtable_count t <> Ref.subtable_count r then
      fail "%s: %d subtables vs %d" what (Dpcls.subtable_count t) (Ref.subtable_count r);
    if Dpcls.flow_count t <> Ref.flow_count r then
      fail "%s: %d flows vs %d" what (Dpcls.flow_count t) (Ref.flow_count r);
    if Dpcls.mean_probes t <> Ref.mean_probes r then
      fail "%s: mean probes %g vs %g" what (Dpcls.mean_probes t) (Ref.mean_probes r);
    if dpcls_contents t <> ref_contents r then fail "%s: contents differ" what
  in
  List.iteri step ops;
  List.iter (fun (_, key, _, _) -> lookup "final reachability" key) (ref_contents r);
  true

(* The default count keeps tier-1 quick; [make dpcls-equiv] runs the
   property in QCheck's long mode at 100,000 cases. *)
let dpcls_equivalence_count = 200

let prop_dpcls_reference_equivalence =
  QCheck.Test.make ~count:dpcls_equivalence_count
    ~long_factor:(100_000 / dpcls_equivalence_count)
    ~name:"open-addressed dpcls == list-bucket reference" arb_dops run_dpcls_equivalence

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_flow"
    [
      ( "emc",
        [
          Alcotest.test_case "hit/miss" `Quick test_emc_hit_miss;
          Alcotest.test_case "update in place" `Quick test_emc_update_in_place;
          Alcotest.test_case "eviction bounded" `Quick test_emc_eviction_bounded;
          Alcotest.test_case "flush" `Quick test_emc_flush;
          Alcotest.test_case "hit rate" `Quick test_emc_hit_rate;
          Alcotest.test_case "bad size" `Quick test_emc_rejects_bad_size;
        ] );
      ( "dpcls",
        [
          Alcotest.test_case "masked match" `Quick test_dpcls_masked_match;
          Alcotest.test_case "one subtable per mask" `Quick test_dpcls_one_subtable_per_mask;
          Alcotest.test_case "multiple subtables" `Quick test_dpcls_multiple_subtables_probed;
          Alcotest.test_case "replace same key" `Quick test_dpcls_replace_same_key;
          Alcotest.test_case "remove" `Quick test_dpcls_remove;
          Alcotest.test_case "flush" `Quick test_dpcls_flush;
          Alcotest.test_case "resort keeps semantics" `Quick test_dpcls_resort_keeps_semantics;
          Alcotest.test_case "resort decay converges after shift" `Quick
            test_dpcls_resort_decay_converges;
        ]
        @ qcheck [ prop_dpcls_vs_oracle ] );
      ( "hierarchy",
        [
          Alcotest.test_case "hit after install, miss after flush" `Quick
            test_hit_after_install_miss_after_flush;
          Alcotest.test_case "revalidate never resurrects" `Quick
            test_revalidate_evicts_and_never_resurrects;
          Alcotest.test_case "deferred upcall sees rule change" `Quick
            test_deferred_upcall_sees_rule_change;
        ]
        @ qcheck [ prop_cache_tiers_agree ] );
      ("equivalence", qcheck [ prop_dpcls_reference_equivalence ]);
    ]
