(* Tests for incremental megaflow revalidation (lib/revalidator): the
   cube-overlap predicate, the work-proportional-to-churn guarantee, a
   rule added and removed between two sweeps, the QCheck property that
   the incremental sweep evicts exactly what the flush-all oracle would
   under random rule churn, and the property that the journal-driven
   tracker agrees with the snapshot-and-diff reference
   (revalidator_reference.ml). *)

module Dpif = Ovs_datapath.Dpif
module Reval = Ovs_revalidator.Revalidator
module Pipeline = Ovs_ofproto.Pipeline
module Table = Ovs_ofproto.Table
module Match_ = Ovs_ofproto.Match_
module Action = Ovs_ofproto.Action
module Netdev = Ovs_netdev.Netdev
module FK = Ovs_packet.Flow_key
module B = Ovs_packet.Build

let charge _ _ = ()

(* -- cube_overlap -- *)

(* a megaflow cube from a mask and a (pre-masking) key *)
let cube fields key_fields =
  let mask = FK.create () and key = FK.create () in
  List.iter (fun f -> FK.set mask f (FK.Field.full_mask f)) fields;
  List.iter (fun (f, v) -> FK.set key f v) key_fields;
  (mask, FK.apply_mask key mask)

let test_cube_overlap () =
  let m_dst ip = Match_.with_field (Match_.catchall ()) FK.Field.Nw_dst ip in
  (* rule constrains Nw_dst, megaflow doesn't: no commonly-constrained
     bit can differ, so the cubes intersect *)
  let mask, key = cube [ FK.Field.In_port ] [ (FK.Field.In_port, 3) ] in
  Alcotest.(check bool) "disjoint fields overlap" true
    (Reval.cube_overlap (m_dst 0x0A000001) ~mask ~key);
  (* both constrain Nw_dst and agree *)
  let mask, key =
    cube [ FK.Field.Nw_dst ] [ (FK.Field.Nw_dst, 0x0A000001) ]
  in
  Alcotest.(check bool) "same value overlaps" true
    (Reval.cube_overlap (m_dst 0x0A000001) ~mask ~key);
  (* both constrain Nw_dst and differ in a common bit *)
  Alcotest.(check bool) "different value disjoint" false
    (Reval.cube_overlap (m_dst 0x0A000002) ~mask ~key);
  (* a /24 rule against a /32 megaflow inside (and outside) the prefix *)
  let rule24 =
    Match_.with_prefix (Match_.catchall ()) FK.Field.Nw_dst 0x0A000000 24
  in
  Alcotest.(check bool) "inside prefix overlaps" true
    (Reval.cube_overlap rule24 ~mask ~key);
  let mask, key =
    cube [ FK.Field.Nw_dst ] [ (FK.Field.Nw_dst, 0x0A000101) ]
  in
  Alcotest.(check bool) "outside prefix disjoint" false
    (Reval.cube_overlap rule24 ~mask ~key)

(* -- work proportional to churn, not table size -- *)

let test_no_churn_no_work () =
  let pipeline = Pipeline.create ~n_tables:1 () in
  Pipeline.add_flow pipeline ~priority:0 (Match_.catchall ())
    [ Action.Output 1 ];
  let rv : int Reval.t = Reval.create ~pipeline () in
  for i = 0 to 99 do
    let mask = FK.create () and key = FK.create () in
    FK.set mask FK.Field.Nw_src (FK.Field.full_mask FK.Field.Nw_src);
    FK.set key FK.Field.Nw_src (0x0A000000 + i);
    Reval.record rv ~mask ~key ~actions:i
      [ { Reval.dep_table = 0; dep_outcome = Reval.Missed } ]
  done;
  (* no rules changed: the sweep must not re-translate (or even look at)
     any of the 100 tracked megaflows *)
  let s =
    Reval.sweep rv
      ~translate:(fun _ -> Alcotest.fail "translated with zero churn")
      ~evict:(fun ~mask:_ ~key:_ -> Alcotest.fail "evicted with zero churn")
  in
  Alcotest.(check int) "no adds" 0 s.Reval.sw_rules_added;
  Alcotest.(check int) "no dirty" 0 s.Reval.sw_dirty;
  Alcotest.(check int) "tracked intact" 100 (Reval.flows rv)

(* -- a rule added and removed between two sweeps -- *)

(* The rule exists only between two sweeps, so it is in neither sweep's
   view of the tables' end state; a megaflow that matched it meanwhile
   must still be found stale. *)
let test_transient_rule () =
  let pipeline = Pipeline.create ~n_tables:1 () in
  Pipeline.add_flow pipeline ~priority:0 (Match_.catchall ())
    [ Action.Output 1 ];
  let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
  ignore (Dpif.add_port dp (Netdev.create ~name:"ta" ()));
  ignore (Dpif.add_port dp (Netdev.create ~name:"tb" ()));
  Dpif.set_revalidator_enabled dp true;
  let drop = Match_.with_field (Match_.catchall ()) FK.Field.Nw_src 0x0A000101 in
  Pipeline.add_flow pipeline ~priority:10 drop [];
  let p = B.udp ~src_ip:0x0A000101 ~dst_ip:0x0A000001 () in
  p.Ovs_packet.Buffer.in_port <- 0;
  Dpif.process dp charge p;
  ignore (Pipeline.del_flows pipeline drop);
  let full, incr, divergences = Dpif.revalidate_check dp in
  Alcotest.(check (list int))
    "full_stale, incr_evicted, divergences" [ 1; 1; 0 ] [ full; incr; divergences ]

(* -- incremental == flush-all oracle under random churn -- *)

(* A small universe keeps rule/traffic collisions frequent: 8 source
   addresses on one /24, 4 destination ports, rules that match subsets of
   either, half of them drops. Every round applies one to four random
   operations, with traffic between them, and then proves
   Dpif.revalidate_check sees zero divergence between the incremental
   sweep and the flush-all re-translation. *)
let prop_incremental_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"incremental sweep == flush-all oracle"
    QCheck.(
      list_of_size Gen.(int_range 8 24)
        (list_of_size Gen.(int_range 1 4) (int_range 0 9999)))
    (fun rounds ->
      let pipeline = Pipeline.create ~n_tables:1 () in
      Pipeline.add_flow pipeline ~priority:0 (Match_.catchall ())
        [ Action.Output 1 ];
      let dp = Dpif.create ~kind:Dpif.Dpdk ~pipeline () in
      ignore (Dpif.add_port dp (Netdev.create ~name:"ra" ()));
      ignore (Dpif.add_port dp (Netdev.create ~name:"rb" ()));
      Dpif.set_revalidator_enabled dp true;
      let inject r =
        let p =
          B.udp
            ~src_ip:(0x0A000100 + (r mod 8))
            ~dst_ip:0x0A000001 ~src_port:5000
            ~dst_port:(2000 + (r / 8 mod 4))
            ()
        in
        p.Ovs_packet.Buffer.in_port <- 0;
        Dpif.process dp charge p
      in
      (* seed some megaflows before any churn *)
      List.iteri (fun i ops -> if i < 6 then List.iter inject ops) rounds;
      let specs = ref [] in
      let op r =
        match r mod 3 with
        | 0 ->
            (* add a rule on a random slice of the universe *)
            let m =
              if r land 1 = 0 then
                Match_.with_field (Match_.catchall ()) FK.Field.Nw_src
                  (0x0A000100 + (r / 16 mod 8))
              else
                Match_.with_field (Match_.catchall ()) FK.Field.Tp_dst
                  (2000 + (r / 16 mod 4))
            in
            let actions = if r land 2 = 0 then [ Action.Output 1 ] else [] in
            Pipeline.add_flow pipeline ~priority:(1 + (r mod 200)) m actions;
            specs := m :: !specs
        | 1 -> (
            (* delete a previously-added rule, if any *)
            match !specs with
            | [] -> ()
            | m :: rest ->
                specs := rest;
                ignore (Pipeline.del_flows pipeline m))
        | _ -> inject r
      in
      List.for_all
        (fun ops ->
          List.iteri
            (fun i r ->
              if i > 0 then inject (r / 3);
              op r)
            ops;
          let _full, _incr, divergences = Dpif.revalidate_check dp in
          (* refresh the cache population so later churn has megaflows
             translated under the mutated rule set *)
          List.iter (fun r -> inject (r * 7)) ops;
          divergences = 0)
        rounds)

(* -- the journal against the snapshot-and-diff reference -- *)

module Ref = Revalidator_reference

(* Keys 0..15: four source addresses on one /30, four destination ports. *)
let equiv_key code =
  let k = FK.create () in
  FK.set k FK.Field.Dl_type 0x0800;
  FK.set k FK.Field.Nw_proto 17;
  FK.set k FK.Field.Nw_src (0x0A000000 + (code land 3));
  FK.set k FK.Field.Tp_dst (2000 + (code lsr 2 land 3));
  k

(* Four rule shapes, so adds and deletes create, share and drop
   subtables: an address, a /31, a port, and address plus port. A
   delete with a shape's match removes every rule it covers. *)
let equiv_match shape code =
  let m = Match_.catchall () and src = 0x0A000000 + (code land 3) in
  let port = 2000 + (code lsr 2 land 3) in
  match shape with
  | 0 -> Match_.with_field m FK.Field.Nw_src src
  | 1 -> Match_.with_prefix m FK.Field.Nw_src src 31
  | 2 -> Match_.with_field m FK.Field.Tp_dst port
  | _ -> Match_.with_field (Match_.with_field m FK.Field.Nw_src src) FK.Field.Tp_dst port

type rop =
  | Add of int * int * int * int  (** table, shape, key, priority *)
  | Del of int * int * int  (** table, shape, key *)

let pp_rop = function
  | Add (t, s, k, p) -> Printf.sprintf "add t%d s%d k%d p%d" t s k p
  | Del (t, s, k) -> Printf.sprintf "del t%d s%d k%d" t s k

(* An interval: one to four table operations, each followed by a packet
   (the last one's arrives after the sweep). *)
let gen_interval =
  QCheck.Gen.(
    let op =
      frequency
        [
          (3, map4 (fun t s k p -> Add (t, s, k, p)) (int_bound 1) (int_bound 3) (int_bound 15) (int_bound 5));
          (2, map3 (fun t s k -> Del (t, s, k)) (int_bound 1) (int_bound 3) (int_bound 15));
        ]
    in
    list_size (int_range 1 4) (pair op (int_bound 15)))

let arb_intervals =
  QCheck.make
    ~print:(fun l ->
      String.concat "\n"
        (List.map
           (fun iv ->
             String.concat "; " (List.map (fun (o, k) -> Printf.sprintf "%s, send k%d" (pp_rop o) k) iv))
           l))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 16) gen_interval)

let ref_dep d =
  {
    Ref.dep_table = d.Reval.dep_table;
    dep_outcome =
      (match d.Reval.dep_outcome with
      | Reval.Matched { rule; priority } -> Ref.Matched { rule; priority }
      | Reval.Missed -> Ref.Missed);
  }

(* Drive both trackers over one two-table pipeline with the same
   records and the same translate. An interval with one operation must
   give equal sweep_stats, equal evictions and the same re-translated
   keys; with several (and traffic between them) the journal must evict
   exactly the flush-all oracle's stale set and re-translate at least
   what the reference does, and both are then re-recorded from scratch so
   the next interval starts them equal. *)
let run_reval_equivalence intervals =
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let pipeline = Pipeline.create ~n_tables:2 () in
  Pipeline.add_flow pipeline ~table:0 ~priority:0 (Match_.catchall ()) [ Action.Goto_table 1 ];
  Pipeline.add_flow pipeline ~table:1 ~priority:0 (Match_.catchall ()) [ Action.Output 1 ];
  let rv : Action.odp list Reval.t = Reval.create ~pipeline () in
  let rf : Action.odp list Ref.t = Ref.create ~pipeline () in
  let translate key =
    let deps = ref [] in
    let r =
      Pipeline.translate pipeline key ~log:(fun tid rule ->
          deps :=
            {
              Reval.dep_table = tid;
              dep_outcome =
                (match rule with
                | Some ru -> Reval.Matched { rule = ru.Table.id; priority = ru.Table.priority }
                | None -> Reval.Missed);
            }
            :: !deps)
    in
    (r.Pipeline.odp_actions, r.Pipeline.megaflow_mask, List.rev !deps)
  in
  (* the model datapath: installed megaflows as (mask, full key, actions) *)
  let installed = ref [] in
  let record (mask, key, actions) =
    let _, _, deps = translate key in
    Reval.record rv ~mask ~key ~actions deps;
    Ref.record rf ~mask ~key ~actions (List.map ref_dep deps)
  in
  let send code =
    let key = equiv_key code in
    if
      not
        (List.exists
           (fun (mask, k, _) -> FK.equal (FK.apply_mask key mask) (FK.apply_mask k mask))
           !installed)
    then begin
      let actions, mask, _ = translate key in
      let mf = (FK.copy mask, key, actions) in
      installed := mf :: !installed;
      record mf
    end
  in
  let id (mask, key) = (mask, FK.apply_mask key mask) in
  let sweep f dep =
    let ev = ref [] and tx = ref [] in
    let st =
      f
        ~translate:(fun key ->
          tx := FK.copy key :: !tx;
          let actions, mask, deps = translate key in
          (actions, mask, List.map dep deps))
        ~evict:(fun ~mask ~key -> ev := id (mask, key) :: !ev)
    in
    (st, List.sort compare !ev, List.sort compare !tx)
  in
  let apply = function
    | Add (table, shape, code, p) ->
        Pipeline.add_flow pipeline ~table ~priority:(1 + p) (equiv_match shape code)
          (if table = 0 then if p land 1 = 0 then [ Action.Goto_table 1 ] else []
           else [ Action.Output (1 + (p land 1)) ])
    | Del (table, shape, code) ->
        ignore (Pipeline.del_flows ~table pipeline (equiv_match shape code))
  in
  let rec subset a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> if compare x y = 0 then subset a' b' else compare x y > 0 && subset a b'
  in
  List.iteri
    (fun round iv ->
      let n = List.length iv in
      List.iteri (fun i (o, k) -> apply o; if i < n - 1 then send k) iv;
      let oracle =
        List.filter_map
          (fun (mask, key, actions) ->
            let actions', mask', _ = translate key in
            if actions' <> actions || not (FK.equal mask mask') then Some (id (mask, key))
            else None)
          !installed
        |> List.sort compare
      in
      let st, ev, tx = sweep (Reval.sweep rv) Fun.id in
      let st', ev', tx' = sweep (Ref.sweep rf) ref_dep in
      let what = Printf.sprintf "round %d (%d ops)" round n in
      if n = 1 then begin
        let stats s = Reval.(s.sw_rules_added, s.sw_rules_removed, s.sw_dirty, s.sw_retranslated, s.sw_evicted)
        and ref_stats s = Ref.(s.sw_rules_added, s.sw_rules_removed, s.sw_dirty, s.sw_retranslated, s.sw_evicted) in
        if stats st <> ref_stats st' then fail "%s: sweep_stats differ" what;
        if ev <> ev' then fail "%s: evictions differ" what;
        if tx <> tx' then fail "%s: dirty sets differ" what
      end
      else if not (subset tx' tx) then fail "%s: a reference-dirty megaflow is clean" what;
      if ev <> oracle then fail "%s: %d evicted, oracle %d stale" what (List.length ev) (List.length oracle);
      installed := List.filter (fun (mask, key, _) -> not (List.mem (id (mask, key)) ev)) !installed;
      List.iter (fun (mask, key) -> Ref.forget rf ~mask ~key) ev;
      if n > 1 then List.iter record !installed;
      send (snd (List.nth iv (n - 1))))
    intervals;
  true

(* The default count keeps tier-1 quick; [make reval-equiv] runs the
   property in QCheck's long mode at 100,000 cases. *)
let reval_equivalence_count = 300

let prop_reval_reference_equivalence =
  QCheck.Test.make ~count:reval_equivalence_count
    ~long_factor:(100_000 / reval_equivalence_count)
    ~name:"rule journal == snapshot-and-diff reference" arb_intervals
    run_reval_equivalence

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_revalidator"
    [
      ( "unit",
        [
          Alcotest.test_case "cube_overlap" `Quick test_cube_overlap;
          Alcotest.test_case "zero churn, zero work" `Quick test_no_churn_no_work;
          Alcotest.test_case "rule added and removed between sweeps" `Quick
            test_transient_rule;
        ] );
      ("oracle", qcheck [ prop_incremental_matches_oracle ]);
      ("equivalence", qcheck [ prop_reval_reference_equivalence ]);
    ]
