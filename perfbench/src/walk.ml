(* The layer walk of the traced run.

   The lookup tiers are sealed inside Dp_core, so the traced run feeds a
   copy of every packet through bench-owned instances of the same layers
   (Flow_key.extract, Emc, Dpcls, Pipeline.translate, Conntrack, the
   revalidator), in the order Dp_core.process uses for the userspace
   datapath with the EMC on and the SMC and computational cache off, and
   records a span around each public call. The walk shadows the datapath
   from its first packet, so its counters must equal Dpif.counters
   exactly; main drops a tier whose counter does not match. *)

module FK = Ovs_packet.Flow_key
module Buffer = Ovs_packet.Buffer
module A = Ovs_ofproto.Action
module Pipeline = Ovs_ofproto.Pipeline
module Ct = Ovs_conntrack.Conntrack
module Reval = Ovs_revalidator.Revalidator
module Emc = Ovs_flow.Emc
module Dpcls = Ovs_flow.Dpcls
module Sp = Perfbench.Spans

(* span names; the first five are the datapath-side spans main opens *)
let names =
  [| "burst"; "netdev.rx_enqueue"; "datapath.poll"; "datapath.process";
     "datapath.maintenance"; "walk.pass"; "packet.extract"; "flow.emc_lookup";
     "flow.emc_insert"; "flow.dpcls_lookup"; "flow.dpcls_insert";
     "ofproto.translate"; "conntrack.track"; "conntrack.commit";
     "conntrack.sweep"; "revalidator.sweep"; "xsk.ring_burst";
     "xsk.umempool_batch" |]

let k name =
  match Array.find_index (String.equal name) names with
  | Some i -> i
  | None -> invalid_arg name
let k_burst = k "burst"
let k_rx = k "netdev.rx_enqueue"
let k_poll = k "datapath.poll"
let k_process = k "datapath.process"
let k_maint = k "datapath.maintenance"
let k_pass = k "walk.pass"
let k_extract = k "packet.extract"
let k_emc = k "flow.emc_lookup"
let k_emc_ins = k "flow.emc_insert"
let k_dpcls = k "flow.dpcls_lookup"
let k_dpcls_ins = k "flow.dpcls_insert"
let k_translate = k "ofproto.translate"
let k_track = k "conntrack.track"
let k_commit = k "conntrack.commit"
let k_sweep = k "conntrack.sweep"
let k_reval = k "revalidator.sweep"
let k_ring = k "xsk.ring_burst"
let k_umem = k "xsk.umempool_batch"

type t = {
  sp : Sp.t;
  pipeline : unit -> Pipeline.t;  (** the datapath's live pipeline *)
  emc : A.odp list Emc.t;
  dpcls : A.odp list Dpcls.t;
  ct : Ct.t;
  reval : A.odp list Reval.t option;
  csum_offload : bool;
  deferred : bool;
      (** the PMD runtime defers misses to its upcall queue, drained
          after the burst with a dpcls re-probe (Dp_core.handle_upcall) *)
  queue : (Buffer.t * FK.t) Queue.t;
  mutable now : float;
  mutable passes : int;
  mutable emc_hits : int;
  mutable dpcls_hits : int;
  mutable upcalls : int;
  mutable emc_lookups : int;
  mutable dpcls_lookups : int;
  mutable probes : int;
  mutable extract_words : float;
  mutable extracts : int;
  mutable unsupported : int;  (** actions the walk cannot mirror *)
  mutable reval_rounds : int;
  mutable reval_retx : int;
  mutable reval_evicted : int;
}

let create ?(keep = 0) ?ct_shards ?(reval = false) ?(deferred = false)
    ~csum_offload pipeline =
  {
    sp = Sp.create ~keep names;
    pipeline;
    emc = Emc.create ();
    dpcls = Dpcls.create ();
    ct = Ct.create ?shards:ct_shards ();
    reval = (if reval then Some (Reval.create ~pipeline:(pipeline ()) ()) else None);
    csum_offload;
    deferred;
    queue = Queue.create ();
    now = 0.;
    passes = 0;
    emc_hits = 0;
    dpcls_hits = 0;
    upcalls = 0;
    emc_lookups = 0;
    dpcls_lookups = 0;
    probes = 0;
    extract_words = 0.;
    extracts = 0;
    unsupported = 0;
    reval_rounds = 0;
    reval_retx = 0;
    reval_evicted = 0;
  }

let enter w k = Sp.enter w.sp k (Harness.now ())
let leave w = Sp.leave w.sp (Harness.now ())

let reset_counters w =
  w.passes <- 0;
  w.emc_hits <- 0;
  w.dpcls_hits <- 0;
  w.upcalls <- 0;
  w.emc_lookups <- 0;
  w.dpcls_lookups <- 0;
  w.probes <- 0;
  w.extract_words <- 0.;
  w.extracts <- 0

let emc_insert w key actions =
  enter w k_emc_ins;
  Emc.insert w.emc key actions;
  leave w

let dpcls_probe w key =
  enter w k_dpcls;
  let r = Dpcls.lookup_entry w.dpcls key in
  leave w;
  w.dpcls_lookups <- w.dpcls_lookups + 1;
  match r with
  | Some (e, probes, _) ->
      w.probes <- w.probes + probes;
      w.dpcls_hits <- w.dpcls_hits + 1;
      emc_insert w key e.Dpcls.value;
      Some e.Dpcls.value
  | None ->
      w.probes <- w.probes + Int.max 1 (Dpcls.subtable_count w.dpcls);
      None

let dep_log acc table_id (rule : A.t list Ovs_ofproto.Table.rule option) =
  acc :=
    {
      Reval.dep_table = table_id;
      dep_outcome =
        (match rule with
        | Some ru ->
            Reval.Matched
              { rule = ru.Ovs_ofproto.Table.id; priority = ru.Ovs_ofproto.Table.priority }
        | None -> Reval.Missed);
    }
    :: !acc

(* Dp_core.slowpath: translate, install the megaflow, fill the EMC. *)
let slowpath w key =
  w.upcalls <- w.upcalls + 1;
  let deps = ref [] in
  let log = match w.reval with Some _ -> Some (dep_log deps) | None -> None in
  enter w k_translate;
  let r = Pipeline.translate (w.pipeline ()) ?log key in
  leave w;
  let actions = r.Pipeline.odp_actions and mask = r.Pipeline.megaflow_mask in
  enter w k_dpcls_ins;
  Dpcls.insert w.dpcls ~mask ~key actions;
  leave w;
  (match w.reval with
  | Some rv -> Reval.record rv ~mask ~key ~actions (List.rev !deps)
  | None -> ());
  emc_insert w key actions;
  actions

let ct_state_of verdict conn commit =
  match (verdict.Ct.conn, conn, commit) with
  | None, Some _, true -> verdict.Ct.ct_state
  | None, None, true -> FK.Ct_state_bits.inv lor FK.Ct_state_bits.trk
  | _ -> verdict.Ct.ct_state

let rec pass w pkt =
  enter w k_pass;
  w.passes <- w.passes + 1;
  enter w k_extract;
  let w0 = Gc.minor_words () in
  let key = FK.extract pkt in
  let w1 = Gc.minor_words () in
  leave w;
  w.extract_words <- w.extract_words +. (w1 -. w0);
  w.extracts <- w.extracts + 1;
  enter w k_emc;
  let hit = Emc.lookup w.emc key in
  leave w;
  w.emc_lookups <- w.emc_lookups + 1;
  let cached =
    match hit with
    | Some a ->
        w.emc_hits <- w.emc_hits + 1;
        Some a
    | None -> dpcls_probe w key
  in
  (match cached with
  | Some actions -> execute w pkt key actions
  | None ->
      if w.deferred then Queue.add (pkt, key) w.queue
      else execute w pkt key (slowpath w key));
  leave w

and execute w pkt key actions =
  List.iter
    (fun act ->
      match act with
      | A.Odp_output _ | A.Odp_drop | A.Odp_userspace -> ()
      | A.Odp_set (f, v) -> ignore (Ovs_datapath.Set_field.apply pkt key f v : bool)
      | A.Odp_push_vlan tci ->
          Ovs_packet.Ethernet.push_vlan pkt ~tci;
          FK.set key FK.Field.Vlan_tci (tci lor 0x1000)
      | A.Odp_pop_vlan ->
          Ovs_packet.Ethernet.pop_vlan pkt;
          FK.set key FK.Field.Vlan_tci 0
      | A.Odp_tnl_push ts ->
          pkt.Buffer.rss_hash <- FK.rss_hash key;
          Ovs_packet.Tunnel.encap pkt ts.A.tnl_kind ~fill_csum:(not w.csum_offload)
            ~vni:ts.A.vni ~src_mac:ts.A.local_mac ~dst_mac:ts.A.remote_mac
            ~src_ip:ts.A.local_ip ~dst_ip:ts.A.remote_ip ()
      | A.Odp_tnl_pop resume -> (
          match Ovs_packet.Tunnel.decap pkt with
          | Some _ ->
              pkt.Buffer.recirc_id <- resume;
              pass w pkt
          | None -> ())
      | A.Odp_ct { zone; commit; nat; resume_table } ->
          enter w k_track;
          let verdict = Ct.track ~buf:pkt w.ct ~now:w.now ~zone key in
          leave w;
          let conn =
            if commit && verdict.Ct.conn = None then begin
              let nat =
                Option.map
                  (fun { A.snat; dnat } -> { Ct.nat_src = snat; nat_dst = dnat })
                  nat
              in
              enter w k_commit;
              let c = Ct.commit w.ct ~now:w.now ~zone ?nat key in
              leave w;
              c
            end
            else verdict.Ct.conn
          in
          let ct_state = ct_state_of verdict conn commit in
          (match conn with
          | Some c ->
              let is_reply = ct_state land FK.Ct_state_bits.rpl <> 0 in
              ignore (Ct.apply_nat c ~is_reply pkt key : bool)
          | None -> ());
          pkt.Buffer.ct_state <- ct_state;
          pkt.Buffer.ct_zone <- zone;
          FK.set key FK.Field.Ct_state ct_state;
          FK.set key FK.Field.Ct_zone zone;
          if resume_table >= 0 then begin
            pkt.Buffer.recirc_id <- resume_table;
            pass w pkt
          end
      | A.Odp_meter _ -> w.unsupported <- w.unsupported + 1)
    actions

(* Drain the deferred misses of a burst, as Dp_core.handle_upcall does:
   re-probe the megaflow table, translate on a true miss, execute. *)
let drain w =
  while not (Queue.is_empty w.queue) do
    let pkt, key = Queue.pop w.queue in
    let actions =
      match dpcls_probe w key with Some a -> a | None -> slowpath w key
    in
    execute w pkt key actions
  done

let process w pkt =
  pass w pkt;
  drain w

let sweep_ct w ~budget =
  enter w k_sweep;
  ignore (Ct.sweep_bounded w.ct ~now:w.now ~budget : int);
  leave w

(* Dp_core.incremental_sweep over the walk's own tracker. *)
let revalidate w =
  match w.reval with
  | None -> ()
  | Some rv ->
      let evicted = ref [] in
      enter w k_reval;
      let st =
        Reval.sweep rv
          ~translate:(fun key ->
            let deps = ref [] in
            let r = Pipeline.translate (w.pipeline ()) ~log:(dep_log deps) key in
            (r.Pipeline.odp_actions, r.Pipeline.megaflow_mask, List.rev !deps))
          ~evict:(fun ~mask ~key -> evicted := (FK.copy mask, FK.copy key) :: !evicted)
      in
      if !evicted <> [] then begin
        List.iter (fun (mask, key) -> ignore (Dpcls.remove w.dpcls ~mask ~key : bool)) !evicted;
        Emc.flush w.emc
      end;
      leave w;
      w.reval_rounds <- w.reval_rounds + 1;
      w.reval_retx <- w.reval_retx + st.Reval.sw_retranslated;
      w.reval_evicted <- w.reval_evicted + st.Reval.sw_evicted

(* --- per-layer figures from a traced run --- *)

(* What an empty span reports as self time: one clock read and the
   recorder's bookkeeping. Leaf layers report their mean self time minus
   this, so the figures for the smallest calls are not mostly clock. *)
let span_overhead_ns =
  lazy
    (let sp = Sp.create [| "empty" |] in
     for _ = 1 to 10_000 do
       Sp.enter sp 0 (Harness.now ());
       Sp.leave sp (Harness.now ())
     done;
     Sp.end_burst sp;
     Sp.mean_self sp 0)

let mean_self w k = Sp.mean_self w.sp k

let leaf_ns w k =
  if Sp.count w.sp k = 0 then 0.
  else Float.max 0. (mean_self w k -. Lazy.force span_overhead_ns)
let ratio a b = if b = 0. then 0. else a /. b
let per n x = ratio x (float_of_int n)

(* The four Dpif counters the walk must reproduce exactly. *)
let counter_checks w (c : Ovs_datapath.Dp_core.counters) =
  List.map
    (fun (what, mine, theirs) ->
      Harness.check ("walk-matches-" ^ what) (mine = theirs)
        (Printf.sprintf "walk %d, datapath %d" mine theirs))
    [
      ("passes", w.passes, c.Ovs_datapath.Dp_core.passes);
      ("emc_hits", w.emc_hits, c.Ovs_datapath.Dp_core.emc_hits);
      ("dpcls_hits", w.dpcls_hits, c.Ovs_datapath.Dp_core.dpcls_hits);
      ("upcalls", w.upcalls, c.Ovs_datapath.Dp_core.upcalls);
    ]

(* Which tiers each counter vouches for: a tier whose counter does not
   match reports 0 rather than figures from a walk that diverged. *)
let tier_prefixes =
  [
    ("passes", [ "packet." ]);
    ("emc_hits", [ "flow.emc_" ]);
    ("dpcls_hits", [ "flow.dpcls_"; "flow.megaflows" ]);
    ("upcalls", [ "ofproto.translate"; "ofproto.upcalls"; "conntrack."; "revalidator." ]);
  ]

let drop_diverged checks values =
  let bad =
    List.concat_map
      (fun (what, prefixes) ->
        match List.find_opt (fun c -> c.Harness.cname = "walk-matches-" ^ what) checks with
        | Some c when not c.Harness.ok -> prefixes
        | _ -> [])
      tier_prefixes
  in
  List.map
    (fun (name, v) ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) bad then (name, 0.)
      else (name, v))
    values

(* Everything the walk and the datapath-side spans give, for [packets]
   offered packets. The workload supplies what only it knows. *)
let layer_values w ~dp ~packets ~gc ~charged_ns ~install_us_per_rule ~sweep_budget =
  let costs = Ovs_sim.Costs.default in
  let c = Ovs_datapath.Dpif.counters dp in
  let subtables, megaflows, _ = Ovs_datapath.Dpif.dpcls_stats dp in
  let extract_ns = leaf_ns w k_extract
  and emc_ns = leaf_ns w k_emc
  and dpcls_ns = leaf_ns w k_dpcls in
  let probes_per = ratio (float_of_int w.probes) (float_of_int w.dpcls_lookups) in
  let sweeps = Sp.count w.sp k_sweep in
  let self k = Sp.self_ns w.sp k in
  [
    ("packet.extract_ns", extract_ns);
    ("packet.extract_words", ratio w.extract_words (float_of_int w.extracts));
    ("packet.extract_real_over_charged", ratio extract_ns costs.Ovs_sim.Costs.miniflow_extract);
    ("flow.emc_lookup_ns", emc_ns);
    ("flow.emc_hit_ratio", ratio (float_of_int w.emc_hits) (float_of_int w.emc_lookups));
    ("flow.emc_real_over_charged", ratio emc_ns costs.Ovs_sim.Costs.emc_hit);
    ("flow.dpcls_lookup_ns", dpcls_ns);
    ("flow.dpcls_probes_per_lookup", probes_per);
    ("flow.dpcls_subtables", float_of_int subtables);
    ("flow.megaflows", float_of_int megaflows);
    ("flow.dpcls_insert_ns", leaf_ns w k_dpcls_ins);
    ( "flow.dpcls_real_over_charged",
      ratio dpcls_ns (probes_per *. costs.Ovs_sim.Costs.dpcls_subtable) );
    ("ofproto.translate_ns", leaf_ns w k_translate);
    ("ofproto.upcalls_per_kpkt", per packets (1e3 *. float_of_int c.Ovs_datapath.Dp_core.upcalls));
    ("ofproto.install_us_per_rule", install_us_per_rule);
    ("conntrack.track_ns", leaf_ns w k_track);
    ("conntrack.commit_ns", leaf_ns w k_commit);
    ("conntrack.sweep_ns_per_entry", per (sweeps * sweep_budget) (self k_sweep));
    ( "conntrack.active_conns",
      float_of_int (Ct.active_conns (Ovs_datapath.Dpif.conntrack dp)) );
    ("revalidator.sweep_ms", mean_self w k_reval /. 1e6);
    ("revalidator.retranslated_per_round", per w.reval_rounds (float_of_int w.reval_retx));
    ( "revalidator.useful_ratio",
      ratio (float_of_int w.reval_evicted) (float_of_int w.reval_retx) );
    ("xsk.ring_burst_ns", leaf_ns w k_ring);
    ("xsk.umempool_batch_ns", leaf_ns w k_umem);
    ("netdev.rx_enqueue_ns_per_pkt", per packets (self k_rx));
    ("datapath.poll_ns_per_pkt", per packets (self k_poll));
    ("datapath.process_ns_per_pkt", per packets (self k_process));
    ("datapath.passes_per_pkt", per packets (float_of_int c.Ovs_datapath.Dp_core.passes));
    ("runtime.minor_gcs_per_kpkt", per packets (1e3 *. float_of_int gc.Harness.minors));
    ("runtime.promoted_words_per_pkt", per packets gc.Harness.promoted);
    ("runtime.major_cycles_per_mpkt", per packets (1e6 *. float_of_int gc.Harness.majors));
    ("sim.charged_ns_per_pkt", per packets charged_ns);
  ]

(* The traced run's outcome: per-layer values (tiers whose counters
   diverged zeroed), the tracing overhead against the untraced half
   [base], and the walk's spans of the first bursts for [spans_file]. *)
let traced_outcome w ~name ~seed ~base ~ph ~values ~checks ~failed =
  let values = drop_diverged checks values in
  let dir = ".perfbench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let spans_file = Printf.sprintf "%s/spans-%s-%d.tsv" dir name seed in
  Sp.write w.sp spans_file;
  let untraced, _ = Harness.chunk_mpps base and traced, _ = Harness.chunk_mpps ph in
  let report =
    List.map
      (fun (name, v) ->
        let m = List.find (fun m -> m.Perfbench.Metrics.name = name) Perfbench.Metrics.per_layer in
        Printf.sprintf "  %-36s %14.4f %s" name v m.Perfbench.Metrics.unit_)
      values
    @ List.filter_map
        (fun k ->
          let n = Sp.count w.sp k in
          if n = 0 then None
          else
            Some
              (Printf.sprintf "  span %-22s %10d spans, %12.1f ns mean self time" names.(k) n
                 (Sp.mean_self w.sp k)))
        (List.init (Array.length names) Fun.id)
    @ [
        Printf.sprintf "  span overhead %.1f ns, subtracted from the leaf layers' ns"
          (Lazy.force span_overhead_ns);
        Printf.sprintf
          "  tracing overhead: %.4f Mpps untraced, %.4f Mpps with spans on the datapath \
           side (%+.1f%%); %d traced bursts"
          untraced traced
          (100. *. ((untraced /. traced) -. 1.))
          ph.Harness.bursts;
        Printf.sprintf "  spans of the first %d bursts written to %s" w.sp.Sp.keep spans_file;
      ]
  in
  {
    Harness.values;
    attempted = ph.Harness.offered;
    failed;
    checks;
    report;
  }
