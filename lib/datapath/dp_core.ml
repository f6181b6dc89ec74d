(** The datapath core shared by every flavor: the cache hierarchy, the
    slow-path upcall, and datapath-action execution with recirculation.

    Flavors differ in which caches exist (the kernel module has no
    exact-match cache — Sec 2.1 records its upstream rejection), what each
    step costs, and which CPU-time category the work lands in:

    - [Flavor_userspace]: miniflow extract → EMC → dpcls → upcall; costs
      charged as [User] time (the DPDK and AF_XDP datapaths).
    - [Flavor_kernel]: flow extract → megaflow table → netlink upcall;
      [Softirq] time.
    - [Flavor_kernel_ebpf]: like the kernel, but parse and lookup run as
      interpreted eBPF (the Sec 2.2.2 prototype) with the sandbox's
      per-instruction overhead and no megaflow semantics beneath the hood
      (we keep dpcls mechanics for correctness; costs model hash-map
      chains). *)

module FK = Ovs_packet.Flow_key
module Action = Ovs_ofproto.Action
module Coverage = Ovs_sim.Coverage
module Trace = Ovs_sim.Trace
module Reval = Ovs_revalidator.Revalidator

type flavor = Flavor_userspace | Flavor_kernel | Flavor_kernel_ebpf

type charge_fn = Ovs_sim.Cpu.category -> Ovs_sim.Time.ns -> unit

(* virtual ns spent on the *hits* of each lookup tier — the raw material
   of dpif/cache-hierarchy-show's mean-cycles-per-hit column. All-float,
   so crediting a hit adds in place instead of boxing. *)
type tier_cycles = {
  mutable emc_ns : float;
  mutable smc_ns : float;
  mutable ccache_ns : float;
  mutable dpcls_ns : float;
}

type counters = {
  mutable packets : int;
  mutable passes : int;  (** datapath lookups, incl. recirculations *)
  mutable upcalls : int;
  mutable emc_hits : int;
  mutable smc_hits : int;
  mutable ccache_hits : int;  (** computational-cache (learned tier) hits *)
  mutable dpcls_hits : int;
  mutable dropped : int;
  mutable sent : int;
  cycles : tier_cycles;
}

(* process-global coverage counters, COVERAGE_INC-style *)
let cov_emc_hit = Coverage.counter "dpif_emc_hit"
let cov_smc_hit = Coverage.counter "dpif_smc_hit"
let cov_ccache_hit = Coverage.counter "dpif_ccache_hit"
let cov_masked_hit = Coverage.counter "dpif_masked_hit"
let cov_upcall = Coverage.counter "dpif_upcall"
let cov_upcall_lost = Coverage.counter "dpif_upcall_lost"
let cov_recirc = Coverage.counter "dpif_recirc"
let cov_drop = Coverage.counter "datapath_drop"
let cov_meter_drop = Coverage.counter "dpif_meter_drop"
let cov_decap_drop = Coverage.counter "dpif_tnl_decap_drop"

(** An OpenFlow meter: a token bucket refilled in virtual time. The
    userspace reimplementation of the kernel's policers the paper had to
    leave behind (Sec 6: "we currently use the OpenFlow meter action to
    support rate limiting"). *)
type meter = {
  rate_pps : float;
  burst : float;  (** bucket depth, in packets *)
  mutable tokens : float;
  mutable last_refill : Ovs_sim.Time.ns;
  mutable m_passed : int;
  mutable m_dropped : int;
}

type t = {
  flavor : flavor;
  costs : Ovs_sim.Costs.t;
  mutable pipeline : Ovs_ofproto.Pipeline.t;
      (** the classifier pointer; {!swap_pipeline} is the two-phase
          upgrade's atomic cutover point *)
  emc : Action.odp list Ovs_flow.Emc.t option;
  mutable emc_enabled : bool;  (** ablation switch; upstream rejected the
                                   in-kernel EMC, userspace keeps it *)
  smc : Action.odp list Ovs_flow.Smc.t option;
  mutable smc_enabled : bool;  (** the optional signature-match cache *)
  mutable ccache : Action.odp list Ovs_nmu.Ccache.t option;
      (** the computational cache (learned classifier tier, lib/nmu);
          [None] until first enabled so the disarmed datapath is
          byte-identical to one built before the tier existed *)
  mutable ccache_enabled : bool;
  mutable cc_inserts : int;  (** megaflow installs since the last (re)train *)
  mutable cc_autoretrain : int option;
      (** retrain after this many installs while enabled (churn coupling) *)
  dpcls : Action.odp list Ovs_flow.Dpcls.t;
  mutable conntrack : Ovs_conntrack.Conntrack.t;
  mutable reval : Action.odp list Reval.t option;
      (** the incremental revalidator's megaflow tracker; [None] (the
          default) records nothing, so a datapath that never arms it is
          byte-identical to one built before the subsystem existed *)
  mutable output : charge_fn -> int -> Ovs_packet.Buffer.t -> unit;
      (** bound by the enclosing datapath once ports exist *)
  mutable now : Ovs_sim.Time.ns;
  counters : counters;
  mutable csum_offload : bool;  (** absorb software checksum refreshes *)
  meters : (int, meter) Hashtbl.t;
  mutable controller : (Ovs_packet.Buffer.t -> unit) option;
      (** where the [controller] action punts packets (PACKET_IN) *)
  mutable upcall_hook : (Ovs_packet.Buffer.t -> FK.t -> bool) option;
      (** When set, a full fast-path miss does not translate inline:
          the hook keeps the packet for a slow-path pass later in the
          PMD's step. A [false] return means the upcall failed and the
          packet is lost. *)
  mutable tracer : Trace.t option;
      (** per-stage cycle attribution + packet-walk recorder; [None]
          (the default) keeps the hot path untraced and allocation-free *)
  mutable keys : FK.t array;
      (** flow-key buffers, one per pass in progress ({!next_key}) *)
  mutable depth : int;  (** passes in progress *)
}

let fresh_counters () =
  {
    packets = 0;
    passes = 0;
    upcalls = 0;
    emc_hits = 0;
    smc_hits = 0;
    ccache_hits = 0;
    dpcls_hits = 0;
    dropped = 0;
    sent = 0;
    cycles = { emc_ns = 0.; smc_ns = 0.; ccache_ns = 0.; dpcls_ns = 0. };
  }

let create ~flavor ~costs ~pipeline () =
  let userspace = flavor = Flavor_userspace in
  {
    flavor;
    costs;
    pipeline;
    emc = (if userspace then Some (Ovs_flow.Emc.create ()) else None);
    emc_enabled = true;
    smc = (if userspace then Some (Ovs_flow.Smc.create ()) else None);
    smc_enabled = false;  (* upstream default: other_config:smc-enable=false *)
    ccache = None;
    ccache_enabled = false;
    cc_inserts = 0;
    cc_autoretrain = None;
    dpcls = Ovs_flow.Dpcls.create ();
    conntrack = Ovs_conntrack.Conntrack.create ();
    reval = None;
    output = (fun _ _ _ -> ());
    now = 0.;
    counters = fresh_counters ();
    csum_offload = true;
    meters = Hashtbl.create 8;
    controller = None;
    upcall_hook = None;
    tracer = None;
    keys = Array.init 4 (fun _ -> FK.create ());
    depth = 0;
  }

(* -- accessors over the sealed record -- *)

let conntrack t = t.conntrack

(* Replace the connection table with a sharded one that keeps the zone
   limits. Setup time only: Conntrack.reshard refuses a table with live
   connections. *)
let set_ct_shards t n =
  t.conntrack <- Ovs_conntrack.Conntrack.reshard t.conntrack ~shards:n

(* A translation [log] hook that collects, newest first, the
   rule-dependency set the revalidator indexes megaflows by: per visited
   table, the rule that matched (by id) or the miss. *)
let dep_logger acc table_id rule =
  acc :=
    {
      Reval.dep_table = table_id;
      dep_outcome =
        (match rule with
        | Some ru ->
            Reval.Matched
              { rule = ru.Ovs_ofproto.Table.id;
                priority = ru.Ovs_ofproto.Table.priority }
        | None -> Reval.Missed);
    }
    :: !acc

(* Translate and collect the rule-dependency set. *)
let translate_with_deps t (key : FK.t) =
  let acc = ref [] in
  let r = Ovs_ofproto.Pipeline.translate t.pipeline ~log:(dep_logger acc) key in
  ( r.Ovs_ofproto.Pipeline.odp_actions,
    r.Ovs_ofproto.Pipeline.megaflow_mask,
    List.rev !acc )

let revalidator_enabled t = t.reval <> None
let revalidator_stats t = Option.map Reval.stats t.reval
let revalidator_render t add = Option.iter (fun rv -> Reval.render rv add) t.reval

(* Arm the incremental revalidator. Already-installed megaflows are
   adopted by re-translating them for their dependency sets, so a
   mid-life arm tracks the whole table. Disarming unwatches the tables. *)
let set_revalidator_enabled t v =
  if not v then begin
    Option.iter Reval.close t.reval;
    t.reval <- None
  end
  else
    match t.reval with
    | Some _ -> ()
    | None ->
        let rv = Reval.create ~pipeline:t.pipeline () in
        Ovs_flow.Dpcls.iter t.dpcls (fun ~mask ~key actions _hits ->
            let _, _, deps = translate_with_deps t key in
            Reval.record rv ~mask ~key ~actions deps);
        t.reval <- Some rv

let pipeline t = t.pipeline
let counters t = t.counters
let csum_offload t = t.csum_offload
let set_csum_offload t v = t.csum_offload <- v
let set_emc_enabled t v = t.emc_enabled <- v
let set_smc_enabled t v = t.smc_enabled <- v

let set_ccache_enabled t v =
  t.ccache_enabled <- v;
  if v then
    match t.ccache with
    | None -> t.ccache <- Some (Ovs_nmu.Ccache.create ())
    | Some _ -> ()

let set_ccache_autoretrain t thr = t.cc_autoretrain <- thr

let ccache_last_train t =
  match t.ccache with None -> None | Some cc -> Ovs_nmu.Ccache.last_train cc

let ccache_render t =
  match t.ccache with None -> None | Some cc -> Some (Ovs_nmu.Ccache.render cc)

let dpcls_stats t =
  ( Ovs_flow.Dpcls.subtable_count t.dpcls,
    Ovs_flow.Dpcls.flow_count t.dpcls,
    Ovs_flow.Dpcls.mean_probes t.dpcls )
let set_output t f = t.output <- f
let set_controller t f = t.controller <- Some f
let controller t = t.controller
let set_now t now = t.now <- now
let now t = t.now
let set_upcall_hook t h = t.upcall_hook <- h
let set_tracer t r = t.tracer <- r
let tracer t = t.tracer

(* -- tracing helpers: all no-ops (and allocation-free) when untraced -- *)

let trace_stage t s =
  match t.tracer with Some r -> Trace.set_stage r s | None -> ()

let tracing t = Option.is_some t.tracer

(* The detail thunk is only forced during an active walk. A thunk that
   captures variables is a closure allocation, so hot-path callers guard
   it with [tracing]: untraced, they build nothing. *)
let trace_note t s (detail : unit -> string) =
  match t.tracer with
  | Some r -> if Trace.walking r then Trace.note r s (detail ()) else Trace.set_stage r s
  | None -> ()

(** The names of the fields a megaflow mask constrains — how dump-flows
    and trace renderings describe a megaflow's shape. *)
let masked_fields (mask : FK.t) =
  Array.to_list FK.Field.all
  |> List.filter_map (fun f ->
         if FK.get mask f <> 0 then Some (FK.Field.name f) else None)
  |> String.concat ","

(** Render a ct_state bitmap the ovs way: "+new+trk". *)
let ct_state_string st =
  if st = 0 then "(untracked)"
  else
    let bit b name acc = if st land b <> 0 then acc ^ "+" ^ name else acc in
    ""
    |> bit FK.Ct_state_bits.new_ "new"
    |> bit FK.Ct_state_bits.est "est"
    |> bit FK.Ct_state_bits.rel "rel"
    |> bit FK.Ct_state_bits.rpl "rpl"
    |> bit FK.Ct_state_bits.inv "inv"
    |> bit FK.Ct_state_bits.trk "trk"

let reset_counters t =
  let c = t.counters in
  c.packets <- 0;
  c.passes <- 0;
  c.upcalls <- 0;
  c.emc_hits <- 0;
  c.smc_hits <- 0;
  c.ccache_hits <- 0;
  c.dpcls_hits <- 0;
  c.dropped <- 0;
  c.sent <- 0;
  let cy = c.cycles in
  cy.emc_ns <- 0.;
  cy.smc_ns <- 0.;
  cy.ccache_ns <- 0.;
  cy.dpcls_ns <- 0.

(** Configure a token-bucket meter (the [meter:N] action's target). *)
let set_meter t ~id ~rate_pps ~burst =
  Hashtbl.replace t.meters id
    { rate_pps; burst; tokens = burst; last_refill = 0.; m_passed = 0; m_dropped = 0 }

let meter_stats t ~id =
  match Hashtbl.find_opt t.meters id with
  | Some m -> Some (m.m_passed, m.m_dropped)
  | None -> None

let meter_configs t =
  Hashtbl.fold (fun id m acc -> (id, m.rate_pps, m.burst) :: acc) t.meters []
  |> List.sort compare

(* token-bucket admission at virtual time [t.now] *)
let meter_admits t id =
  match Hashtbl.find_opt t.meters id with
  | None -> true  (* unconfigured meters pass everything, like OVS *)
  | Some m ->
      let elapsed = Float.max 0. (t.now -. m.last_refill) in
      m.last_refill <- t.now;
      m.tokens <- Float.min m.burst (m.tokens +. (m.rate_pps *. elapsed /. 1e9));
      if m.tokens >= 1. then begin
        m.tokens <- m.tokens -. 1.;
        m.m_passed <- m.m_passed + 1;
        true
      end
      else begin
        m.m_dropped <- m.m_dropped + 1;
        Coverage.incr cov_meter_drop;
        false
      end

(* Credit a megaflow entry with the virtual ns of a lookup that hit it. *)
let credit_entry (e : _ Ovs_flow.Dpcls.entry) cost =
  let cy = e.Ovs_flow.Dpcls.cycles in
  cy.Ovs_flow.Dpcls.ns <- cy.Ovs_flow.Dpcls.ns +. cost

(** The CPU category fast-path work lands in for this flavor. *)
let fastpath_category t =
  match t.flavor with
  | Flavor_userspace -> Ovs_sim.Cpu.User
  | Flavor_kernel | Flavor_kernel_ebpf -> Ovs_sim.Cpu.Softirq

(* working sets beyond ~256 flows spill L1/L2; lookups pay a miss *)
let cold_penalty t =
  let working_set =
    match t.emc with
    | Some emc ->
        Int.max (Ovs_flow.Emc.occupancy emc) (Ovs_flow.Dpcls.flow_count t.dpcls)
    | None -> Ovs_flow.Dpcls.flow_count t.dpcls
  in
  if working_set > 256 then t.costs.Ovs_sim.Costs.cache_miss else 0.

let extract_cost t =
  let c = t.costs in
  match t.flavor with
  | Flavor_userspace -> c.Ovs_sim.Costs.miniflow_extract
  | Flavor_kernel -> c.Ovs_sim.Costs.kmod_flow_extract
  | Flavor_kernel_ebpf ->
      (* a parse chain of ~60 interpreted instructions plus hook overhead *)
      c.Ovs_sim.Costs.xdp_prog_overhead
      +. (60. *. c.Ovs_sim.Costs.ebpf_insn)

(* Install [key]'s actions in the microflow caches above the classifier:
   the EMC, and the SMC under the megaflow's [mask]. *)
let fill_caches t key ~mask actions =
  (match t.emc with
  | Some emc when t.emc_enabled -> Ovs_flow.Emc.insert emc key actions
  | Some _ | None -> ());
  match t.smc with
  | Some smc when t.smc_enabled -> Ovs_flow.Smc.insert smc key ~mask actions
  | Some _ | None -> ()

(* The charged cost of one dpcls subtable probe. Inlined, so the float
   is never boxed. *)
let[@inline] dpcls_probe_cost t =
  let c = t.costs in
  (match t.flavor with
  | Flavor_userspace -> c.Ovs_sim.Costs.dpcls_subtable
  | Flavor_kernel -> c.Ovs_sim.Costs.kmod_flow_lookup
  | Flavor_kernel_ebpf ->
      (* hash-map lookup from interpreted code, one per "subtable" *)
      c.Ovs_sim.Costs.ebpf_map_lookup +. (12. *. c.Ovs_sim.Costs.ebpf_insn))
  +. cold_penalty t

(* A megaflow hit after [probes] subtable probes: charge the probes and
   credit them to the entry, count the hit, fill the microflow caches,
   and return the cached actions. *)
let dpcls_hit t (charge : charge_fn) key e probes mf_mask =
  let cost = float_of_int probes *. dpcls_probe_cost t in
  charge (fastpath_category t) cost;
  credit_entry e cost;
  t.counters.dpcls_hits <- t.counters.dpcls_hits + 1;
  t.counters.cycles.dpcls_ns <- t.counters.cycles.dpcls_ns +. cost;
  Coverage.incr cov_masked_hit;
  let actions = e.Ovs_flow.Dpcls.value in
  fill_caches t key ~mask:mf_mask actions;
  actions

(** Look up the cached actions for [key] in the fast-path tiers only
    (EMC → SMC → dpcls), charging the flavor's costs. [None] is a full
    miss: every tier has been probed and charged, and the packet needs
    the slow path. *)
let lookup_cached t (charge : charge_fn) (key : FK.t) : Action.odp list option =
  let c = t.costs in
  let cat = fastpath_category t in
  t.counters.passes <- t.counters.passes + 1;
  let emc_result =
    match t.emc with
    | Some emc when t.emc_enabled -> begin
        trace_stage t Trace.St_emc;
        match Ovs_flow.Emc.lookup emc key with
        | Some actions ->
            let cost = c.Ovs_sim.Costs.emc_hit +. cold_penalty t in
            charge cat cost;
            t.counters.emc_hits <- t.counters.emc_hits + 1;
            t.counters.cycles.emc_ns <- t.counters.cycles.emc_ns +. cost;
            Coverage.incr cov_emc_hit;
            trace_note t Trace.St_emc (fun () -> "hit: exact-match cache");
            Some actions
        | None ->
            charge cat c.Ovs_sim.Costs.emc_miss_probe;
            None
      end
    | Some _ | None -> None
  in
  let smc_result =
    match emc_result with
    | Some _ -> None
    | None -> begin
        match t.smc with
        | Some smc when t.smc_enabled -> begin
            trace_stage t Trace.St_smc;
            match Ovs_flow.Smc.lookup smc key with
            | Some actions ->
                (* signature probe + one masked comparison *)
                let cost =
                  c.Ovs_sim.Costs.emc_hit +. c.Ovs_sim.Costs.emc_miss_probe
                  +. cold_penalty t
                in
                charge cat cost;
                t.counters.smc_hits <- t.counters.smc_hits + 1;
                t.counters.cycles.smc_ns <- t.counters.cycles.smc_ns +. cost;
                Coverage.incr cov_smc_hit;
                trace_note t Trace.St_smc (fun () -> "hit: signature-match cache");
                Some actions
            | None ->
                charge cat c.Ovs_sim.Costs.emc_miss_probe;
                None
          end
        | Some _ | None -> None
      end
  in
  let ccache_result =
    match (emc_result, smc_result) with
    | Some _, _ | _, Some _ -> None
    | None, None -> begin
        match t.ccache with
        | Some cc when t.ccache_enabled && Ovs_nmu.Ccache.trained cc -> begin
            trace_stage t Trace.St_ccache;
            let hit = Ovs_nmu.Ccache.lookup cc key in
            let models, steps, valids = Ovs_nmu.Ccache.last_work cc in
            let work =
              (float_of_int models *. c.Ovs_sim.Costs.ccache_model_eval)
              +. (float_of_int steps *. c.Ovs_sim.Costs.ccache_search_step)
              +. (float_of_int valids *. c.Ovs_sim.Costs.ccache_validate)
            in
            match hit with
            | Some (e, mf_mask) ->
                let cost = work +. cold_penalty t in
                charge cat cost;
                credit_entry e cost;
                t.counters.ccache_hits <- t.counters.ccache_hits + 1;
                t.counters.cycles.ccache_ns <- t.counters.cycles.ccache_ns +. cost;
                Coverage.incr cov_ccache_hit;
                if tracing t then
                  trace_note t Trace.St_ccache (fun () ->
                      Printf.sprintf
                        "hit: computational cache on %s (%d model evals, %d search steps, %d validation%s)"
                        (masked_fields mf_mask) models steps valids
                        (if valids = 1 then "" else "s"));
                let actions = e.Ovs_flow.Dpcls.value in
                fill_caches t key ~mask:mf_mask actions;
                Some actions
            | None ->
                (* indexed nowhere (or validation failed): the model work
                   is still paid, and the lookup falls to the classifier *)
                charge cat work;
                None
          end
        | Some _ | None -> None
      end
  in
  match (emc_result, smc_result, ccache_result) with
  | Some actions, _, _ | _, Some actions, _ | _, _, Some actions -> Some actions
  | None, None, None -> begin
      trace_stage t Trace.St_dpcls;
      match Ovs_flow.Dpcls.lookup_entry t.dpcls key with
      | Some (e, probes, mf_mask) ->
          let actions = dpcls_hit t charge key e probes mf_mask in
          if tracing t then
            trace_note t Trace.St_dpcls (fun () ->
                Printf.sprintf "hit: megaflow on %s (%d subtable probe%s)"
                  (masked_fields mf_mask) probes (if probes = 1 then "" else "s"));
          Some actions
      | None ->
          let probes = Int.max 1 (Ovs_flow.Dpcls.subtable_count t.dpcls) in
          charge cat (float_of_int probes *. dpcls_probe_cost t);
          None
    end

(** (Re)train the computational cache over the currently installed
    megaflows, charging the amortized per-rule training cost as [User]
    time (training runs at install/churn time, never per packet).
    [None] when the cache was never enabled. *)
let ccache_train t (charge : charge_fn) : Ovs_nmu.Ccache.train_stats option =
  match t.ccache with
  | None -> None
  | Some cc ->
      let st = Ovs_nmu.Ccache.train cc t.dpcls in
      t.cc_inserts <- 0;
      charge Ovs_sim.Cpu.User
        (t.costs.Ovs_sim.Costs.ccache_train_per_rule
        *. float_of_int st.Ovs_nmu.Ccache.ts_megaflows);
      Some st

(** Cross-check the computational cache against the classifier on live
    state: a ccache hit must name the very megaflow dpcls would return
    (a ccache miss is never wrong — it falls through to dpcls). Returns
    the number of disagreements; anything nonzero is a bug. *)
let ccache_selfcheck t (keys : FK.t list) : int =
  match t.ccache with
  | None -> 0
  | Some cc ->
      List.fold_left
        (fun bad key ->
          match Ovs_nmu.Ccache.peek cc key with
          | None -> bad
          | Some (e, cmask) -> begin
              match Ovs_flow.Dpcls.peek t.dpcls key with
              | Some (dv, dmask)
                when FK.equal cmask dmask && e.Ovs_flow.Dpcls.value == dv ->
                  bad
              | Some _ | None -> bad + 1
            end)
        0 keys

(** The slow path: upcall into ovs-vswitchd / ofproto translation, and
    install the resulting megaflow (plus microflow-cache entries). *)
let slowpath t (charge : charge_fn) (key : FK.t) : Action.odp list =
  let c = t.costs in
  let cat = fastpath_category t in
  t.counters.upcalls <- t.counters.upcalls + 1;
  Coverage.incr cov_upcall;
  let upcall_cost =
    match t.flavor with
    | Flavor_userspace -> c.Ovs_sim.Costs.upcall
    | Flavor_kernel | Flavor_kernel_ebpf -> c.Ovs_sim.Costs.netlink_upcall
  in
  if tracing t then
    trace_note t Trace.St_upcall (fun () ->
        match t.flavor with
        | Flavor_userspace -> "miss in every fast-path tier: translating via ofproto"
        | Flavor_kernel | Flavor_kernel_ebpf ->
            "megaflow miss: netlink upcall to ovs-vswitchd");
  let log =
    match t.tracer with
    | Some r when Trace.walking r ->
        Some
          (fun table_id rule ->
            match rule with
            | Some ru ->
                Trace.note r Trace.St_upcall
                  (Fmt.str "table %d: rule %d, priority %d, cookie 0x%x, actions: %a"
                     table_id ru.Ovs_ofproto.Table.id ru.Ovs_ofproto.Table.priority
                     ru.Ovs_ofproto.Table.cookie
                     Fmt.(list ~sep:(any ",") Action.pp)
                     ru.Ovs_ofproto.Table.value)
            | None ->
                Trace.note r Trace.St_upcall
                  (Printf.sprintf "table %d: no match (table miss: drop)" table_id))
    | Some _ | None -> None
  in
  (* when the incremental revalidator is armed, the same translation
     also collects the rule-dependency set it indexes this megaflow by *)
  let deps = ref [] in
  let log =
    match (t.reval, log) with
    | None, _ -> log
    | Some _, None -> Some (dep_logger deps)
    | Some _, Some f ->
        Some
          (fun table_id rule ->
            f table_id rule;
            dep_logger deps table_id rule)
  in
  let result = Ovs_ofproto.Pipeline.translate t.pipeline ?log key in
  charge Ovs_sim.Cpu.User
    (upcall_cost
    +. (float_of_int result.Ovs_ofproto.Pipeline.tables_visited
       *. c.Ovs_sim.Costs.ofproto_table_lookup));
  let actions = result.Ovs_ofproto.Pipeline.odp_actions in
  if tracing t then
    trace_note t Trace.St_install (fun () ->
        Fmt.str "install megaflow on %s, actions: %a"
          (masked_fields result.Ovs_ofproto.Pipeline.megaflow_mask)
          Fmt.(list ~sep:(any ",") Action.pp_odp)
          actions);
  Ovs_flow.Dpcls.insert t.dpcls
    ~mask:result.Ovs_ofproto.Pipeline.megaflow_mask ~key actions;
  (match t.reval with
  | Some rv ->
      Reval.record rv ~mask:result.Ovs_ofproto.Pipeline.megaflow_mask ~key ~actions
        (List.rev !deps)
  | None -> ());
  charge cat c.Ovs_sim.Costs.megaflow_insert;
  (* a fresh megaflow is safe for a trained ccache (an unindexed flow just
     misses through to dpcls), but count it toward the retrain trigger *)
  (match t.ccache with
  | Some _ when t.ccache_enabled -> begin
      t.cc_inserts <- t.cc_inserts + 1;
      match t.cc_autoretrain with
      | Some thr when t.cc_inserts >= thr -> ignore (ccache_train t charge)
      | Some _ | None -> ()
    end
  | Some _ | None -> ());
  fill_caches t key ~mask:result.Ovs_ofproto.Pipeline.megaflow_mask actions;
  actions

let action_cost t =
  let c = t.costs in
  match t.flavor with
  | Flavor_userspace -> c.Ovs_sim.Costs.action_exec
  | Flavor_kernel -> c.Ovs_sim.Costs.kmod_action
  | Flavor_kernel_ebpf -> c.Ovs_sim.Costs.action_exec +. (8. *. c.Ovs_sim.Costs.ebpf_insn)

let action_stage : Action.odp -> Trace.stage = function
  | Action.Odp_tnl_push _ -> Trace.St_encap
  | Action.Odp_tnl_pop _ -> Trace.St_decap
  | Action.Odp_ct _ -> Trace.St_conntrack
  | Action.Odp_output _ -> Trace.St_tx
  | _ -> Trace.St_action

(* The key buffer the next pass extracts into: one per pass in progress,
   so a recirculation (or a packet injected while a pass runs) never
   overwrites the key of the pass that started it. *)
let next_key t =
  if t.depth = Array.length t.keys then
    t.keys <- Array.append t.keys (Array.init (Array.length t.keys) (fun _ -> FK.create ()));
  t.keys.(t.depth)

(** Execute datapath actions over the packet, recirculating as needed.
    This is odp-execute: real byte rewrites, real tunnel push/pop, real
    conntrack. *)
let rec execute t (charge : charge_fn) (pkt : Ovs_packet.Buffer.t) (key : FK.t)
    (actions : Action.odp list) =
  match actions with
  | [] -> ()
  | act :: rest -> if execute_action t charge pkt key act then execute t charge pkt key rest

(* One action; [false] stops the list (a meter that refused the packet). *)
and execute_action t charge pkt key act =
  let c = t.costs in
  let cat = fastpath_category t in
  if tracing t then trace_note t (action_stage act) (fun () -> Fmt.str "%a" Action.pp_odp act);
  charge cat (action_cost t);
  match act with
  | Action.Odp_output port ->
      t.counters.sent <- t.counters.sent + 1;
      t.output charge port pkt;
      true
  | Action.Odp_drop ->
      t.counters.dropped <- t.counters.dropped + 1;
      Coverage.incr cov_drop;
      true
  | Action.Odp_set (f, v) ->
      (* a rewrite the NIC cannot absorb refreshes the checksums in software *)
      if Set_field.apply pkt key f v && not t.csum_offload then
        charge cat (Ovs_sim.Costs.csum c ~bytes:(Ovs_packet.Buffer.length pkt));
      true
  | Action.Odp_push_vlan tci ->
      Ovs_packet.Ethernet.push_vlan pkt ~tci;
      FK.set key FK.Field.Vlan_tci (tci lor 0x1000);
      true
  | Action.Odp_pop_vlan ->
      Ovs_packet.Ethernet.pop_vlan pkt;
      FK.set key FK.Field.Vlan_tci 0;
      true
  | Action.Odp_tnl_push ts ->
      pkt.Ovs_packet.Buffer.rss_hash <- FK.rss_hash key;
      Ovs_packet.Tunnel.encap pkt ts.Action.tnl_kind
        ~fill_csum:(not t.csum_offload) ~vni:ts.Action.vni
        ~src_mac:ts.Action.local_mac ~dst_mac:ts.Action.remote_mac
        ~src_ip:ts.Action.local_ip ~dst_ip:ts.Action.remote_ip ();
      charge cat
        (if t.csum_offload then 0.
         else Ovs_sim.Costs.csum c ~bytes:(Ovs_packet.Buffer.length pkt));
      t.counters.sent <- t.counters.sent + 1;
      trace_stage t Trace.St_tx;
      t.output charge ts.Action.out_port pkt;
      true
  | Action.Odp_tnl_pop resume ->
      (match Ovs_packet.Tunnel.decap pkt with
      | Some _ ->
          pkt.Ovs_packet.Buffer.recirc_id <- resume;
          recirculate t charge pkt
      | None ->
          t.counters.dropped <- t.counters.dropped + 1;
          Coverage.incr cov_decap_drop);
      true
  | Action.Odp_ct { zone; commit; nat; resume_table } ->
      let ct = t.conntrack in
      let verdict = Ovs_conntrack.Conntrack.track ~buf:pkt ct ~now:t.now ~zone key in
      let conn =
        if commit && verdict.Ovs_conntrack.Conntrack.conn = None then begin
          let nat' =
            match nat with
            | None -> None
            | Some { Action.snat; dnat } ->
                Some { Ovs_conntrack.Conntrack.nat_src = snat; nat_dst = dnat }
          in
          Ovs_conntrack.Conntrack.commit ct ~now:t.now ~zone ?nat:nat' key
        end
        else verdict.Ovs_conntrack.Conntrack.conn
      in
      let ct_state =
        match (verdict.Ovs_conntrack.Conntrack.conn, conn, commit) with
        | None, Some _, true ->
            (* freshly committed: +new+trk *)
            verdict.Ovs_conntrack.Conntrack.ct_state
        | None, None, true ->
            (* zone limit hit: drop *)
            FK.Ct_state_bits.inv lor FK.Ct_state_bits.trk
        | _ -> verdict.Ovs_conntrack.Conntrack.ct_state
      in
      (match conn with
      | Some conn_ ->
          let is_reply = ct_state land FK.Ct_state_bits.rpl <> 0 in
          ignore (Ovs_conntrack.Conntrack.apply_nat conn_ ~is_reply pkt key)
      | None -> ());
      pkt.Ovs_packet.Buffer.ct_state <- ct_state;
      pkt.Ovs_packet.Buffer.ct_zone <- zone;
      FK.set key FK.Field.Ct_state ct_state;
      FK.set key FK.Field.Ct_zone zone;
      if tracing t then
        trace_note t Trace.St_conntrack (fun () ->
            Printf.sprintf "conntrack: zone %d, ct_state=%s%s" zone
              (ct_state_string ct_state)
              (if commit then " (committed)" else ""));
      if resume_table >= 0 then begin
        pkt.Ovs_packet.Buffer.recirc_id <- resume_table;
        recirculate t charge pkt
      end;
      true
  | Action.Odp_meter id ->
      (* the token bucket decides: over-rate packets die here and the
         remaining actions never run (OpenFlow meter semantics) *)
      meter_admits t id
      || begin
           t.counters.dropped <- t.counters.dropped + 1;
           false
         end
  | Action.Odp_userspace ->
      (* punt to the controller: a PACKET_IN plus the slow-path cost *)
      charge Ovs_sim.Cpu.User c.Ovs_sim.Costs.upcall;
      (match t.controller with Some f -> f pkt | None -> ());
      true

(** A recirculation: re-extract (the packet changed or gained ct state) and
    run another datapath pass — this is why the NSX pipeline costs three
    lookups per packet (Sec 5.1). *)
and recirculate t charge pkt =
  Coverage.incr cov_recirc;
  do_pass ~extracted:false t charge pkt

(** One datapath pass: extract, look up, execute — deferring to the upcall
    hook (when installed) on a full miss instead of translating inline.
    With [~extracted:true] the key is already in {!next_key} (the rx path
    extracted it for the software RSS hash): the extraction is charged
    but not repeated. *)
and do_pass ~extracted t (charge : charge_fn) (pkt : Ovs_packet.Buffer.t) =
  trace_stage t Trace.St_extract;
  charge (fastpath_category t) (extract_cost t);
  let key = next_key t in
  if not extracted then FK.extract_into key pkt;
  if tracing t then trace_note t Trace.St_extract (fun () -> Fmt.str "%a" FK.pp key);
  t.depth <- t.depth + 1;
  match lookup_and_execute t charge pkt key with
  | () -> t.depth <- t.depth - 1
  | exception e ->
      t.depth <- t.depth - 1;
      raise e

and lookup_and_execute t charge pkt key =
  match lookup_cached t charge key with
  | Some actions -> execute t charge pkt key actions
  | None -> begin
      match t.upcall_hook with
      | Some hook ->
          (* the hook queues the key past this pass: it gets its own copy *)
          if not (hook pkt (FK.copy key)) then begin
            (* a failed upcall: the packet is lost, exactly like the
               kernel datapath's "lost" netlink upcalls *)
            t.counters.dropped <- t.counters.dropped + 1;
            Coverage.incr cov_upcall_lost
          end
      | None ->
          let actions = slowpath t charge key in
          execute t charge pkt key actions
    end

(** Extract [pkt]'s key into the buffer the next pass uses, and return
    it: the rx path hashes it for the software RSS hash, then hands the
    packet to {!process_extracted} so the first pass does not extract
    again. *)
let extract_key t pkt =
  let key = next_key t in
  FK.extract_into key pkt;
  key

let process_pass ~extracted t (charge : charge_fn) (pkt : Ovs_packet.Buffer.t) =
  t.counters.packets <- t.counters.packets + 1;
  match t.tracer with
  | None -> do_pass ~extracted t charge pkt
  | Some r ->
      Trace.packet_begin r;
      do_pass ~extracted t
        (fun cat ns ->
          Trace.on_charge r ns;
          charge cat ns)
        pkt;
      Trace.packet_end r

(** Full per-packet fast path: extract, look up, execute. When a tracer is
    installed, the pass runs inside a packet bracket with the charge_fn
    wrapped exactly once — per-stage attribution therefore sums to the
    end-to-end charged total by construction. Callers must hand [process]
    an *unwrapped* charge_fn. *)
let process t charge pkt = process_pass ~extracted:false t charge pkt

(** {!process} for a packet whose key {!extract_key} has just extracted. *)
let process_extracted t charge pkt = process_pass ~extracted:true t charge pkt

(** Run one deferred upcall to completion: translate, install the megaflow,
    and execute the resulting actions over the queued packet. This is what
    runs a PMD step's misses through the shared slow path. *)
let handle_upcall t (charge : charge_fn) (pkt : Ovs_packet.Buffer.t) (key : FK.t) =
  let run (charge : charge_fn) =
    let actions =
      (* another queued upcall of the same flow may have installed the
         megaflow already; re-probing first mirrors dpif-netdev's
         handle_packet_upcall re-lookup — and a re-probe hit counts as a
         megaflow hit like any other, keeping hits + misses = packets *)
      trace_stage t Trace.St_dpcls;
      match Ovs_flow.Dpcls.lookup_entry t.dpcls key with
      | Some (e, probes, mf_mask) -> dpcls_hit t charge key e probes mf_mask
      | None -> slowpath t charge key
    in
    execute t charge pkt key actions
  in
  (* a deferred upcall is its own packet bracket: its stages histogram
     separately from the fast-path probe that queued it *)
  match t.tracer with
  | None -> run charge
  | Some r ->
      Trace.packet_begin r;
      run (fun cat ns ->
          Trace.on_charge r ns;
          charge cat ns);
      Trace.packet_end r

(** Drop all cached flows (OpenFlow rule changes invalidate megaflows).
    The computational cache is invalidated first: its models reference the
    entries about to be dropped. *)
let flush_caches t =
  (match t.ccache with Some cc -> Ovs_nmu.Ccache.invalidate cc | None -> ());
  (match t.emc with Some emc -> Ovs_flow.Emc.flush emc | None -> ());
  (match t.smc with Some smc -> Ovs_flow.Smc.flush smc | None -> ());
  Ovs_flow.Dpcls.flush t.dpcls;
  match t.reval with Some rv -> Reval.clear rv | None -> ()

(** Render the installed megaflows in ovs-appctl dpctl/dump-flows style:
    the fast-path view (masked match, hit count, cached actions). *)
let dump_megaflows t : string list =
  let out = ref [] in
  Ovs_flow.Dpcls.iter_entries t.dpcls (fun ~mask e ->
      out :=
        Fmt.str "%a, packets:%d, cycles:%.0f, actions:%a" Ovs_ofproto.Match_.pp
          { Ovs_ofproto.Match_.key = e.Ovs_flow.Dpcls.key; mask }
          e.Ovs_flow.Dpcls.hits e.Ovs_flow.Dpcls.cycles.Ovs_flow.Dpcls.ns
          Fmt.(list ~sep:(any ",") Action.pp_odp)
          e.Ovs_flow.Dpcls.value
        :: !out);
  List.rev !out

(** Revalidation: what OVS's revalidator threads do — walk the installed
    megaflows, re-translate each through the current OpenFlow tables, and
    evict entries whose cached actions no longer match the policy. Returns
    the number of megaflows evicted. The microflow caches are flushed when
    anything was stale (they reference the same cached actions). *)
(* The full-scan staleness computation, without evicting: the list of
   (mask, key) whose re-translation disagrees with the installed entry.
   This is both [revalidate]'s work list and the oracle the incremental
   sweep is checked against. *)
let revalidate_dry t =
  let stale = ref [] in
  Ovs_flow.Dpcls.iter t.dpcls (fun ~mask ~key actions _hits ->
      let fresh = Ovs_ofproto.Pipeline.translate t.pipeline key in
      (* stale when the policy now produces different actions, or when the
         megaflow's wildcards are wrong for the new rule set (a rule added
         to a previously-unprobed subtable narrows the required mask) *)
      if
        fresh.Ovs_ofproto.Pipeline.odp_actions <> actions
        || not (FK.equal fresh.Ovs_ofproto.Pipeline.megaflow_mask mask)
      then stale := (FK.copy mask, FK.copy key) :: !stale);
  !stale

(* Evict a batch of megaflows and keep every dependent cache honest.
   The staleness rule: the computational cache must be invalidated
   BEFORE any megaflow is removed — its models hold direct entry refs. *)
let evict_megaflows t stale =
  if stale <> [] then begin
    (match t.ccache with Some cc -> Ovs_nmu.Ccache.invalidate cc | None -> ());
    List.iter
      (fun (mask, key) ->
        ignore (Ovs_flow.Dpcls.remove t.dpcls ~mask ~key);
        match t.reval with Some rv -> Reval.forget rv ~mask ~key | None -> ())
      stale;
    (match t.emc with Some emc -> Ovs_flow.Emc.flush emc | None -> ());
    match t.smc with Some smc -> Ovs_flow.Smc.flush smc | None -> ()
  end

let revalidate t =
  let stale = revalidate_dry t in
  evict_megaflows t stale;
  List.length stale

(** The incremental pass: read the OpenFlow tables' rule journals,
    re-translate only the megaflows whose recorded dependencies are
    affected, and evict the ones that changed. [None] when the
    revalidator is not armed. *)
let incremental_sweep t rv : Reval.sweep_stats * (FK.t * FK.t) list =
  let evicted = ref [] in
  let stats =
    Reval.sweep rv
      ~translate:(fun key -> translate_with_deps t key)
      ~evict:(fun ~mask ~key ->
        evicted := (FK.copy mask, FK.copy key) :: !evicted)
  in
  (* mirror the eviction into dpcls and the packet caches; the sweep
     has already dropped these entries, so forgetting them is a no-op *)
  evict_megaflows t !evicted;
  (stats, !evicted)

let revalidate_incremental t : Reval.sweep_stats option =
  match t.reval with
  | None -> None
  | Some rv -> Some (fst (incremental_sweep t rv))

(* Canonical identity of a megaflow for set comparison. *)
let mf_ids l =
  List.map (fun (mask, key) -> (mask, FK.apply_mask key mask)) l
  |> List.sort compare

(** Run the flush-all oracle and the incremental sweep on the same
    state and prove they agree: returns [(full_stale, incr_evicted,
    divergences)] where divergences is the size of the symmetric
    difference between the two eviction sets (must be 0). The
    incremental sweep's evictions are applied; the oracle is computed
    first, without mutating. *)
let revalidate_check t : int * int * int =
  let oracle = revalidate_dry t in
  let evicted =
    match t.reval with
    | None -> []  (* not armed: nothing evicts, every stale flow diverges *)
    | Some rv -> snd (incremental_sweep t rv)
  in
  let a = mf_ids oracle and b = mf_ids evicted in
  let diff x y = List.length (List.filter (fun e -> not (List.mem e y)) x) in
  (List.length oracle, List.length evicted, diff a b + diff b a)

(** The two-phase upgrade's cutover: atomically replace the classifier
    pointer with a fully-populated shadow pipeline, then revalidate the
    megaflow cache against the new tables. Between the pointer store and
    the revalidation every lookup is still consistent — cached megaflows
    keep forwarding with the old actions, and misses translate against
    the complete new table set — so no packet ever sees a half-built
    classifier (the naive path's loss window). The armed revalidator
    watches the old pipeline's tables and indexes its rule ids, so it is
    rebuilt: disarm (unwatching the old tables), full revalidate,
    re-adopt the survivors under a tracker that watches the new tables.
    Returns the number of stale megaflows evicted (the cutover's
    upcall-storm size). *)
let swap_pipeline t new_pipeline =
  let was_armed = t.reval <> None in
  set_revalidator_enabled t false;
  t.pipeline <- new_pipeline;
  let evicted = revalidate t in
  if was_armed then set_revalidator_enabled t true;
  evicted
