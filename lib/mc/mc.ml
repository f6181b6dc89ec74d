(** Bounded deterministic schedule explorer — see mc.mli for the model.

    Implementation notes. The explored object is a {!Scenario} rig (the
    same one the chaos bench drives): an AF_XDP datapath with 2 rxqs
    sharded over 2 PMDs, a tracer attached and a shrunken umem so a
    fresh model costs ~1ms to build. Exploration is
    stateless-model-checking style: schedules are byte strings of thread
    ids, and every schedule re-executes against a fresh model, which is
    also exactly what makes violations replayable. Oracles run after
    every step in a fixed order so a violating (mode, schedule) pair
    always names the same oracle at the same step index. *)

module Cpu = Ovs_sim.Cpu
module Time = Ovs_sim.Time
module Prng = Ovs_sim.Prng
module Trace = Ovs_sim.Trace
module Netdev = Ovs_netdev.Netdev
module Ring = Ovs_xsk.Ring
module Umem = Ovs_xsk.Umem
module Umempool = Ovs_xsk.Umempool
module Xsk = Ovs_xsk.Xsk
module Audit = Ovs_xsk.Audit
module Dpif = Ovs_datapath.Dpif
module Engine = Ovs_datapath.Engine
module Pmd = Ovs_datapath.Pmd
module Health = Ovs_datapath.Health
module Faults = Ovs_faults.Faults
module Scenario = Ovs_trafficgen.Scenario
module Pktgen = Ovs_trafficgen.Pktgen

(* -- bounds, threads, scripts -- *)

type mode = Tiny | Small | Large

let mode_name = function Tiny -> "tiny" | Small -> "small" | Large -> "large"

let mode_of_name = function
  | "tiny" -> Some Tiny
  | "small" -> Some Small
  | "large" -> Some Large
  | _ -> None

(** One schedulable action of the concurrency model. PMD ids double as
    queue owners: round-robin sharding assigns queue [q] to PMD [q]. *)
type step =
  | S_poll of int * int
      (** (pmd, queue): one rx burst and its upcalls, {!Pmd.poll_rxq} *)
  | S_fault_tick  (** advance the fault clock one quantum *)
  | S_health  (** one health-monitor sweep *)
  | S_reclaim  (** umempool leak reclaim *)
  | S_crash_sweep  (** apply pending crash faults *)

let step_name = function
  | S_poll (p, q) -> Printf.sprintf "poll(pmd%d,q%d)" p q
  | S_fault_tick -> "fault-tick"
  | S_health -> "health-check"
  | S_reclaim -> "umem-reclaim"
  | S_crash_sweep -> "crash-sweep"

let scripts_of mode : (string * step array) array =
  match mode with
  | Tiny ->
      [|
        ("pmd0", [| S_poll (0, 0) |]);
        ("pmd1", [| S_poll (1, 1) |]);
        ("fault", [| S_fault_tick; S_fault_tick |]);
        ("health", [| S_health |]);
      |]
  | Small ->
      [|
        ("pmd0", [| S_poll (0, 0) |]);
        ("pmd1", [| S_poll (1, 1) |]);
        ("fault", [| S_fault_tick; S_fault_tick |]);
        ("health", [| S_health |]);
        ("reclaim", [| S_reclaim |]);
      |]
  | Large ->
      [|
        ("pmd0", [| S_poll (0, 0); S_poll (0, 0) |]);
        ("pmd1", [| S_poll (1, 1); S_poll (1, 1) |]);
        ( "fault",
          [| S_fault_tick; S_fault_tick; S_fault_tick; S_fault_tick;
             S_fault_tick |] );
        ("health", [| S_health; S_health; S_health |]);
        ("reclaim", [| S_reclaim; S_reclaim |]);
        ("crash", [| S_crash_sweep; S_crash_sweep |]);
      |]

let total_steps mode =
  Array.fold_left (fun a (_, s) -> a + Array.length s) 0 (scripts_of mode)

(* -- mutations -- *)

type mutation =
  | M_double_grant
  | M_second_claim
  | M_leak_frame
  | M_lose_packet
  | M_ring_rewind
  | M_untraced_charge

let mutations =
  [
    ("double_grant", M_double_grant);
    ("second_claim", M_second_claim);
    ("leak_frame", M_leak_frame);
    ("lose_packet", M_lose_packet);
    ("ring_rewind", M_ring_rewind);
    ("untraced_charge", M_untraced_charge);
  ]

let mutation_name m = fst (List.find (fun (_, m') -> m' = m) mutations)

(* -- oracles -- *)

type oracle = O_ring | O_frames | O_packets | O_trace

let oracle_name = function
  | O_ring -> "ring-sanity"
  | O_frames -> "frame-conservation"
  | O_packets -> "packet-conservation"
  | O_trace -> "trace-accounting"

type violation = {
  v_step : int;
  v_thread : int;
  v_oracle : oracle;
  v_detail : string;
}

let pp_violation ppf v =
  Fmt.pf ppf "step %d (thread %d): %s: %s" v.v_step v.v_thread
    (oracle_name v.v_oracle) v.v_detail

type schedule = int array

(* -- the model -- *)

(* Shrunken scale so a fresh model per schedule stays ~1ms: 128 umem
   frames per queue (fill target 64). *)
let frames_per_queue = 128

type port_view = {
  pv_pool : Umempool.t;
  pv_umem : Umem.t;
  pv_xsks : Xsk.t array;
  pv_census : Audit.census;  (** the frame oracle's view of this port *)
}

type model = {
  rig : Scenario.rig;
  rt : Pmd.t;  (** the rig engine's PMD runtime: steps and introspection *)
  health : Health.t;
  by_id : (int * Pmd.pmd) list;  (** pmd id -> runtime pmd *)
  ports : port_view array;  (** p0 first *)
  rings : Audit.tracked array;
  scripts : step array array;
  pcs : int array;
  mutable now : Time.ns;  (** the fault/health virtual clock *)
  quantum : Time.ns;
  ledger : Scenario.Ledger.t;  (** the packet-conservation books *)
  mut : mutation option;
}

let fault_plan mode =
  let f name action start stop =
    {
      Faults.f_name = name;
      f_action = action;
      f_start = start;
      f_stop = stop;
    }
  in
  let base =
    [
      f "leak" (Faults.Umem_leak { frames = 32 }) (Time.us 50.) (Time.us 150.);
      f "storm" Faults.Upcall_storm (Time.us 150.) (Time.us 1000.);
    ]
  in
  let faults =
    match mode with
    | Tiny | Small -> base
    | Large ->
        base
        @ [ f "crash" (Faults.Pmd_crash { pmd = 0 }) (Time.us 250.) (Time.us 600.) ]
  in
  Faults.plan ~name:("mc-" ^ mode_name mode) ~seed:7 faults

(** Build a fresh model and arm its fault plan. The caller must
    [Faults.disarm] when done (the plan is process-global). *)
let build ?mutation mode =
  let opts = { Dpif.afxdp_default with Dpif.frames_per_queue } in
  let cfg =
    Scenario.config ~kind:(Dpif.Afxdp opts) ~n_flows:8 ~queues:2 ~n_pmds:2
      ~trace:true ()
  in
  let rig = Scenario.setup cfg in
  let rt =
    match Ovs_datapath.Engine_vt.runtime rig.Scenario.r_eng with
    | Some rt -> rt
    | None -> failwith "Mc.build: no PMD runtime"
  in
  let health = Health.create ~dp:rig.Scenario.r_dp ~rt () in
  Faults.arm (fault_plan mode);
  (* preload the traffic the schedule will churn through, into the
     rig's ledger (NIC-counted drops are offered); nothing polls yet *)
  let ledger = Scenario.Ledger.open_ rig "mc" in
  let n_preload = match mode with Large -> 32 | Tiny | Small -> 16 in
  for _ = 1 to n_preload do
    Scenario.Ledger.offer ledger rig (Pktgen.next rig.Scenario.r_gen)
  done;
  let view label port_no =
    match
      ( Dpif.umem_pool rig.Scenario.r_dp ~port_no,
        Dpif.xsks rig.Scenario.r_dp ~port_no )
    with
    | Some pool, Some xsks ->
        {
          pv_pool = pool;
          pv_umem = xsks.(0).Xsk.umem;
          pv_xsks = xsks;
          pv_census = Audit.census ~label pool (Audit.xsk_rings xsks);
        }
    | _ -> failwith "Mc.build: port has no XSK attach"
  in
  let ports = [| view "p0" rig.Scenario.r_p0; view "p1" rig.Scenario.r_p1 |] in
  let rings =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i pv ->
              let track label r =
                Audit.track (Printf.sprintf "p%d.%s" i label) r
              in
              track "fill" pv.pv_umem.Umem.fill
              :: track "comp" pv.pv_umem.Umem.completion
              :: List.concat
                   (List.mapi
                      (fun q (x : Xsk.t) ->
                        [
                          track (Printf.sprintf "q%d.rx" q) x.Xsk.rx;
                          track (Printf.sprintf "q%d.tx" q) x.Xsk.tx;
                        ])
                      (Array.to_list pv.pv_xsks)))
            (Array.to_list ports)))
  in
  let scripts = Array.map snd (scripts_of mode) in
  {
    rig;
    rt;
    health;
    by_id = List.map (fun p -> (Pmd.pmd_id p, p)) (Pmd.pmds rt);
    ports;
    rings;
    scripts;
    pcs = Array.make (Array.length scripts) 0;
    now = 0.;
    quantum = Time.us 100.;
    ledger;
    mut = mutation;
  }

let pmd_of m id = List.assoc id m.by_id

let rxq_of pmd q =
  List.find (fun r -> r.Pmd.rxq_queue = q) (Pmd.rxqs_of pmd)

(* the chaos runner's fault tick, one quantum of the injector clock on *)
let fault_tick m =
  m.now <- m.now +. m.quantum;
  Scenario.fault_tick m.rig ~now:m.now

(* -- mutations: flip one guarded invariant, conditioned on schedule
   state so the explorer has to find the interleaving that exposes it -- *)

let apply_mutation m step =
  match m.mut with
  | None -> ()
  | Some mu -> (
      let pv0 = m.ports.(0) in
      match (mu, step) with
      | M_double_grant, S_poll _ when Faults.upcall_storm () ->
          (* grant a frame that is still posted on the fill ring *)
          let fill = pv0.pv_umem.Umem.fill in
          if Ring.available fill > 0 then
            let d = Ring.peek fill 0 in
            Umempool.put pv0.pv_pool d.Ring.addr
      | M_second_claim, S_health ->
          (* a second thread claims queue 0's SPSC rings *)
          let assigned =
            List.fold_left
              (fun acc (_, q, p) -> if q = 0 then p else acc)
              0 (Pmd.assignment m.rt)
          in
          Xsk.set_owner pv0.pv_xsks.(0) ~pmd:(assigned + 1)
      | M_leak_frame, S_poll _ when Faults.upcall_storm () ->
          (* a frame vanishes outside the accounted leak quarantine *)
          ignore (Umempool.get pv0.pv_pool : int option)
      | M_lose_packet, S_poll _ ->
          (* an offered packet is discarded with no drop counter *)
          let phy0 = m.rig.Scenario.r_phy0 in
          let rec steal q =
            if q < m.rig.Scenario.r_queues then
              match Netdev.dequeue phy0 ~queue:q ~max:1 with
              | [] -> steal (q + 1)
              | _ :: _ -> ()
          in
          steal 0
      | M_ring_rewind, S_health ->
          (* the rx consumer index moves backwards while the ring is
             otherwise quiet *)
          let rx = pv0.pv_xsks.(0).Xsk.rx in
          if Ring.cons_idx rx > 0 then Ring.corrupt_rewind_cons rx
      | M_untraced_charge, S_poll (p, _) ->
          (* PMD-side work the stage tracer never sees *)
          Cpu.charge (Pmd.pmd_ctx (pmd_of m p)) Cpu.User 500.
      | _ -> ())

(** Execute thread [tid]'s next step (no-op when its script is exhausted
    or [tid] is out of range — schedules stay replayable verbatim). *)
let exec_step m tid =
  if tid >= 0 && tid < Array.length m.scripts then begin
    let script = m.scripts.(tid) in
    let pc = m.pcs.(tid) in
    if pc < Array.length script then begin
      m.pcs.(tid) <- pc + 1;
      let step = script.(pc) in
      (match step with
      | S_poll (p, q) ->
          let pmd = pmd_of m p in
          ignore (Pmd.poll_rxq m.rt pmd (rxq_of pmd q) : int)
      | S_fault_tick -> fault_tick m
      | S_health -> ignore (Health.check m.health ~now:m.now : int)
      | S_reclaim ->
          Array.iter
            (fun pv -> ignore (Umempool.reclaim_leaked pv.pv_pool : int))
            m.ports
      | S_crash_sweep -> Pmd.handle_crashes m.rt);
      apply_mutation m step
    end
  end

(* -- oracles, checked in a fixed order after every step -- *)

exception Violated of oracle * string

let fail o fmt = Printf.ksprintf (fun s -> raise (Violated (o, s))) fmt

(* SPSC index monotonicity plus single-claimant XSK ownership. *)
let check_rings m =
  Array.iter (Audit.check_ring (fun s -> raise (Violated (O_ring, s)))) m.rings;
  List.iter
    (fun (_, q, pmd) ->
      let owner = Xsk.owner m.ports.(0).pv_xsks.(q) in
      if owner <> -1 && owner <> pmd then
        fail O_ring "xsk q%d claimed by pmd %d but assigned to pmd %d" q owner
          pmd)
    (Pmd.assignment m.rt)

(* Every umem frame has exactly one owner: pool free stack, leak
   quarantine, or one of the fill/completion/rx/tx rings. *)
let check_frames m =
  Array.iter
    (fun pv ->
      Audit.check_frames (fun s -> raise (Violated (O_frames, s))) pv.pv_census)
    m.ports

(* Chaos-rig packet conservation: offered = delivered + drops + in flight
   after every step, on the rig's ledger. *)
let check_packets m =
  let books = Scenario.Ledger.diff m.ledger m.rig in
  if Engine.unaccounted books <> 0 then
    fail O_packets "%s" (Engine.render books)

(* Per-stage cycle sums reproduce the charged busy total. *)
let check_trace m =
  match Dpif.tracer m.rig.Scenario.r_dp with
  | None -> ()
  | Some tr ->
      let busy =
        List.fold_left
          (fun a c -> a +. Cpu.busy c)
          0. m.rig.Scenario.r_machine.Cpu.ctxs
      in
      let traced = Trace.total tr in
      if Float.abs (traced -. busy) > 1.0 then
        fail O_trace "stage sum %.1f ns <> charged busy %.1f ns" traced busy

let check_oracles m =
  try
    check_rings m;
    check_frames m;
    check_packets m;
    check_trace m;
    None
  with Violated (o, detail) -> Some (o, detail)

(* -- executing one schedule -- *)

let run_schedule ?mutation mode (sched : schedule) =
  let m = build ?mutation mode in
  Fun.protect ~finally:Faults.disarm (fun () ->
      let viol = ref None in
      (try
         Array.iteri
           (fun i tid ->
             exec_step m tid;
             match check_oracles m with
             | Some (o, detail) ->
                 viol :=
                   Some
                     { v_step = i; v_thread = tid; v_oracle = o;
                       v_detail = detail };
                 raise Exit
             | None -> ())
           sched
       with Exit -> ());
      !viol)

(* -- shrinking: truncate to the violation, then greedily drop single
   steps while the same oracle still fires -- *)

let shrink ?mutation mode (sched : schedule) (v : violation) =
  let remove arr i =
    Array.append (Array.sub arr 0 i)
      (Array.sub arr (i + 1) (Array.length arr - i - 1))
  in
  let cur = ref (Array.sub sched 0 (v.v_step + 1)) in
  let curv = ref { v with v_step = Array.length !cur - 1 } in
  let progress = ref true in
  while !progress do
    progress := false;
    let n = Array.length !cur in
    let i = ref 0 in
    while (not !progress) && !i < n do
      let cand = remove !cur !i in
      (match run_schedule ?mutation mode cand with
      | Some v' when v'.v_oracle = !curv.v_oracle ->
          cur := Array.sub cand 0 (v'.v_step + 1);
          curv := v';
          progress := true
      | _ -> ());
      incr i
    done
  done;
  (!cur, !curv)

(* -- exploration -- *)

type outcome = {
  o_mode : mode;
  o_mutation : mutation option;
  o_seed : int;
  o_explored : int;
  o_pruned : int;
  o_violation : (violation * schedule) option;
}

(* Static independence relation for the canonical-order reduction. Two
   steps are independent when executing them in either order reaches the
   same oracle-observable state: polls of different PMDs on different
   queues commute up to frame identity and up to which PMD translates a
   megaflow both bursts need — see DESIGN.md for the argument and the
   EMC caveat. Everything touching the fault clock, the monitor or the
   umempool's reclaim path is dependent. *)
let independent a b =
  match (a, b) with
  | S_poll (p1, q1), S_poll (p2, q2) -> p1 <> p2 && q1 <> q2
  | _ -> false

let explore ?mutation ?por ?(max_schedules = 500_000) mode =
  let por = match por with Some p -> p | None -> mutation = None in
  let scripts = Array.map snd (scripts_of mode) in
  let n_threads = Array.length scripts in
  let total = total_steps mode in
  let pcs = Array.make n_threads 0 in
  let sched = Array.make total 0 in
  let explored = ref 0 and pruned = ref 0 in
  let found = ref None in
  let rec go depth prev =
    if !found = None && !explored < max_schedules then
      if depth = total then begin
        incr explored;
        match run_schedule ?mutation mode (Array.copy sched) with
        | Some v -> found := Some (v, Array.copy sched)
        | None -> ()
      end
      else
        for tid = 0 to n_threads - 1 do
          if
            !found = None
            && !explored < max_schedules
            && pcs.(tid) < Array.length scripts.(tid)
          then
            (* canonical order: a schedule running [tid] right after a
               higher-numbered [prev] is kept only if the two adjacent
               steps do not commute — its commuted twin (tid first) is
               explored instead *)
            if
              por && prev >= 0 && tid < prev
              && independent scripts.(tid).(pcs.(tid))
                   scripts.(prev).(pcs.(prev) - 1)
            then incr pruned
            else begin
              sched.(depth) <- tid;
              pcs.(tid) <- pcs.(tid) + 1;
              go (depth + 1) tid;
              pcs.(tid) <- pcs.(tid) - 1
            end
        done
  in
  go 0 (-1);
  let violation =
    match !found with
    | None -> None
    | Some (v, s) -> Some (shrink ?mutation mode s v)
  in
  {
    o_mode = mode;
    o_mutation = mutation;
    o_seed = 0;
    o_explored = !explored;
    o_pruned = !pruned;
    o_violation =
      (match violation with Some (s, v) -> Some (v, s) | None -> None);
  }

let sample ?mutation ~seed ~n mode =
  let scripts = Array.map snd (scripts_of mode) in
  let n_threads = Array.length scripts in
  let total = total_steps mode in
  let prng = Prng.of_int seed in
  let explored = ref 0 and found = ref None in
  while !found = None && !explored < n do
    let pcs = Array.make n_threads 0 in
    let sched =
      Array.init total (fun _ ->
          let ready = ref [] in
          for tid = n_threads - 1 downto 0 do
            if pcs.(tid) < Array.length scripts.(tid) then ready := tid :: !ready
          done;
          let arr = Array.of_list !ready in
          let tid = arr.(Prng.int prng (Array.length arr)) in
          pcs.(tid) <- pcs.(tid) + 1;
          tid)
    in
    incr explored;
    match run_schedule ?mutation mode sched with
    | Some v -> found := Some (v, sched)
    | None -> ()
  done;
  let violation =
    match !found with
    | None -> None
    | Some (v, s) -> Some (shrink ?mutation mode s v)
  in
  {
    o_mode = mode;
    o_mutation = mutation;
    o_seed = seed;
    o_explored = !explored;
    o_pruned = 0;
    o_violation =
      (match violation with Some (s, v) -> Some (v, s) | None -> None);
  }

(* -- replay artifacts -- *)

let hex = "0123456789abcdef"

let sched_to_hex (s : schedule) =
  String.init (Array.length s) (fun i ->
      let t = s.(i) in
      if t < 0 || t > 15 then invalid_arg "Mc.sched_to_hex: thread id > 15";
      hex.[t])

let sched_of_hex str =
  Array.init (String.length str) (fun i ->
      match String.index_opt hex str.[i] with
      | Some v -> v
      | None -> invalid_arg "Mc.sched_of_hex: not a hex digit")

let artifact_string ~mode ~seed ~mutation sched =
  Printf.sprintf "mc1 mode=%s seed=%d mut=%s sched=%s" (mode_name mode) seed
    (match mutation with Some m -> mutation_name m | None -> "none")
    (sched_to_hex sched)

let artifact_of_outcome o =
  match o.o_violation with
  | None -> None
  | Some (_, sched) ->
      Some
        (artifact_string ~mode:o.o_mode ~seed:o.o_seed ~mutation:o.o_mutation
           sched)

let parse_artifact str =
  let tokens = String.split_on_char ' ' (String.trim str) in
  match tokens with
  | "mc1" :: rest ->
      let field key =
        List.find_map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = key ->
                Some (String.sub tok (i + 1) (String.length tok - i - 1))
            | _ -> None)
          rest
      in
      let ( let* ) r f = Result.bind r f in
      let require key =
        match field key with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "missing %s= field" key)
      in
      let* mode_s = require "mode" in
      let* mode =
        match mode_of_name mode_s with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "unknown mode %S" mode_s)
      in
      let* seed_s = require "seed" in
      let* seed =
        match int_of_string_opt seed_s with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "bad seed %S" seed_s)
      in
      let* mut_s = require "mut" in
      let* mutation =
        if mut_s = "none" then Ok None
        else
          match List.assoc_opt mut_s mutations with
          | Some m -> Ok (Some m)
          | None -> Error (Printf.sprintf "unknown mutation %S" mut_s)
      in
      let* sched_s = require "sched" in
      let* sched =
        match sched_of_hex sched_s with
        | s -> Ok s
        | exception Invalid_argument _ ->
            Error (Printf.sprintf "bad schedule %S" sched_s)
      in
      Ok (mode, seed, mutation, sched)
  | _ -> Error "not an mc1 artifact (expected leading \"mc1\")"

let describe_schedule mode sched =
  let scripts = Array.map snd (scripts_of mode) in
  let names = Array.map fst (scripts_of mode) in
  let pcs = Array.make (Array.length scripts) 0 in
  let buf = Buffer.create 128 in
  Array.iteri
    (fun i tid ->
      let what =
        if tid >= 0 && tid < Array.length scripts then begin
          let pc = pcs.(tid) in
          if pc < Array.length scripts.(tid) then begin
            pcs.(tid) <- pc + 1;
            Printf.sprintf "%s:%s" names.(tid) (step_name scripts.(tid).(pc))
          end
          else Printf.sprintf "%s:(exhausted)" names.(tid)
        end
        else "(no-op)"
      in
      Buffer.add_string buf (Printf.sprintf "  %2d  %s\n" i what))
    sched;
  Buffer.contents buf

let render o =
  let hdr =
    Printf.sprintf "mc %s%s: %d schedule%s explored, %d prefix%s pruned"
      (mode_name o.o_mode)
      (match o.o_mutation with
      | Some m -> Printf.sprintf " (mutation %s)" (mutation_name m)
      | None -> "")
      o.o_explored
      (if o.o_explored = 1 then "" else "s")
      o.o_pruned
      (if o.o_pruned = 1 then "" else "es")
  in
  match o.o_violation with
  | None -> hdr ^ ", no violations"
  | Some (v, sched) ->
      Printf.sprintf "%s\nVIOLATION %s\nschedule (shrunk):\n%sartifact: %s"
        hdr
        (Fmt.str "%a" pp_violation v)
        (describe_schedule o.o_mode sched)
        (match
           artifact_of_outcome o
         with
        | Some a -> a
        | None -> assert false)

let replay str =
  match parse_artifact str with
  | Error e -> Error e
  | Ok (mode, _seed, mutation, sched) ->
      let result =
        match run_schedule ?mutation mode sched with
        | None ->
            Printf.sprintf "replayed %d steps (mode %s, mutation %s): no violation"
              (Array.length sched) (mode_name mode)
              (match mutation with
              | Some m -> mutation_name m
              | None -> "none")
        | Some v ->
            Printf.sprintf
              "replayed %d steps (mode %s, mutation %s)\nVIOLATION %s\n%s"
              (Array.length sched) (mode_name mode)
              (match mutation with
              | Some m -> mutation_name m
              | None -> "none")
              (Fmt.str "%a" pp_violation v)
              (describe_schedule mode sched)
      in
      Ok result
