(** Deterministic fault injection on virtual time.

    A {!plan} schedules named {!fault}s — each an {!action} with a
    [f_start, f_stop) activity window on {!Ovs_sim.Time} — and arming it
    installs a process-global injector the hooked subsystems consult.
    Everything is reproducible: the only randomness (packet mutation
    draws) comes from a {!Ovs_sim.Prng} seeded by the plan, and windows
    open as the simulation's own virtual clock crosses them (the driver
    calls {!tick} with the current wall time).

    The hook points follow the tracer's zero-cost-when-disabled pattern:
    every hook starts with one dereference of the global [armed] ref and
    takes the [None] branch immediately when no plan is armed. Hooks
    never charge virtual time themselves, so an unarmed run's cycle
    totals are byte-identical to a build without the hooks. *)

module Time = Ovs_sim.Time
module Prng = Ovs_sim.Prng
module Coverage = Ovs_sim.Coverage

let cov_fired = Coverage.counter "fault_fired"

(** What a fault does while its window is open. *)
type action =
  | Link_down of { port : int }  (** the port's carrier drops; rx is lost *)
  | Rxq_stall of { port : int; queue : int }
      (** one rx queue ([-1]: every queue) stops being served *)
  | Umem_leak of { frames : int }
      (** a buggy path leaks up to [frames] umem frames from the pool *)
  | Umem_exhaust  (** the umempool denies every allocation *)
  | Pmd_stall of { pmd : int }  (** the PMD thread stops making progress *)
  | Pmd_crash of { pmd : int }
      (** the PMD dies at window start (stays dead until restarted) *)
  | Upcall_storm  (** every PMD upcall fails (the slow path refuses) *)
  | Pkt_truncate of { prob : float }
      (** each offered packet is truncated with probability [prob] *)
  | Pkt_corrupt of { prob : float }
      (** each offered packet gets a flipped header byte with [prob] *)
  | Ct_pressure of { zone : int; limit : int }
      (** force an effective conntrack zone limit of [limit] *)

type fault = {
  f_name : string;
  f_action : action;
  f_start : Time.ns;
  f_stop : Time.ns;
}

type plan = { p_name : string; p_seed : int; p_faults : fault list }

let plan ?(name = "plan") ?(seed = 1) faults =
  { p_name = name; p_seed = seed; p_faults = faults }

(* per-fault runtime state *)
type fstate = {
  fault : fault;
  mutable fired : int;  (** times the fault actually bit *)
  mutable opened : bool;  (** window-start transition already reported *)
  mutable leak_left : int;  (** Umem_leak: frames still to leak *)
  mutable crashed : bool;  (** Pmd_crash: crash transition executed *)
  mutable crashed_at : Time.ns;
  mutable restarted : bool;  (** Pmd_crash: restart completed *)
  mutable restarted_at : Time.ns;
}

type t = {
  p : plan;
  prng : Prng.t;
  mutable now : Time.ns;
  mutable states : fstate list;
}

let state_of fault =
  {
    fault;
    fired = 0;
    opened = false;
    leak_left = (match fault.f_action with Umem_leak { frames } -> frames | _ -> 0);
    crashed = false;
    crashed_at = 0.;
    restarted = false;
    restarted_at = 0.;
  }

let create (p : plan) : t =
  {
    p;
    prng = Prng.of_int p.p_seed;
    now = 0.;
    states = List.map state_of p.p_faults;
  }

(* -- the global arming point (the zero-cost [None] branch) -- *)

let armed : t option ref = ref None

let arm p = armed := Some (create p)
let disarm () = armed := None
let armed_plan () = match !armed with Some i -> Some i.p | None -> None

(** Append one fault to the armed injector, arming an empty plan first if
    nothing is armed (the appctl fault/inject path). *)
let inject ?(seed = 1) fault =
  let i =
    match !armed with
    | Some i -> i
    | None ->
        let i = create { p_name = "appctl"; p_seed = seed; p_faults = [] } in
        armed := Some i;
        i
  in
  i.states <- i.states @ [ state_of fault ]

let in_window i s = s.fault.f_start <= i.now && i.now < s.fault.f_stop

let fired s =
  s.fired <- s.fired + 1;
  Coverage.incr cov_fired

(** Advance the injector clock. Returns the faults whose windows opened
    with this tick (so drivers can run window-start side effects, e.g.
    flushing caches when an upcall storm begins); [[]] when disarmed. *)
let tick (now : Time.ns) : fault list =
  match !armed with
  | None -> []
  | Some i ->
      i.now <- Float.max i.now now;
      List.filter_map
        (fun s ->
          if (not s.opened) && in_window i s then begin
            s.opened <- true;
            Some s.fault
          end
          else None)
        i.states

let now () = match !armed with Some i -> i.now | None -> 0.

(** Are any fault windows still pending or open? (The drain loop keeps
    ticking virtual time while this holds, so every window closes.) *)
let pending_windows () =
  match !armed with
  | None -> false
  | Some i ->
      List.exists
        (fun s ->
          match s.fault.f_action with
          | Pmd_crash _ -> s.crashed && not s.restarted
          | _ -> i.now < s.fault.f_stop)
        i.states

(* -- hook points (one per hooked subsystem) -- *)

let scan f =
  match !armed with
  | None -> false
  | Some i ->
      List.exists
        (fun s -> if in_window i s && f s.fault.f_action then (fired s; true) else false)
        i.states

(** Netdev enqueue: is this port's link administratively dead right now? *)
let link_down ~port =
  match !armed with
  | None -> false
  | Some _ -> scan (function Link_down l -> l.port = port | _ -> false)

(** Netdev dequeue: is this (port, queue) rx queue stalled right now? *)
let rxq_stalled ~port ~queue =
  match !armed with
  | None -> false
  | Some _ ->
      scan (function
        | Rxq_stall r -> r.port = port && (r.queue = -1 || r.queue = queue)
        | _ -> false)

(** Umempool get: deny every allocation while an exhaustion window is
    open. *)
let umem_exhausted () =
  match !armed with
  | None -> false
  | Some _ -> scan (function Umem_exhaust -> true | _ -> false)

(** Umempool: how many frames to leak out of [avail] right now (0 when no
    leak window is open or the budget ran dry). *)
let umem_leak ~avail =
  match !armed with
  | None -> 0
  | Some i ->
      List.fold_left
        (fun taken s ->
          match s.fault.f_action with
          | Umem_leak _ when in_window i s && s.leak_left > 0 && avail - taken > 0 ->
              let take = Int.min s.leak_left (avail - taken) in
              s.leak_left <- s.leak_left - take;
              s.fired <- s.fired + take;
              Coverage.incr ~n:take cov_fired;
              taken + take
          | _ -> taken)
        0 i.states

(** PMD poll: is this PMD stalled (spinning without serving its rxqs)? *)
let pmd_stalled ~pmd =
  match !armed with
  | None -> false
  | Some _ -> scan (function Pmd_stall p -> p.pmd = pmd | _ -> false)

(** PMD poll: perform the crash transition for this PMD. Returns [true]
    exactly once, when a crash window opens; the PMD stays crashed (see
    {!pmd_crashed_at}) until {!mark_pmd_restarted}. *)
let pmd_crash_pending ~pmd =
  match !armed with
  | None -> false
  | Some i ->
      List.exists
        (fun s ->
          match s.fault.f_action with
          | Pmd_crash p
            when p.pmd = pmd && (not s.crashed) && i.now >= s.fault.f_start ->
              s.crashed <- true;
              s.crashed_at <- i.now;
              fired s;
              true
          | _ -> false)
        i.states

(** When did this PMD crash (for the health monitor's restart-delay
    policy)? [None] if it is not currently crashed. *)
let pmd_crashed_at ~pmd =
  match !armed with
  | None -> None
  | Some i ->
      List.find_map
        (fun s ->
          match s.fault.f_action with
          | Pmd_crash p when p.pmd = pmd && s.crashed && not s.restarted ->
              Some s.crashed_at
          | _ -> None)
        i.states

let mark_pmd_restarted ~pmd =
  match !armed with
  | None -> ()
  | Some i ->
      List.iter
        (fun s ->
          match s.fault.f_action with
          | Pmd_crash p when p.pmd = pmd && s.crashed && not s.restarted ->
              s.restarted <- true;
              s.restarted_at <- i.now
          | _ -> ())
        i.states

(** PMD upcall: does the slow path refuse it right now (the upcall fails)? *)
let upcall_storm () =
  match !armed with
  | None -> false
  | Some _ -> scan (function Upcall_storm -> true | _ -> false)

(** Conntrack commit: the forced effective zone limit, if a pressure
    window is open for [zone]. *)
let ct_limit ~zone =
  match !armed with
  | None -> None
  | Some i ->
      List.find_map
        (fun s ->
          match s.fault.f_action with
          | Ct_pressure c when c.zone = zone && in_window i s ->
              fired s;
              Some c.limit
          | _ -> None)
        i.states

(** Traffic generation: should the next offered packet be mangled?
    [`Truncate frac] keeps roughly that fraction of the frame;
    [`Corrupt] flips a header byte. Draws from the plan's PRNG only while
    a packet-stream window is open, so runs stay reproducible. *)
let mutate () : [ `Truncate of float | `Corrupt ] option =
  match !armed with
  | None -> None
  | Some i ->
      List.find_map
        (fun s ->
          match s.fault.f_action with
          | Pkt_truncate { prob } when in_window i s ->
              if Prng.float i.prng < prob then begin
                fired s;
                Some (`Truncate (Prng.float i.prng))
              end
              else None
          | Pkt_corrupt { prob } when in_window i s ->
              if Prng.float i.prng < prob then begin
                fired s;
                Some `Corrupt
              end
              else None
          | _ -> None)
        i.states

(* -- rendering and the appctl spec language -- *)

let pp_action ppf = function
  | Link_down { port } -> Fmt.pf ppf "link_down port=%d" port
  | Rxq_stall { port; queue } ->
      Fmt.pf ppf "rxq_stall port=%d queue=%d" port queue
  | Umem_leak { frames } -> Fmt.pf ppf "umem_leak frames=%d" frames
  | Umem_exhaust -> Fmt.pf ppf "umem_exhaust"
  | Pmd_stall { pmd } -> Fmt.pf ppf "pmd_stall pmd=%d" pmd
  | Pmd_crash { pmd } -> Fmt.pf ppf "pmd_crash pmd=%d" pmd
  | Upcall_storm -> Fmt.pf ppf "upcall_storm"
  | Pkt_truncate { prob } -> Fmt.pf ppf "pkt_truncate prob=%.2f" prob
  | Pkt_corrupt { prob } -> Fmt.pf ppf "pkt_corrupt prob=%.2f" prob
  | Ct_pressure { zone; limit } ->
      Fmt.pf ppf "ct_pressure zone=%d limit=%d" zone limit

let pp_fault ppf f =
  Fmt.pf ppf "%s: %a window [%a, %a]" f.f_name pp_action f.f_action Time.pp_ns
    f.f_start Time.pp_ns f.f_stop

(** One line per fault of the armed plan, with live fire counts —
    appctl fault/list's content. *)
let render () =
  match !armed with
  | None -> "no fault plan armed"
  | Some i ->
      Fmt.str "plan %S (seed %d) at %a:\n%s" i.p.p_name i.p.p_seed Time.pp_ns
        i.now
        (String.concat "\n"
           (List.map
              (fun s ->
                Fmt.str "  %a  fired %d%s" pp_fault s.fault s.fired
                  (match s.fault.f_action with
                  | Pmd_crash _ when s.restarted ->
                      Fmt.str " (restarted at %a)" Time.pp_ns s.restarted_at
                  | Pmd_crash _ when s.crashed -> " (down)"
                  | _ -> ""))
              i.states))

let fire_counts () =
  match !armed with
  | None -> []
  | Some i -> List.map (fun s -> (s.fault.f_name, s.fired)) i.states

(** Parse an appctl fault spec: a fault kind followed by [key=value]
    tokens, whitespace-separated. Times are milliseconds of virtual time:
    [at] (window start, default 0) and [for] (duration, default 1ms).

    Examples: ["link_flap port=0 at=0.2 for=1"],
    ["pmd_crash pmd=1 at=0.5"], ["pkt_corrupt prob=0.3 for=2"]. *)
let of_spec spec : (fault, string) result =
  match
    String.split_on_char ' ' (String.trim spec)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "usage: fault/inject KIND [key=value ...]"
  | kind :: kvs -> (
      let tbl = Hashtbl.create 8 in
      let bad = ref None in
      List.iter
        (fun tok ->
          match String.index_opt tok '=' with
          | Some idx ->
              Hashtbl.replace tbl
                (String.sub tok 0 idx)
                (String.sub tok (idx + 1) (String.length tok - idx - 1))
          | None -> bad := Some tok)
        kvs;
      match !bad with
      | Some tok -> Error (Printf.sprintf "bad token %S (want key=value)" tok)
      | None -> (
          let geti k d =
            match Hashtbl.find_opt tbl k with
            | None -> Ok d
            | Some v -> (
                match int_of_string_opt v with
                | Some n -> Ok n
                | None -> Error (Printf.sprintf "bad integer %s=%s" k v))
          in
          let getf k d =
            match Hashtbl.find_opt tbl k with
            | None -> Ok d
            | Some v -> (
                match float_of_string_opt v with
                | Some f -> Ok f
                | None -> Error (Printf.sprintf "bad number %s=%s" k v))
          in
          let ( let* ) = Result.bind in
          let* action =
            match kind with
            | "link_down" | "link_flap" ->
                let* port = geti "port" 0 in
                Ok (Link_down { port })
            | "rxq_stall" ->
                let* port = geti "port" 0 in
                let* queue = geti "queue" (-1) in
                Ok (Rxq_stall { port; queue })
            | "umem_leak" ->
                let* frames = geti "frames" 1024 in
                Ok (Umem_leak { frames })
            | "umem_exhaust" -> Ok Umem_exhaust
            | "pmd_stall" ->
                let* pmd = geti "pmd" 0 in
                Ok (Pmd_stall { pmd })
            | "pmd_crash" ->
                let* pmd = geti "pmd" 0 in
                Ok (Pmd_crash { pmd })
            | "upcall_storm" -> Ok Upcall_storm
            | "pkt_truncate" ->
                let* prob = getf "prob" 0.25 in
                Ok (Pkt_truncate { prob })
            | "pkt_corrupt" ->
                let* prob = getf "prob" 0.25 in
                Ok (Pkt_corrupt { prob })
            | "ct_pressure" ->
                let* zone = geti "zone" 0 in
                let* limit = geti "limit" 64 in
                Ok (Ct_pressure { zone; limit })
            | other -> Error (Printf.sprintf "unknown fault kind %S" other)
          in
          let* at = getf "at" 0. in
          let* dur = getf "for" 1. in
          Ok
            {
              f_name = kind;
              f_action = action;
              f_start = Time.ms at;
              f_stop = Time.ms (at +. dur);
            }))
