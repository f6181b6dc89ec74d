(** Packet-walk tracing and per-stage virtual-cycle attribution.

    A recorder splits every virtual nanosecond the datapath charges into
    the pipeline stage that spent it — the paper's Figs 9–14 and Table 4
    are all statements about *where* per-packet CPU time goes, and this is
    the instrument that answers them for the reproduction. The stages
    mirror the per-packet walk: driver receive, flow-key extraction, the
    three cache tiers, the slow-path upcall (ofproto translation),
    megaflow installation, action execution, conntrack, tunnel
    encap/decap and transmit.

    The recorder is designed to be *optional and zero-cost when absent*:
    consumers keep a [t option] and branch on it explicitly, so the hot
    path allocates nothing and runs no extra code when tracing is off.
    When tracing is on, the datapath routes every [charge_fn] call through
    {!on_charge}, which attributes the nanoseconds to the current stage —
    per-stage sums therefore equal the end-to-end charged totals by
    construction, not by double bookkeeping.

    Two granularities are recorded:
    - aggregate: per-stage cumulative totals plus a {!Histogram} of
      per-packet per-stage cycles ([packet_begin]/[packet_end] bracket one
      packet's fast-path pass);
    - per-packet walk: when {!start_walk} is active, the datapath also
      appends human-readable events (which cache hit, which rule matched,
      the conntrack verdict, …) — the raw material of the
      [ofproto/trace] rendering. *)

type stage =
  | St_rx  (** driver rx, NAPI/XDP/XSK delivery, rx metadata prep *)
  | St_extract  (** flow-key extraction (miniflow / kmod / eBPF parse) *)
  | St_emc  (** exact-match cache probe *)
  | St_smc  (** signature-match cache probe *)
  | St_ccache  (** computational cache (learned classifier) probe *)
  | St_dpcls  (** megaflow classifier (tuple-space search) *)
  | St_upcall  (** slow-path upcall + ofproto table-by-table translation *)
  | St_install  (** megaflow (and microflow) installation *)
  | St_action  (** odp-execute action loop (sets, vlan, meter, …) *)
  | St_conntrack  (** connection tracking verdict + NAT *)
  | St_encap  (** tunnel push (Geneve/VXLAN/GRE/ERSPAN) *)
  | St_decap  (** tunnel pop + recirculation *)
  | St_tx  (** transmit: tx-queue locks, rings, kicks, GSO *)

let all_stages =
  [|
    St_rx; St_extract; St_emc; St_smc; St_ccache; St_dpcls; St_upcall;
    St_install; St_action; St_conntrack; St_encap; St_decap; St_tx;
  |]

let n_stages = Array.length all_stages

let stage_index = function
  | St_rx -> 0
  | St_extract -> 1
  | St_emc -> 2
  | St_smc -> 3
  | St_ccache -> 4
  | St_dpcls -> 5
  | St_upcall -> 6
  | St_install -> 7
  | St_action -> 8
  | St_conntrack -> 9
  | St_encap -> 10
  | St_decap -> 11
  | St_tx -> 12

let stage_name = function
  | St_rx -> "rx"
  | St_extract -> "extract"
  | St_emc -> "emc"
  | St_smc -> "smc"
  | St_ccache -> "ccache"
  | St_dpcls -> "dpcls"
  | St_upcall -> "upcall"
  | St_install -> "install"
  | St_action -> "action"
  | St_conntrack -> "conntrack"
  | St_encap -> "encap"
  | St_decap -> "decap"
  | St_tx -> "tx"

(** One walk event: the stage it happened in and a rendered detail line
    (which cache hit, which rule fired, the conntrack verdict, …). *)
type event = { ev_stage : stage; ev_detail : string }

type t = {
  kind : string;  (** datapath kind label, e.g. "kernel" / "AF_XDP" *)
  hists : Histogram.t array;  (** per-stage per-packet cycle distribution *)
  totals : float array;  (** per-stage cumulative virtual ns *)
  scratch : float array;  (** the in-flight packet's per-stage ns *)
  mutable cur : int;  (** index of the stage now being charged *)
  mutable in_packet : bool;
  mutable packets : int;
  mutable walking : bool;
  mutable events : event list;  (** reversed while recording *)
}

let mk_hists () = Array.init n_stages (fun _ -> Histogram.create ~lo:1. ~hi:1e7 ())

let create ~kind () =
  {
    kind;
    hists = mk_hists ();
    totals = Array.make n_stages 0.;
    scratch = Array.make n_stages 0.;
    cur = 0;
    in_packet = false;
    packets = 0;
    walking = false;
    events = [];
  }

let packets t = t.packets

(** Zero every aggregate (between a warmup and a measurement phase). The
    walk state is cleared too. *)
let reset t =
  Array.iteri (fun i _ -> t.hists.(i) <- Histogram.create ~lo:1. ~hi:1e7 ()) t.hists;
  Array.fill t.totals 0 n_stages 0.;
  Array.fill t.scratch 0 n_stages 0.;
  t.cur <- 0;
  t.in_packet <- false;
  t.packets <- 0;
  t.events <- []

(** Declare which stage subsequent charges belong to. *)
let set_stage t s = t.cur <- stage_index s

(** Attribute [ns] charged virtual time to the current stage. The
    datapath wraps its [charge_fn] with this exactly once, so per-stage
    sums equal end-to-end charged totals by construction. *)
let on_charge t (ns : Time.ns) =
  t.totals.(t.cur) <- t.totals.(t.cur) +. ns;
  if t.in_packet then t.scratch.(t.cur) <- t.scratch.(t.cur) +. ns

(** Bracket one packet's datapath pass: [packet_begin] clears the
    per-packet scratch, [packet_end] flushes it into the per-stage
    histograms. A deferred upcall (the PMD bounded-queue path) runs as its
    own bracket, so its stages histogram separately from the fast-path
    probe that queued it. *)
let packet_begin t =
  Array.fill t.scratch 0 n_stages 0.;
  t.in_packet <- true

let packet_end t =
  for i = 0 to n_stages - 1 do
    if t.scratch.(i) > 0. then Histogram.add t.hists.(i) t.scratch.(i)
  done;
  t.packets <- t.packets + 1;
  t.in_packet <- false

(** {1 Per-packet walk} *)

let walking t = t.walking

let start_walk t =
  t.walking <- true;
  t.events <- []

(** Stop recording and return the walk's events in order. *)
let stop_walk t =
  t.walking <- false;
  let evs = List.rev t.events in
  t.events <- [];
  evs

(** Record a walk event (and make [s] the current stage). *)
let note t s detail =
  set_stage t s;
  if t.walking then t.events <- { ev_stage = s; ev_detail = detail } :: t.events

(** {1 Readouts} *)

(** Cumulative charged ns across all stages. *)
let total t = Array.fold_left ( +. ) 0. t.totals

(** The last completed packet's per-stage cycles (nonzero stages only),
    in stage order. Valid until the next [packet_begin]. *)
let last_packet t =
  Array.to_list all_stages
  |> List.filter_map (fun s ->
         let v = t.scratch.(stage_index s) in
         if v > 0. then Some (s, v) else None)

(** Render the aggregate per-stage table ([dpif/show-stage-cycles]). *)
let render t =
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  add "per-stage cycle attribution (%s datapath): %d packets" t.kind t.packets;
  add "  %-10s %10s %14s %12s %10s %10s" "stage" "packets" "cycles" "cycles/pkt"
    "mean/hit" "p99/hit";
  Array.iter
    (fun s ->
      let i = stage_index s in
      let h = t.hists.(i) in
      if t.totals.(i) > 0. || Histogram.count h > 0 then
        add "  %-10s %10d %14.0f %12.1f %10.1f %10.1f" (stage_name s)
          (Histogram.count h) t.totals.(i)
          (if t.packets > 0 then t.totals.(i) /. float_of_int t.packets else 0.)
          (Histogram.mean h) (Histogram.p99 h))
    all_stages;
  add "  %-10s %10s %14.0f %12.1f" "total" "" (total t)
    (if t.packets > 0 then total t /. float_of_int t.packets else 0.);
  String.concat "\n" (List.rev !lines)
