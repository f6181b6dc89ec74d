(** The execution engines' shared readout: {e how} the PMD dataplane
    runs, separated from {e what} it runs.

    Two engines report through these types:
    - {!Engine_vt} — the virtual-time scheduler the simulator has always
      used: one OS thread, per-context charged nanoseconds, deterministic
      to the byte. The schedule explorer ([lib/mc]) builds on the
      {!Pmd} runtime behind it.
    - {!Engine_domains} — real parallelism: each PMD context is an OCaml
      [Domain.t], rings carry [Atomic.t] SPSC cursors, the umempool takes
      a real [Mutex.t], and throughput is wall-clock Mpps.

    A run calls the engine it wants directly. Both keep their packet
    conservation books in one shape, {!books}. *)

(** Per-execution-unit load readout: a PMD context's (or domain's) share
    of the work. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ({!Engine_vt}) or measured wall ns
          ({!Engine_domains}) *)
}

type stats = {
  s_engine : string;  (** implementation name, e.g. "vt" / "domains" *)
  s_units : int;  (** parallel execution units carrying the pmd leg *)
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) under {!Engine_vt}; real
          elapsed wall-clock under {!Engine_domains} *)
  s_mpps : float;  (** delivered over [s_wall_ns] *)
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under {!Engine_vt}, wall ns under
          {!Engine_domains};
          per-domain sketches are merged into one on stop) *)
}

let mpps ~delivered ~wall_ns =
  if wall_ns <= 0. then 0. else float_of_int delivered /. wall_ns *. 1e3

(** A run's or phase's books: [offered = delivered + drops + in_flight]
    when nothing vanished. *)
type books = {
  d_phase : string;
  d_offered : int;
  d_rejected : int;
      (** refused uncounted under [Rx_backpressure]: never offered *)
  d_delivered : int;
  d_drops : (string * int) list;  (** each drop counter's movement *)
  d_in_flight : int;
}

let drops d = List.fold_left (fun a (_, n) -> a + n) 0 d.d_drops

let unaccounted d = d.d_offered - d.d_delivered - drops d - d.d_in_flight

let conserved d = unaccounted d = 0 && d.d_in_flight = 0

let render d =
  Printf.sprintf
    "phase %s: offered %d = delivered %d + drops %d [%s] + in flight %d%s"
    d.d_phase d.d_offered d.d_delivered (drops d)
    (match List.filter (fun (_, n) -> n <> 0) d.d_drops with
    | [] -> "no drop counter moved"
    | moved ->
        String.concat ", "
          (List.map (fun (c, n) -> Printf.sprintf "%s %+d" c n) moved))
    d.d_in_flight
    (match unaccounted d with
    | 0 -> ""
    | u -> Printf.sprintf " + %d unaccounted" u)
