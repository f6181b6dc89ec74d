(** The execution engines' shared readout: {e how} the PMD dataplane
    runs, separated from {e what} it runs. {!Engine_vt} (the
    deterministic virtual-time scheduler; the schedule explorer's
    substrate) and {!Engine_domains} (real parallelism on OCaml domains,
    measured in wall-clock Mpps) both report {!stats} and keep their
    packet conservation books as {!books}; a run calls the engine it
    wants directly. *)

(** Per-execution-unit load readout. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ({!Engine_vt}) or measured wall ns
          ({!Engine_domains}) *)
}

type stats = {
  s_engine : string;
  s_units : int;
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) under {!Engine_vt}; real
          elapsed wall-clock under {!Engine_domains} *)
  s_mpps : float;
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under {!Engine_vt}, wall ns under
          {!Engine_domains};
          per-domain sketches are merged into one on stop) *)
}

val mpps : delivered:int -> wall_ns:float -> float
(** Delivered packets over nanoseconds, in millions per second. *)

(** {1 Conservation books}

    The one definition of where an offered packet can end up, shared by
    the virtual-time rig's phase ledger ([Scenario.Ledger]) and the
    domains engine. A failed conservation check prints {!render}, which
    names every drop counter that moved. *)

(** [offered = delivered + drops + in_flight] when nothing vanished. *)
type books = {
  d_phase : string;
  d_offered : int;
  d_rejected : int;
      (** refused uncounted under [Rx_backpressure]: never offered *)
  d_delivered : int;
  d_drops : (string * int) list;  (** each drop counter's movement *)
  d_in_flight : int;
}

val drops : books -> int
(** Sum of every drop counter. *)

val unaccounted : books -> int
(** Offered packets neither delivered, nor in a drop counter, nor still
    in flight. *)

val conserved : books -> bool
(** Exact conservation: nothing unaccounted, nothing left in flight. *)

val render : books -> string
(** [phase P: offered O = delivered D + drops N [counter +n, ...] + in
    flight F], plus [+ U unaccounted] when the books do not balance. *)
