(** The execution engines' shared readout: {e how} the PMD dataplane
    runs, separated from {e what} it runs. {!Engine_vt} (the
    deterministic virtual-time scheduler; the schedule explorer's
    substrate) and {!Engine_domains} (real parallelism on OCaml domains,
    measured in wall-clock Mpps) both report {!stats}; a run picks one
    by {!mode} and calls it directly. *)

type mode = [ `Vt  (** virtual time, single thread *) | `Domains of int ]
(** [`Domains n] runs [n] PMD domains (plus an injector and a
    revalidator domain). *)

(** Per-execution-unit load readout. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ([`Vt]) or measured wall ns ([`Domains]) *)
}

type stats = {
  s_engine : string;
  s_units : int;
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) for [`Vt]; real elapsed
          wall-clock for [`Domains] *)
  s_mpps : float;
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under [`Vt], wall ns under [`Domains];
          per-domain sketches are merged into one on stop) *)
}

val mpps : delivered:int -> wall_ns:float -> float
(** Delivered packets over nanoseconds, in millions per second. *)
