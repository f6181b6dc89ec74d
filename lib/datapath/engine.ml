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

    A run picks one by {!mode} and calls that engine directly. *)

type mode = [ `Vt  (** virtual time, single thread *) | `Domains of int ]
(** [`Domains n] runs [n] PMD domains (plus an injector and a
    revalidator domain). *)

(** Per-execution-unit load readout: a PMD context's (or domain's) share
    of the work. *)
type unit_load = {
  ul_name : string;
  ul_packets : int;
  ul_busy_ns : float;
      (** charged virtual ns ([`Vt]) or measured wall ns ([`Domains]) *)
}

type stats = {
  s_engine : string;  (** implementation name, e.g. "vt" / "domains" *)
  s_units : int;  (** parallel execution units carrying the pmd leg *)
  s_offered : int;
  s_delivered : int;
  s_dropped : int;
  s_upcalls : int;
  s_wall_ns : float;
      (** virtual wall (bottleneck context) for [`Vt]; real elapsed
          wall-clock for [`Domains] *)
  s_mpps : float;  (** delivered over [s_wall_ns] *)
  s_units_detail : unit_load list;
  s_latency : Ovs_sim.Quantiles.t option;
      (** per-packet sojourn-time sketch when latency measurement was
          armed (virtual ns under [`Vt], wall ns under [`Domains];
          per-domain sketches are merged into one on stop) *)
}

let mpps ~delivered ~wall_ns =
  if wall_ns <= 0. then 0. else float_of_int delivered /. wall_ns *. 1e3
