(** Virtual time for the dataplane simulation.

    All substrate costs are expressed in nanoseconds of virtual time. Using a
    plain [float] keeps arithmetic simple; experiments run for milliseconds to
    seconds of virtual time, far below the precision limits of doubles. *)

type ns = float
(** A duration or instant, in nanoseconds. *)

let ns_per_us = 1_000.
let ns_per_ms = 1_000_000.
let ns_per_s = 1_000_000_000.

let us (x : float) : ns = x *. ns_per_us
let ms (x : float) : ns = x *. ns_per_ms
let s (x : float) : ns = x *. ns_per_s

let to_us (t : ns) = t /. ns_per_us
let to_ms (t : ns) = t /. ns_per_ms

(** Clock frequency of the modelled Xeon E5 2620 v3 / E5 2440 v2 (both
    2.4 GHz in the paper's testbeds). *)
let cpu_ghz = 2.4

(** Convert a cost in CPU cycles to nanoseconds at the modelled frequency. *)
let cycles (c : float) : ns = c /. cpu_ghz

(** Packets per second given a per-packet cost; [0.] cost is infinite rate. *)
let rate_pps ~(per_packet : ns) : float =
  if per_packet <= 0. then infinity else ns_per_s /. per_packet

(** Per-packet cost in ns for a given rate in packets per second. *)
let per_packet_of_pps (pps : float) : ns =
  if pps <= 0. then infinity else ns_per_s /. pps

let pp_rate ppf pps =
  if pps >= 1e6 then Fmt.pf ppf "%.2f Mpps" (pps /. 1e6)
  else if pps >= 1e3 then Fmt.pf ppf "%.2f Kpps" (pps /. 1e3)
  else Fmt.pf ppf "%.0f pps" pps

let pp_ns ppf (t : ns) =
  if t >= ns_per_ms then Fmt.pf ppf "%.2f ms" (to_ms t)
  else if t >= ns_per_us then Fmt.pf ppf "%.2f us" (to_us t)
  else Fmt.pf ppf "%.1f ns" t
