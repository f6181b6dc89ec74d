(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulation draws from an explicit [Prng.t]
    so that experiments are reproducible run-to-run; no global [Random]
    state is used anywhere in the repository. *)

type t = { mutable state : int64 }

let create ?(seed = 0x9E3779B97F4A7C15L) () = { state = seed }

let of_int seed = { state = Int64.of_int seed }

(* splitmix64 step: well distributed, passes BigCrush, and trivially
   seedable, which is all we need for workload generation. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  (* keep 62 bits so the result fits OCaml's boxed-free int range *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(** Uniform float in [0, 1). *)
let float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits53 /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Exponentially distributed sample with the given mean (for inter-arrival
    jitter in latency experiments). *)
let exponential t ~mean =
  let u = float t in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

(** Sample from a normal distribution via Box-Muller (used for service-time
    jitter around the calibrated mean costs). *)
let gaussian t ~mu ~sigma =
  let u1 = max epsilon_float (float t) in
  let u2 = float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
