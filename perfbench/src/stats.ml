(* Order statistics shared by the measured phase, the repeat mode and the
   tests. Inputs are never mutated: every function sorts a copy. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   numpy default): [p] in [0, 1]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = Int.min (lo + 1) (n - 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (its default "exclusive" method), so the spread this program
   prints is the spread a Python reader of the same values gets. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then infinity else (q3 -. q1) /. Float.abs q2

(* The chunk estimator behind [mpps]: the measured phase is cut into
   chunks of a fixed number of packets, each timed on its own and
   corrected for host speed, and [mpps] is the median chunk rate.
   README.md records the runs this choice rests on. *)
let chunk_quantile = 0.5

let chunk_rate rates = percentile rates chunk_quantile

(* Host-speed correction (see Harness): a timed interval measured while a
   reference kernel ran at [kernel_ns] per step is reported as
   [measured * reference_factor], i.e. in the time it would have taken on
   a host where the kernel runs at [ref_ns]. The exponent [alpha] is how
   strongly the workload's speed follows the kernel's. *)
let reference_factor ~ref_ns ~alpha kernel_ns = Float.pow (ref_ns /. kernel_ns) alpha
