(** Latency/size histograms with percentile queries.

    Log-bucketed over a fixed range: cheap to update on the per-packet fast
    path of the simulator, and accurate enough (<2% relative error per
    bucket) for the P50/P90/P99 numbers the paper reports. *)

type t = {
  lo : float;  (** smallest representable value (values below clamp) *)
  hi : float;  (** largest representable value (values above clamp) *)
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}

let n_buckets = 2048

let create ?(lo = 1.) ?(hi = 1e9) () =
  if lo <= 0. || hi <= lo then invalid_arg "Histogram.create";
  {
    lo;
    hi;
    buckets = Array.make n_buckets 0;
    count = 0;
    sum = 0.;
    min_seen = infinity;
    max_seen = neg_infinity;
  }

let bucket_of t v =
  let v = Float.max t.lo (Float.min t.hi v) in
  let frac = log (v /. t.lo) /. log (t.hi /. t.lo) in
  let i = int_of_float (frac *. float_of_int (n_buckets - 1)) in
  Int.max 0 (Int.min (n_buckets - 1) i)

let value_of t i =
  let frac = float_of_int i /. float_of_int (n_buckets - 1) in
  t.lo *. exp (frac *. log (t.hi /. t.lo))

let add t v =
  let i = bucket_of t v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_seen then t.min_seen <- v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.count
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

(** [percentile t p] with [p] in [0, 100]. Returns 0. on an empty
    histogram. Exact min/max are used for the 0th/100th percentiles. *)
let percentile t p =
  if t.count = 0 then 0.
  else if p <= 0. then t.min_seen
  else if p >= 100. then t.max_seen
  else begin
    let target = p /. 100. *. float_of_int t.count in
    let rec scan i acc =
      if i >= n_buckets then t.max_seen
      else
        let acc = acc + t.buckets.(i) in
        if float_of_int acc >= target then value_of t i else scan (i + 1) acc
    in
    scan 0 0
  end

let p50 t = percentile t 50.
let p90 t = percentile t 90.
let p99 t = percentile t 99.
