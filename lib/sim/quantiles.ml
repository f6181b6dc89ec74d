(** Mergeable streaming-quantile sketch for per-packet sojourn times.

    A fixed-log-bucket HDR-style histogram: bucket [i] covers the
    geometric interval [[lo·r^i, lo·r^(i+1))] with ratio
    [r = (1 + eps)^2], and a quantile query reports the bucket's
    geometric midpoint [lo·r^i·(1 + eps)]. Any true value [v] in
    [[lo, hi]] therefore lands in a bucket whose reported midpoint [m]
    satisfies [|m - v| / v <= eps] — the documented error bound, checked
    by the oracle property suite in [test/test_quantiles.ml] against
    exact sorted-sample quantiles. Values outside [[lo, hi]] clamp (and
    exact [min_seen]/[max_seen] are kept, so the 0th/100th percentiles
    are always exact).

    Unlike {!Histogram} (fixed 2048 buckets, per-bucket error that
    depends on the range), the bucket count here is derived from the
    requested [eps], so the bound holds for any range. Merging is
    bucket-wise and exact for identical geometry, so per-domain
    sketches fold into one readout on engine stop. All state is plain ints/floats updated in a
    fixed order: byte-identical across runs under [Engine_vt]. *)

type t = {
  lo : float;  (** smallest representable value (values below clamp) *)
  hi : float;  (** largest representable value (values above clamp) *)
  eps : float;  (** documented relative error bound for quantile queries *)
  log_ratio : float;  (** log ((1 + eps)^2), cached for [bucket_of] *)
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}

let create ?(lo = 1.) ?(hi = 1e10) ?(eps = 0.01) () =
  if lo <= 0. || hi <= lo then invalid_arg "Quantiles.create: bad range";
  if eps <= 0. || eps >= 1. then invalid_arg "Quantiles.create: bad eps";
  let log_ratio = 2. *. log (1. +. eps) in
  let n = int_of_float (ceil (log (hi /. lo) /. log_ratio)) + 1 in
  {
    lo;
    hi;
    eps;
    log_ratio;
    buckets = Array.make n 0;
    count = 0;
    sum = 0.;
    min_seen = infinity;
    max_seen = neg_infinity;
  }

let error_bound t = t.eps
let n_buckets t = Array.length t.buckets

let bucket_of t v =
  let v = Float.max t.lo (Float.min t.hi v) in
  let i = int_of_float (log (v /. t.lo) /. t.log_ratio) in
  Int.max 0 (Int.min (n_buckets t - 1) i)

(** Geometric midpoint of bucket [i] — the value quantile queries
    report. *)
let value_of t i =
  t.lo *. exp (float_of_int i *. t.log_ratio) *. (1. +. t.eps)

let add t v =
  let i = bucket_of t v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_seen then t.min_seen <- v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

(** [quantile t p] with [p] in [0, 100]: the value at rank
    [ceil (p/100 · count)] (nearest-rank), within [eps] relative error.
    Returns 0. on an empty sketch; exact min/max at the extremes. *)
let quantile t p =
  if t.count = 0 then 0.
  else if p <= 0. then t.min_seen
  else if p >= 100. then t.max_seen
  else begin
    let target = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
    let n = n_buckets t in
    let rec scan i acc =
      if i >= n then t.max_seen
      else
        let acc = acc + t.buckets.(i) in
        if acc >= target then value_of t i else scan (i + 1) acc
    in
    scan 0 0
  end

let p50 t = quantile t 50.
let p95 t = quantile t 95.
let p99 t = quantile t 99.
let p999 t = quantile t 99.9

(** Fold [src]'s samples into [into] (bucket-wise — exact, since both
    use the same geometry). Requires identical [lo]/[hi]/[eps]; merged
    queries carry the same [eps] bound as single-stream ingestion, which
    is what lets per-domain sketches fold into one on engine stop. *)
let merge ~into src =
  if into.lo <> src.lo || into.hi <> src.hi || into.eps <> src.eps then
    invalid_arg "Quantiles.merge: mismatched geometry";
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.min_seen < into.min_seen then into.min_seen <- src.min_seen;
  if src.max_seen > into.max_seen then into.max_seen <- src.max_seen

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.sum <- 0.;
  t.min_seen <- infinity;
  t.max_seen <- neg_infinity
