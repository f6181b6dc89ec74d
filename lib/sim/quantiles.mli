type t = {
  lo : float;
  hi : float;
  eps : float;
  log_ratio : float;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}
val create : ?lo:float -> ?hi:float -> ?eps:float -> unit -> t
val error_bound : t -> float
val add : t -> float -> unit
val count : t -> int
val sum : t -> float
val mean : t -> float
val quantile : t -> float -> float
val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
val p999 : t -> float
val merge : into:t -> t -> unit
val reset : t -> unit
