type t = {
  lo : float;
  hi : float;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_seen : float;
  mutable max_seen : float;
}
val create : ?lo:float -> ?hi:float -> unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val percentile : t -> float -> float
val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
