type probe_result = { offered : int; delivered : int; }
val lossless : probe_result -> bool
type outcome = {
  ndr_pps : float;
  iterations : int;
  probes : (float * bool) list;
}
val search :
  ?iters:int ->
  lo:float -> hi:float -> probe:(float -> probe_result) -> unit -> outcome
