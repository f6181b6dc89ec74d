type counter = {
  name : string;
  mutable merged : int;
  local : int ref Domain.DLS.key;
}
val counter : string -> counter
val incr : ?n:int -> counter -> unit
val flush_domain : unit -> unit
val read : string -> int
val show : ?nonzero:bool -> unit -> string
val reset : unit -> unit
