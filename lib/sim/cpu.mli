type category = User | System | Softirq | Guest
type times = {
  mutable user : float;
  mutable system : float;
  mutable softirq : float;
  mutable guest : float;
}
type ctx = { name : string; times : times; }
type t = { mutable ctxs : ctx list; }
val create : unit -> t
val ctx : t -> string -> ctx
val charge : ctx -> category -> float -> unit
val busy : ctx -> float
val reset : ctx -> unit
val wall : t -> float
type breakdown = {
  bd_system : float;
  bd_softirq : float;
  bd_guest : float;
  bd_user : float;
  bd_total : float;
}
val breakdown : ?poll_floor:ctx list -> t -> wall:float -> breakdown
val pp_breakdown : Format.formatter -> breakdown -> unit
