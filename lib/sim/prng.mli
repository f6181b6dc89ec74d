type t = { mutable state : int64; }
val create : ?seed:int64 -> unit -> t
val of_int : int -> t
val int : t -> int -> int
val float : t -> float
val bool : t -> bool
val exponential : t -> mean:float -> float
val gaussian : t -> mu:float -> sigma:float -> float
