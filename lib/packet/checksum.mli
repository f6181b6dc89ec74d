val compute : bytes -> off:int -> len:int -> int
val compute_pseudo :
  bytes -> off:int -> len:int -> src:int -> dst:int -> proto:int -> int
val verify : bytes -> off:int -> len:int -> bool
val verify_pseudo :
  bytes -> off:int -> len:int -> src:int -> dst:int -> proto:int -> bool
