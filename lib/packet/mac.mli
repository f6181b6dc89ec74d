type t = int
val broadcast : t
val of_bytes : bytes -> off:t -> t
val to_bytes : t -> bytes -> off:t -> unit
val of_string : string -> t
val to_string : t -> string
val is_multicast : t -> bool
val of_index : t -> t
