val segment : Buffer.t -> mtu:int -> Buffer.t list
