val write : (float * Ovs_packet.Buffer.t) list -> bytes
val read : bytes -> (float * bytes) list
