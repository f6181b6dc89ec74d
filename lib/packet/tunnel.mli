type kind = Geneve | Vxlan | Gre | Erspan
val overhead : kind -> int
val kind_to_string : kind -> string
val encap :
  Buffer.t ->
  kind ->
  ?fill_csum:bool ->
  vni:int ->
  src_mac:int -> dst_mac:int -> src_ip:int -> dst_ip:int -> unit -> unit
type decap_result = { kind : kind; md : Buffer.tunnel_md; }
val decap : Buffer.t -> decap_result option
