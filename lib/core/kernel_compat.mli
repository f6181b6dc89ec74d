type version = { major : int; minor : int; }
val v : int -> int -> version
val at_least : version -> version -> bool
val parse : string -> version
type xdp_mode = Xdp_unavailable | Xdp_skb | Xdp_drv_copy | Xdp_drv_zerocopy
val select_mode :
  kernel:version -> driver_native:bool -> driver_zerocopy:bool -> xdp_mode
val has_need_wakeup : version -> bool
type attach_model = Whole_device | Per_queue
val attach_model : vendor:[< `Intel | `Mellanox | `Other ] -> attach_model
val afxdp_opts_of_mode : xdp_mode -> Ovs_datapath.Dpif.afxdp_opts option
