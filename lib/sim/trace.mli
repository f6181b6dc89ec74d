type stage =
    St_rx
  | St_extract
  | St_emc
  | St_smc
  | St_ccache
  | St_dpcls
  | St_upcall
  | St_install
  | St_action
  | St_conntrack
  | St_encap
  | St_decap
  | St_tx
val stage_name : stage -> string
type event = { ev_stage : stage; ev_detail : string; }
type t = {
  kind : string;
  hists : Histogram.t array;
  totals : float array;
  scratch : float array;
  mutable cur : int;
  mutable in_packet : bool;
  mutable packets : int;
  mutable walking : bool;
  mutable events : event list;
}
val create : kind:string -> unit -> t
val packets : t -> int
val reset : t -> unit
val set_stage : t -> stage -> unit
val on_charge : t -> float -> unit
val packet_begin : t -> unit
val packet_end : t -> unit
val walking : t -> bool
val start_walk : t -> unit
val stop_walk : t -> event list
val note : t -> stage -> string -> unit
val total : t -> float
val last_packet : t -> (stage * float) list
val render : t -> string
