exception Reconfig_error of string
type swap_style = Naive | Two_phase
val pp_style : swap_style -> string
type op =
    Insert of string
  | Modify of string
  | Delete of string
  | Swap of { swap_style : swap_style; swap_flows : string list; }
type event = { at_s : float; ops : op list; }
type plan = { plan_name : string; events : event list; }
val plan_of_string : name:string -> string -> plan
val schema : Ovs_ovsdb.Db.schema
val store_plan : Ovs_ovsdb.Db.t -> plan -> unit
val load_plan : Ovs_ovsdb.Db.t -> name:string -> plan
val apply_ops : Ofconn.t -> op list -> int
val build_shadow : like:Pipeline.t -> string list -> Pipeline.t * int
val attach :
  Ovs_ovsdb.Db.t ->
  conn:Ofconn.t ->
  ?on_swap:(swap_style -> string list -> unit) ->
  unit -> (unit -> unit) * int ref
type upgrade_report = {
  up_style : swap_style;
  up_leg : string;
  up_shadow_rules : int;
  up_flow_mods : int;
  up_evicted : int;
  up_upcall_burst : int;
  up_offered : int;
  up_delivered : int;
  up_lost : int;
  up_recovery_ns : float;
}
val render_upgrade : upgrade_report -> (string -> unit) -> unit
