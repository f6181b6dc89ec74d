type bridge = {
  name : string;
  pipeline : Ovs_ofproto.Pipeline.t;
  mutable ports : (string * int) list;
}
type t = {
  db : Ovs_ovsdb.Db.t;
  integration : bridge;
  underlay : bridge;
  spec : Ruleset.spec;
  mutable installed : int;
  mutable reconfigurations : int;
}
val create : ?spec:Ruleset.spec -> unit -> t
val install_policy : t -> Ruleset.stats
val install_policy_via_wire : t -> int * int
val add_port :
  t -> ?iface_type:string -> name:string -> port_no:int -> unit -> unit
type status = {
  bridges : int;
  ports : int;
  rules : int;
  reconfigurations : int;
}
val status : t -> status
