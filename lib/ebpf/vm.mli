type action = Aborted | Drop | Pass | Tx | Redirect of Maps.kind * int
val action_name : action -> string
type stats = {
  mutable insns : int;
  mutable helper_calls : int;
  mutable map_lookups : int;
  mutable pkt_loads : int;
}
type outcome = { action : action; stats : stats; trace : int64 list; }
exception Fault of string
val register_program : Insn.t array -> int
val reset_programs : unit -> unit
type t = {
  stack : bytes;
  mutable stack_dirty : bool;
  regs : bytes;
  stats : stats;
  mutable trace : int64 list;
  mutable tail_depth : int;
  mutable redirect_target : int;
  mutable redirect_kind : Maps.kind;
  mutable map_value_refs : (int * int64) array;
  mutable n_refs : int;
}
val create : unit -> t
exception Tail_jump of Insn.t array
val run : t -> Insn.t array -> Ovs_packet.Buffer.t -> outcome
