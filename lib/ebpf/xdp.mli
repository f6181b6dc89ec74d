(** The XDP hook: verified program attachment and costed execution.

    Loading verifies the program exactly as the kernel would at attach
    time (the Fig 4 workflow); running it reports the virtual-time cost
    derived from the instructions, helpers and map lookups actually
    executed — the sandbox overhead behind Table 5 and Fig 2's eBPF bar. *)

type t = {
  name : string;
  prog : Insn.t array;
  prog_id : int;  (** registration id, installable into a prog_array *)
  vm : Vm.t;
  mutable runs : int;
  mutable total_insns : int;
}

val load : name:string -> Insn.t array -> (t, Verifier.error) result
(** Verify and attach; [Error] carries the verifier's diagnosis. *)

val load_exn : name:string -> Insn.t array -> t
(** @raise Failure when the verifier rejects the program. *)

val run : t -> Ovs_sim.Costs.t -> Ovs_packet.Buffer.t -> Vm.action * Ovs_sim.Time.ns
(** Execute over a packet; returns the XDP verdict and the charged cost. *)

val install_in_prog_array : t -> Maps.t -> slot:int -> unit
(** Make this program tail-callable from others through a [Prog_array]. *)

val mean_insns_per_run : t -> float
