type builder
val builder : unit -> builder
val emit : builder -> Insn.t -> unit
val label : builder -> string -> unit
val finish : builder -> Insn.t array
val mov : builder -> Insn.reg -> int -> unit
val mov_reg : builder -> Insn.reg -> Insn.reg -> unit
val add : builder -> Insn.reg -> int -> unit
val and_ : builder -> Insn.reg -> int -> unit
val ld : builder -> Insn.size -> Insn.reg -> Insn.reg -> int -> unit
val st : builder -> Insn.size -> Insn.reg -> int -> Insn.src -> unit
val jmp : builder -> string -> unit
val jcond : builder -> Insn.cond -> Insn.reg -> Insn.src -> string -> unit
val call : builder -> Insn.helper -> unit
val ld_map_fd : builder -> Insn.reg -> Maps.t -> unit
val exit_ : builder -> unit
val ret : builder -> int -> unit
val xdp_drop : int
val xdp_pass : int
val xdp_tx : int
