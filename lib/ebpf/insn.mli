type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | R10
val reg_index : reg -> int
val reg_name : reg -> string
type src = Reg of reg | Imm of int
type alu_op =
    Add
  | Sub
  | Mul
  | Div
  | Or
  | And
  | Lsh
  | Rsh
  | Mod
  | Xor
  | Mov
  | Arsh
val alu_op_name : alu_op -> string
type size = B | H | W | DW
val size_bytes : size -> int
type cond =
    Jeq
  | Jne
  | Jgt
  | Jge
  | Jlt
  | Jle
  | Jsgt
  | Jsge
  | Jslt
  | Jsle
  | Jset
type helper =
    Map_lookup
  | Map_update
  | Map_delete
  | Redirect_map
  | Tail_call
  | Ktime_get_ns
  | Get_hash
  | Trace
type t =
    Alu64 of alu_op * reg * src
  | Alu32 of alu_op * reg * src
  | Neg of reg
  | Ld of size * reg * reg * int
  | St of size * reg * int * src
  | Ja of int
  | Jcond of cond * reg * src * int
  | Call of helper
  | Exit
  | Ld_map_fd of reg * int
val pp : Format.formatter -> t -> unit
val pp_program : Format.formatter -> t array -> unit
