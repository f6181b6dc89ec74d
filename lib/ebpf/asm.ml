(** A small assembler eDSL for writing eBPF programs in OCaml, standing in
    for the Clang/LLVM toolchain in the paper's Figure 4 workflow. Programs
    are built imperatively; named labels are resolved to relative jump
    offsets by {!finish}. *)

open Insn

type builder = {
  mutable rev_items : (Insn.t option * string option * string option) list;
      (** (instruction, jump-target label, label-defined-here), reversed *)
}

let builder () = { rev_items = [] }

let emit b insn = b.rev_items <- (Some insn, None, None) :: b.rev_items

let emit_jmp b insn label =
  b.rev_items <- (Some insn, Some label, None) :: b.rev_items

let label b name = b.rev_items <- (None, None, Some name) :: b.rev_items

(** Finish the program: resolve all label jumps to relative offsets.
    Raises [Invalid_argument] on unknown labels. *)
let finish b : Insn.t array =
  let items = List.rev b.rev_items in
  let pcs = Hashtbl.create 16 in
  let pc = ref 0 in
  List.iter
    (fun (insn, _, lbl) ->
      (match lbl with
      | Some name -> Hashtbl.replace pcs name !pc
      | None -> ());
      match insn with Some _ -> incr pc | None -> ())
    items;
  let out = ref [] in
  let at = ref 0 in
  List.iter
    (fun (insn, jump, _) ->
      match insn with
      | None -> ()
      | Some i ->
          let resolved =
            match jump with
            | None -> i
            | Some name -> begin
                let target =
                  match Hashtbl.find_opt pcs name with
                  | Some t -> t
                  | None -> invalid_arg ("Asm: unknown label " ^ name)
                in
                let off = target - (!at + 1) in
                match i with
                | Ja _ -> Ja off
                | Jcond (c, r, s, _) -> Jcond (c, r, s, off)
                | other -> other
              end
          in
          out := resolved :: !out;
          incr at)
    items;
  Array.of_list (List.rev !out)

(* -- convenience emitters -- *)

let mov b dst v = emit b (Alu64 (Mov, dst, Imm v))
let mov_reg b dst src = emit b (Alu64 (Mov, dst, Reg src))
let add b dst v = emit b (Alu64 (Add, dst, Imm v))
let and_ b dst v = emit b (Alu64 (And, dst, Imm v))
let ld b sz dst src off = emit b (Ld (sz, dst, src, off))
let st b sz dst off src = emit b (St (sz, dst, off, src))
let jmp b lbl = emit_jmp b (Ja 0) lbl
let jcond b c r s lbl = emit_jmp b (Jcond (c, r, s, 0)) lbl
let call b h = emit b (Call h)
let ld_map_fd b dst map = emit b (Ld_map_fd (dst, map.Maps.id))
let exit_ b = emit b Exit

(** [ret b code] sets r0 and exits. *)
let ret b code =
  mov b R0 code;
  exit_ b

let xdp_drop = 1
let xdp_pass = 2
let xdp_tx = 3
