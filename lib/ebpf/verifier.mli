(** Static verifier for eBPF programs — the model of the kernel verifier
    whose contract (bounded, memory-safe, type-safe bytecode) is what lets
    distributions support third-party programs (paper Sec 2.2.2), and
    whose restrictions (no loops, bounded complexity) are why a full OVS
    datapath cannot live in eBPF.

    Checks enforced:
    - structure: non-empty, size-capped, in-bounds jumps, no back edges
      (loop freedom), no falling off the end, a path-count ceiling;
    - registers: no reads of uninitialized registers, r10 read-only, r0
      initialized at exit, caller-saved registers clobbered by calls;
    - memory: packet loads/stores only below the offset proven by an
      explicit bounds check against [data_end]; stack access within the
      512-byte frame and only of initialized bytes; ctx read-only;
    - types: map values null-checked before dereference, helper argument
      types (including that [tail_call] gets a program array), no pointer
      arithmetic beyond constant offsets, no pointer/scalar comparisons. *)

type error = { pc : int; msg : string }

val verify : Insn.t array -> (unit, error) result
(** Explore every execution path of the program and return the first
    violation found, if any. Programs accepted here never raise
    {!Vm.Fault} at runtime (enforced by a fuzzing property test). *)

val pp_error : Format.formatter -> error -> unit
