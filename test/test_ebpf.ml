(* Tests for the eBPF substrate: assembler, interpreter, verifier, maps,
   XDP hook, and the program library. *)

open Ovs_ebpf
module Insn = Insn
module B = Ovs_packet.Build

let check = Alcotest.check

let fresh_maps () = Maps.reset_registry ()

(* a minimal packet the parse programs accept *)
let ipv4_packet () = B.udp ~frame_len:64 ()

let run_prog ?(pkt = ipv4_packet ()) prog =
  let vm = Vm.create () in
  Vm.run vm prog pkt

let verify_ok name prog =
  match Verifier.verify prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s rejected: %a" name Verifier.pp_error e

let verify_rejected name prog =
  match Verifier.verify prog with
  | Ok () -> Alcotest.failf "%s unexpectedly accepted" name
  | Error _ -> ()

(* -- assembler -- *)

let test_asm_label_resolution () =
  let b = Asm.builder () in
  Asm.jcond b Insn.Jeq Insn.R1 (Insn.Imm 0) "skip";
  Asm.mov b Insn.R0 1;
  Asm.exit_ b;
  Asm.label b "skip";
  Asm.mov b Insn.R0 2;
  Asm.exit_ b;
  let prog = Asm.finish b in
  (match prog.(0) with
  | Insn.Jcond (_, _, _, 2) -> ()
  | i -> Alcotest.failf "bad offset: %a" Insn.pp i);
  check Alcotest.int "length" 5 (Array.length prog)

let test_asm_unknown_label () =
  let b = Asm.builder () in
  Asm.jmp b "nowhere";
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Asm: unknown label nowhere") (fun () ->
      ignore (Asm.finish b))

let test_asm_backward_label () =
  let b = Asm.builder () in
  Asm.label b "top";
  Asm.mov b Insn.R0 0;
  Asm.jmp b "top";
  let prog = Asm.finish b in
  match prog.(1) with
  | Insn.Ja off -> check Alcotest.int "negative offset" (-2) off
  | i -> Alcotest.failf "unexpected %a" Insn.pp i

(* -- interpreter -- *)

let test_vm_alu64 () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 10;
  Asm.emit b (Insn.Alu64 (Insn.Add, Insn.R0, Insn.Imm 5));
  Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R0, Insn.Imm 3));
  Asm.emit b (Insn.Alu64 (Insn.Sub, Insn.R0, Insn.Imm 44));
  Asm.exit_ b;
  let o = run_prog (Asm.finish b) in
  (* (10+5)*3-44 = 1 = XDP_DROP *)
  Alcotest.(check bool) "alu result" true (o.Vm.action = Vm.Drop)

let test_vm_alu32_truncates () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 0;
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R2, Insn.Imm max_int));
  Asm.emit b (Insn.Alu32 (Insn.Add, Insn.R2, Insn.Imm 1));
  (* low 32 bits of max_int are 0xFFFFFFFF; +1 truncated to 32 bits = 0 *)
  Asm.jcond b Insn.Jeq Insn.R2 (Insn.Imm 0) "ok";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  Alcotest.(check bool) "32-bit wrap" true (o.Vm.action = Vm.Pass)

let test_vm_stack_store_load () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 0xABCD;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld b Insn.DW Insn.R3 Insn.R10 (-8);
  Asm.jcond b Insn.Jeq Insn.R3 (Insn.Reg Insn.R2) "ok";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  Alcotest.(check bool) "stack roundtrip" true (o.Vm.action = Vm.Pass)

let test_vm_packet_load () =
  (* read the ethertype (offset 12, 16-bit) and check it's 0x0800 *)
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 14;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "bad";
  Asm.ld b Insn.H Insn.R5 Insn.R2 12;
  Asm.jcond b Insn.Jeq Insn.R5 (Insn.Imm 0x0800) "ok";
  Asm.label b "bad";
  Asm.ret b 0;
  Asm.label b "ok";
  Asm.ret b 2;
  let prog = Asm.finish b in
  verify_ok "packet load" prog;
  let o = run_prog prog in
  Alcotest.(check bool) "read ethertype" true (o.Vm.action = Vm.Pass)

let test_vm_packet_store_mutates () =
  let pkt = ipv4_packet () in
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 14;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "out";
  Asm.st b Insn.B Insn.R2 0 (Insn.Imm 0x5A);
  Asm.label b "out";
  Asm.ret b 2;
  ignore (run_prog ~pkt (Asm.finish b));
  check Alcotest.int "first byte rewritten" 0x5A (Ovs_packet.Buffer.get_u8 pkt 0)

let test_vm_div_by_zero_yields_zero () =
  (* BPF semantics since Linux 4.11: runtime division by zero produces 0
     rather than a fault, so verified programs can never trap on it *)
  let prog =
    [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 4);
       Insn.Alu64 (Insn.Mov, Insn.R1, Insn.Imm 0);
       Insn.Alu64 (Insn.Div, Insn.R0, Insn.Reg Insn.R1);
       Insn.Exit |]
  in
  let o = run_prog prog in
  Alcotest.(check bool) "result is 0 (XDP_ABORTED)" true (o.Vm.action = Vm.Aborted)

let test_vm_insn_counting () =
  let b = Asm.builder () in
  Asm.mov b Insn.R0 2;
  Asm.exit_ b;
  let o = run_prog (Asm.finish b) in
  check Alcotest.int "insns" 2 o.Vm.stats.Vm.insns

let test_vm_trace_helper () =
  let b = Asm.builder () in
  Asm.mov b Insn.R1 42;
  Asm.call b Insn.Trace;
  Asm.ret b 2;
  let o = run_prog (Asm.finish b) in
  check (Alcotest.list Alcotest.int64) "trace" [ 42L ] o.Vm.trace

(* -- maps -- *)

let test_maps_hash_ops () =
  fresh_maps ();
  let m = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:4 in
  Alcotest.(check bool) "miss" true (Maps.lookup m 1L = None);
  Alcotest.(check bool) "insert" true (Maps.update m 1L 100L);
  Alcotest.(check bool) "hit" true (Maps.lookup m 1L = Some 100L);
  Alcotest.(check bool) "overwrite" true (Maps.update m 1L 200L);
  Alcotest.(check bool) "new value" true (Maps.lookup m 1L = Some 200L);
  Maps.delete m 1L;
  Alcotest.(check bool) "deleted" true (Maps.lookup m 1L = None)

let test_maps_hash_full () =
  fresh_maps ();
  let m = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:2 in
  Alcotest.(check bool) "1" true (Maps.update m 1L 1L);
  Alcotest.(check bool) "2" true (Maps.update m 2L 2L);
  Alcotest.(check bool) "full" false (Maps.update m 3L 3L);
  Alcotest.(check bool) "existing key still updatable" true (Maps.update m 1L 9L)

let test_maps_array_bounds () =
  fresh_maps ();
  let m = Maps.create ~name:"a" ~kind:Maps.Array ~max_entries:4 in
  Alcotest.(check bool) "in range" true (Maps.update m 3L 7L);
  Alcotest.(check bool) "read back" true (Maps.lookup m 3L = Some 7L);
  Alcotest.(check bool) "out of range update" false (Maps.update m 4L 7L);
  Alcotest.(check bool) "out of range lookup" true (Maps.lookup m 9L = None)

let test_map_lookup_from_bytecode () =
  fresh_maps ();
  let m = Maps.create ~name:"t" ~kind:Maps.Hash ~max_entries:8 in
  ignore (Maps.update m 5L 77L);
  let b = Asm.builder () in
  Asm.mov b Insn.R2 5;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) "miss";
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.jcond b Insn.Jeq Insn.R3 (Insn.Imm 77) "hit";
  Asm.label b "miss";
  Asm.ret b 0;
  Asm.label b "hit";
  Asm.ret b 2;
  let prog = Asm.finish b in
  verify_ok "map lookup prog" prog;
  let o = run_prog prog in
  Alcotest.(check bool) "value read through pointer" true (o.Vm.action = Vm.Pass);
  check Alcotest.int "map lookups counted" 1 o.Vm.stats.Vm.map_lookups

(* -- verifier -- *)

let test_verifier_rejects_loop () =
  let prog = [| Insn.Ja (-1) |] in
  verify_rejected "backward jump" prog

let test_verifier_rejects_uninit_read () =
  let prog = [| Insn.Alu64 (Insn.Add, Insn.R3, Insn.Imm 1); Insn.Exit |] in
  verify_rejected "uninitialized register" prog

let test_verifier_rejects_missing_r0 () =
  let prog = [| Insn.Exit |] in
  verify_rejected "r0 uninitialized at exit" prog

let test_verifier_rejects_unchecked_packet_access () =
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  (* no bounds check against data_end *)
  Asm.ld b Insn.H Insn.R3 Insn.R2 12;
  Asm.ret b 1;
  verify_rejected "unchecked packet load" (Asm.finish b)

let test_verifier_rejects_check_too_small () =
  let b = Asm.builder () in
  Asm.ld b Insn.W Insn.R2 Insn.R1 0;
  Asm.ld b Insn.W Insn.R3 Insn.R1 4;
  Asm.mov_reg b Insn.R4 Insn.R2;
  Asm.add b Insn.R4 10;
  Asm.jcond b Insn.Jgt Insn.R4 (Insn.Reg Insn.R3) "out";
  (* checked 10 bytes, then read at offset 12: must be rejected *)
  Asm.ld b Insn.H Insn.R5 Insn.R2 12;
  Asm.label b "out";
  Asm.ret b 1;
  verify_rejected "bounds check too small" (Asm.finish b)

let test_verifier_rejects_stack_oob () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-520) (Insn.Reg Insn.R2);
  Asm.ret b 1;
  verify_rejected "stack out of frame" (Asm.finish b)

let test_verifier_rejects_uninit_stack_read () =
  let b = Asm.builder () in
  Asm.ld b Insn.DW Insn.R2 Insn.R10 (-16);
  Asm.ret b 1;
  verify_rejected "uninitialized stack read" (Asm.finish b)

let test_verifier_rejects_null_deref () =
  fresh_maps ();
  let m = Maps.create ~name:"m" ~kind:Maps.Hash ~max_entries:4 in
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  (* dereference without checking for NULL *)
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.ret b 1;
  verify_rejected "null map value deref" (Asm.finish b)

let test_verifier_rejects_ctx_store () =
  let b = Asm.builder () in
  Asm.st b Insn.W Insn.R1 0 (Insn.Imm 0);
  Asm.ret b 1;
  verify_rejected "ctx is read-only" (Asm.finish b)

let test_verifier_rejects_r10_write () =
  let b = Asm.builder () in
  Asm.mov b Insn.R10 0;
  Asm.ret b 1;
  verify_rejected "r10 read-only" (Asm.finish b)

let test_verifier_rejects_pointer_arith () =
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R1, Insn.Imm 2));
  Asm.ret b 1;
  verify_rejected "pointer multiplication" (Asm.finish b)

let test_verifier_rejects_pointer_leak_compare () =
  let b = Asm.builder () in
  Asm.mov b Insn.R2 5;
  (* compare ctx pointer with a scalar *)
  Asm.jcond b Insn.Jgt Insn.R1 (Insn.Reg Insn.R2) "x";
  Asm.label b "x";
  Asm.ret b 1;
  verify_rejected "pointer/scalar comparison" (Asm.finish b)

let test_verifier_rejects_div_zero_imm () =
  let prog =
    [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 1);
       Insn.Alu64 (Insn.Div, Insn.R0, Insn.Imm 0);
       Insn.Exit |]
  in
  verify_rejected "constant division by zero" prog

let test_verifier_rejects_oob_jump () =
  let prog = [| Insn.Ja 5; Insn.Exit |] in
  verify_rejected "jump out of bounds" prog

let test_verifier_rejects_fallthrough_end () =
  let prog = [| Insn.Alu64 (Insn.Mov, Insn.R0, Insn.Imm 0) |] in
  verify_rejected "falls off the end" prog

let test_verifier_rejects_empty () = verify_rejected "empty" [||]

let test_verifier_accepts_null_checked_deref () =
  fresh_maps ();
  let m = Maps.create ~name:"m" ~kind:Maps.Hash ~max_entries:4 in
  let b = Asm.builder () in
  Asm.mov b Insn.R2 1;
  Asm.st b Insn.DW Insn.R10 (-8) (Insn.Reg Insn.R2);
  Asm.ld_map_fd b Insn.R1 m;
  Asm.mov_reg b Insn.R2 Insn.R10;
  Asm.add b Insn.R2 (-8);
  Asm.call b Insn.Map_lookup;
  Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) "null";
  Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
  Asm.label b "null";
  Asm.ret b 1;
  verify_ok "null-checked deref" (Asm.finish b)

let test_verifier_whole_program_library () =
  fresh_maps ();
  let l2_table = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:64 in
  let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:64 in
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:16 in
  let mac_to_dev = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:16 in
  List.iter
    (fun (name, prog) -> verify_ok name prog)
    (Progs.all ~l2_table ~sessions ~xskmap ~mac_to_dev)

(* property: straight-line ALU programs over initialized registers always
   verify and never fault *)
let prop_straightline_alu_safe =
  QCheck.Test.make ~count:200 ~name:"straight-line ALU programs are safe"
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 7) small_nat))
    (fun ops ->
      let b = Asm.builder () in
      Asm.mov b Insn.R0 1;
      Asm.mov b Insn.R2 7;
      List.iter
        (fun (op, v) ->
          let v = 1 + v in
          let alu =
            match op with
            | 0 -> Insn.Add
            | 1 -> Insn.Sub
            | 2 -> Insn.Mul
            | 3 -> Insn.Or
            | 4 -> Insn.And
            | 5 -> Insn.Xor
            | 6 -> Insn.Div
            | _ -> Insn.Mod
          in
          Asm.emit b (Insn.Alu64 (alu, Insn.R2, Insn.Imm v)))
        ops;
      Asm.exit_ b;
      let prog = Asm.finish b in
      match Verifier.verify prog with
      | Error _ -> false
      | Ok () -> (
          try
            ignore (run_prog prog);
            true
          with Vm.Fault _ -> false))

(* Soundness fuzz: build programs from safe templates, then corrupt one
   instruction at random. Whatever the verifier still accepts must never
   fault at runtime, on packets of any length — the verifier's entire
   contract (Sec 2.2.2's "distributions are willing to support third-party
   eBPF programs because of eBPF's safe, sandboxed implementation"). *)
let prop_verifier_soundness =
  QCheck.Test.make ~count:400 ~name:"verifier acceptance implies no runtime fault"
    QCheck.(pair small_int (int_range 0 120))
    (fun (seed, pkt_len) ->
      fresh_maps ();
      let prng = Ovs_sim.Prng.of_int (seed * 7919) in
      let m = Maps.create ~name:"f" ~kind:Maps.Hash ~max_entries:8 in
      ignore (Maps.update m 1L 5L);
      let b = Asm.builder () in
      let n_blocks = 1 + Ovs_sim.Prng.int prng 5 in
      Asm.mov b Insn.R0 2;
      for blk = 0 to n_blocks - 1 do
        let lbl = Printf.sprintf "b%d" blk in
        match Ovs_sim.Prng.int prng 5 with
        | 0 ->
            (* ALU play on scratch registers *)
            Asm.mov b Insn.R2 (Ovs_sim.Prng.int prng 1000);
            Asm.emit b (Insn.Alu64 (Insn.Mul, Insn.R2, Insn.Imm 3));
            Asm.emit b (Insn.Alu32 (Insn.Add, Insn.R2, Insn.Imm 7))
        | 1 ->
            (* stack roundtrip *)
            Asm.mov b Insn.R3 blk;
            Asm.st b Insn.DW Insn.R10 (-8 - (8 * (blk mod 4))) (Insn.Reg Insn.R3);
            Asm.ld b Insn.DW Insn.R4 Insn.R10 (-8 - (8 * (blk mod 4)))
        | 2 ->
            (* guarded packet read *)
            Asm.ld b Insn.W Insn.R6 Insn.R1 0;
            Asm.ld b Insn.W Insn.R7 Insn.R1 4;
            Asm.mov_reg b Insn.R8 Insn.R6;
            Asm.add b Insn.R8 (14 + Ovs_sim.Prng.int prng 30);
            Asm.jcond b Insn.Jgt Insn.R8 (Insn.Reg Insn.R7) lbl;
            Asm.ld b Insn.H Insn.R5 Insn.R6 (Ovs_sim.Prng.int prng 12);
            Asm.label b lbl
        | 3 ->
            (* map lookup with null check *)
            Asm.mov b Insn.R2 1;
            Asm.st b Insn.DW Insn.R10 (-16) (Insn.Reg Insn.R2);
            Asm.ld_map_fd b Insn.R1 m;
            Asm.mov_reg b Insn.R2 Insn.R10;
            Asm.add b Insn.R2 (-16);
            Asm.call b Insn.Map_lookup;
            Asm.jcond b Insn.Jeq Insn.R0 (Insn.Imm 0) lbl;
            Asm.ld b Insn.DW Insn.R3 Insn.R0 0;
            Asm.label b lbl;
            Asm.mov b Insn.R0 2
        | _ ->
            (* forward branch over a few instructions *)
            Asm.mov b Insn.R5 (Ovs_sim.Prng.int prng 10);
            Asm.jcond b Insn.Jgt Insn.R5 (Insn.Imm 5) lbl;
            Asm.emit b (Insn.Alu64 (Insn.Xor, Insn.R5, Insn.Imm 3));
            Asm.label b lbl
      done;
      Asm.exit_ b;
      let prog = Asm.finish b in
      (* corrupt one instruction *)
      let mutate prog =
        let p = Array.copy prog in
        let i = Ovs_sim.Prng.int prng (Array.length p) in
        let regs = [| Insn.R0; Insn.R1; Insn.R2; Insn.R3; Insn.R5; Insn.R6; Insn.R9; Insn.R10 |] in
        let r () = regs.(Ovs_sim.Prng.int prng (Array.length regs)) in
        (p.(i) <-
          (match Ovs_sim.Prng.int prng 5 with
          | 0 -> Insn.Alu64 (Insn.Mov, r (), Insn.Reg (r ()))
          | 1 -> Insn.Ld (Insn.DW, r (), r (), Ovs_sim.Prng.int prng 64 - 32)
          | 2 -> Insn.Jcond (Insn.Jgt, r (), Insn.Imm (Ovs_sim.Prng.int prng 100),
                             Ovs_sim.Prng.int prng 6)
          | 3 -> Insn.St (Insn.W, r (), Ovs_sim.Prng.int prng 32 - 16, Insn.Imm 7)
          | _ -> Insn.Exit));
        p
      in
      let candidate = if Ovs_sim.Prng.bool prng then mutate prog else prog in
      match Verifier.verify candidate with
      | Error _ -> true  (* rejection is always sound *)
      | Ok () -> (
          let pkt =
            let buf = Ovs_packet.Buffer.create ~size:(Int.max pkt_len 1) () in
            Ovs_packet.Buffer.put buf pkt_len;
            buf
          in
          try
            ignore (run_prog ~pkt candidate);
            true
          with Vm.Fault msg ->
            QCheck.Test.fail_reportf "verified program faulted: %s" msg))

(* -- the XDP program library semantics -- *)

let test_prog_task_d_swaps_macs () =
  let pkt =
    B.udp ~src_mac:(Ovs_packet.Mac.of_index 11) ~dst_mac:(Ovs_packet.Mac.of_index 22) ()
  in
  let o = run_prog ~pkt Progs.task_d in
  Alcotest.(check bool) "tx" true (o.Vm.action = Vm.Tx);
  check Alcotest.int "dst is old src" (Ovs_packet.Mac.of_index 11)
    (Ovs_packet.Ethernet.get_dst pkt);
  check Alcotest.int "src is old dst" (Ovs_packet.Mac.of_index 22)
    (Ovs_packet.Ethernet.get_src pkt)

let test_prog_task_b_drops_non_ip () =
  let pkt = B.arp ~spa:1 ~tpa:2 () in
  let o = run_prog ~pkt Progs.task_b in
  Alcotest.(check bool) "drop" true (o.Vm.action = Vm.Drop)

let test_prog_xsk_default_redirects () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let o = run_prog (Progs.xsk_default ~xskmap) in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Xskmap, 0) -> ()
  | a -> Alcotest.failf "expected xsk redirect, got %s" (Vm.action_name a))

let test_prog_xsk_default_passes_unbound_queue () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  (* queue 0 not bound: management traffic falls through to the stack *)
  let o = run_prog (Progs.xsk_default ~xskmap) in
  Alcotest.(check bool) "pass" true (o.Vm.action = Vm.Pass)

let test_prog_veth_redirect_by_mac () =
  fresh_maps ();
  let macs = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:8 in
  let dst = Ovs_packet.Mac.of_index 2 in
  ignore (Maps.update macs (Int64.of_int dst) 5L);
  let pkt = B.udp ~dst_mac:dst () in
  let o = run_prog ~pkt (Progs.veth_redirect ~mac_to_dev:macs) in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Devmap, 5) -> ()
  | a -> Alcotest.failf "expected devmap redirect, got %s" (Vm.action_name a));
  (* unknown mac passes to the stack/userspace *)
  let pkt2 = B.udp ~dst_mac:(Ovs_packet.Mac.of_index 9) () in
  let o2 = run_prog ~pkt:pkt2 (Progs.veth_redirect ~mac_to_dev:macs) in
  Alcotest.(check bool) "miss passes" true (o2.Vm.action = Vm.Pass)

let test_prog_l4_lb_hit_and_miss () =
  fresh_maps ();
  let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:64 in
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let prog = Progs.l4_load_balancer ~sessions ~xskmap in
  (* a miss goes to userspace through the xskmap *)
  let pkt = ipv4_packet () in
  let o = run_prog ~pkt prog in
  (match o.Vm.action with
  | Vm.Redirect (Maps.Xskmap, _) -> ()
  | a -> Alcotest.failf "miss should upcall, got %s" (Vm.action_name a));
  (* compute the same 5-tuple key the program computes and install it *)
  let key = ref 0L in
  let k = Ovs_packet.Flow_key.extract pkt in
  let open Ovs_packet.Flow_key in
  let src = Int64.of_int (get k Field.Nw_src) in
  let dst = Int64.shift_left (Int64.of_int (get k Field.Nw_dst)) 17 in
  let ports =
    Int64.shift_left
      (Int64.of_int ((get k Field.Tp_src lsl 16) lor get k Field.Tp_dst))
      31
  in
  key := Int64.logxor (Int64.logxor src dst) ports;
  key := Int64.logxor !key (Int64.of_int (get k Field.Nw_proto));
  let backend_mac = Int64.of_int (Ovs_packet.Mac.of_index 33) in
  ignore (Maps.update sessions !key backend_mac);
  let pkt2 = ipv4_packet () in
  let o2 = run_prog ~pkt:pkt2 prog in
  Alcotest.(check bool) "session hit transmits directly" true (o2.Vm.action = Vm.Tx);
  check Alcotest.int "backend mac written" (Ovs_packet.Mac.of_index 33)
    (Ovs_packet.Ethernet.get_dst pkt2)

let test_prog_steer_control () =
  fresh_maps ();
  let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:4 in
  ignore (Maps.update xskmap 0L 0L);
  let prog = Progs.steer_control ~xskmap in
  (* OpenFlow (TCP 6653) stays on the kernel path *)
  let of_pkt = B.tcp ~dst_port:6653 () in
  let o = run_prog ~pkt:of_pkt prog in
  Alcotest.(check bool) "openflow passes to stack" true (o.Vm.action = Vm.Pass);
  (* ARP stays on the kernel path *)
  let arp_pkt = B.arp ~spa:1 ~tpa:2 () in
  let o2 = run_prog ~pkt:arp_pkt prog in
  Alcotest.(check bool) "arp passes to stack" true (o2.Vm.action = Vm.Pass);
  (* data plane traffic goes to userspace *)
  let data = ipv4_packet () in
  let o3 = run_prog ~pkt:data prog in
  (match o3.Vm.action with
  | Vm.Redirect (Maps.Xskmap, _) -> ()
  | a -> Alcotest.failf "data should go to OVS, got %s" (Vm.action_name a))

(* -- tail calls (Sec 2.2.2's program chaining) -- *)

let tail_call_prog ~(prog_array : Maps.t) ~slot ~fallthrough =
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm slot));
  Asm.ld_map_fd b Insn.R2 prog_array;
  (* r1 already holds ctx at program start *)
  Asm.call b Insn.Tail_call;
  Asm.ret b fallthrough;
  Asm.finish b

let test_tail_call_jumps_into_target () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:4 in
  let target = Xdp.load_exn ~name:"stage2" Progs.pass_all in
  Xdp.install_in_prog_array target pa ~slot:0;
  let caller = tail_call_prog ~prog_array:pa ~slot:0 ~fallthrough:Asm.xdp_drop in
  verify_ok "tail caller" caller;
  let o = run_prog caller in
  Alcotest.(check bool) "jumped into stage2 (PASS)" true (o.Vm.action = Vm.Pass)

let test_tail_call_empty_slot_falls_through () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:4 in
  let caller = tail_call_prog ~prog_array:pa ~slot:2 ~fallthrough:Asm.xdp_drop in
  let o = run_prog caller in
  Alcotest.(check bool) "fell through (DROP)" true (o.Vm.action = Vm.Drop)

let test_tail_call_depth_bounded () =
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"progs" ~kind:Maps.Prog_array ~max_entries:1 in
  (* a program that tail-calls itself: must stop at the depth limit and
     take its own fallthrough, not spin forever *)
  let self = tail_call_prog ~prog_array:pa ~slot:0 ~fallthrough:Asm.xdp_pass in
  let id = Vm.register_program self in
  ignore (Maps.update pa 0L (Int64.of_int id));
  let o = run_prog self in
  Alcotest.(check bool) "terminates via fallthrough" true (o.Vm.action = Vm.Pass);
  Alcotest.(check bool) "bounded work" true (o.Vm.stats.Vm.insns < 200)

let test_tail_call_three_stage_pipeline () =
  (* the eBPF datapath pattern: parse -> lookup -> act as chained stages *)
  fresh_maps ();
  Vm.reset_programs ();
  let pa = Maps.create ~name:"stages" ~kind:Maps.Prog_array ~max_entries:4 in
  let stage3 = Xdp.load_exn ~name:"act" Progs.task_d in
  Xdp.install_in_prog_array stage3 pa ~slot:2;
  let stage2 = Xdp.load_exn ~name:"lookup" (tail_call_prog ~prog_array:pa ~slot:2 ~fallthrough:Asm.xdp_drop) in
  Xdp.install_in_prog_array stage2 pa ~slot:1;
  let stage1 = tail_call_prog ~prog_array:pa ~slot:1 ~fallthrough:Asm.xdp_drop in
  verify_ok "stage1" stage1;
  let pkt = ipv4_packet () in
  let o = run_prog ~pkt stage1 in
  Alcotest.(check bool) "chained to the act stage (TX)" true (o.Vm.action = Vm.Tx)

let test_verifier_tail_call_types () =
  fresh_maps ();
  let h = Maps.create ~name:"h" ~kind:Maps.Hash ~max_entries:4 in
  (* a hash map is not a prog_array *)
  let b = Asm.builder () in
  Asm.emit b (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm 0));
  Asm.ld_map_fd b Insn.R2 h;
  Asm.call b Insn.Tail_call;
  Asm.ret b 2;
  verify_rejected "tail_call on hash map" (Asm.finish b);
  (* r1 must still be the context *)
  let b2 = Asm.builder () in
  let pa = Maps.create ~name:"p" ~kind:Maps.Prog_array ~max_entries:4 in
  Asm.mov b2 Insn.R1 0;
  Asm.emit b2 (Insn.Alu64 (Insn.Mov, Insn.R3, Insn.Imm 0));
  Asm.ld_map_fd b2 Insn.R2 pa;
  Asm.call b2 Insn.Tail_call;
  Asm.ret b2 2;
  verify_rejected "tail_call without ctx" (Asm.finish b2)

let test_xdp_hook_cost_grows_with_complexity () =
  fresh_maps ();
  let c = Ovs_sim.Costs.default in
  let l2 = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:8 in
  let run prog =
    let hook = Xdp.load_exn ~name:"t" prog in
    snd (Xdp.run hook c (ipv4_packet ()))
  in
  let a = run Progs.task_a in
  let bp = run Progs.task_b in
  let cp = run (Progs.task_c ~l2_table:l2) in
  Alcotest.(check bool) "B dearer than A" true (bp > a);
  Alcotest.(check bool) "C dearer than B" true (cp > bp)

let test_xdp_load_rejects_bad_program () =
  match Xdp.load ~name:"bad" [| Insn.Ja (-1) |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loader accepted a looping program"

(* -- pinned interpreter behaviour --

   Every library program (plus a few hand-written ones that reach the
   trace, map-update/delete, ALU32, negation and tail-call paths) over a
   frame corpus. Each run is rendered as the action, the four execution
   statistics, the trace and a digest of the packet bytes afterwards,
   and each program's corpus ends with the contents of every map. The
   rendering is compared against
   [golden_vm_rows]: the interpreter may be rewritten, but not change
   what any of these observe. *)

let golden_frames () =
  let module Buf = Ovs_packet.Buffer in
  let raw bytes =
    let buf = Buf.create ~size:(String.length bytes) () in
    Buf.put buf (String.length bytes);
    Bytes.blit_string bytes 0 buf.Buf.data (Buf.abs buf 0) (String.length bytes);
    buf
  in
  let ipv6 () =
    let open Ovs_packet in
    let frame_len = Ethernet.header_len + Ipv6.header_len + Udp.header_len + 10 in
    let buf = Buf.create ~size:frame_len () in
    Buf.put buf frame_len;
    Ethernet.write buf ~dst:(Mac.of_index 2) ~src:(Mac.of_index 1)
      ~eth_type:Ethernet.Ethertype.ipv6;
    Ipv6.write buf ~next_header:Ipv4.Proto.udp ~src:(Ipv6.addr_of_int 5)
      ~dst:(Ipv6.addr_of_int 0x1234) ~payload_len:(Udp.header_len + 10) ();
    Buf.set_u16 buf buf.Buf.l4_ofs 53;
    Buf.set_u16 buf (buf.Buf.l4_ofs + 2) 5353;
    buf
  in
  let vlan () =
    let p = B.udp () in
    Ovs_packet.Ethernet.push_vlan p ~tci:0x0064;
    p
  in
  [
    ("udp", B.udp ());
    ("udp-other", B.udp ~src_port:7 ~dst_port:9 ~dst_mac:(Ovs_packet.Mac.of_index 3) ());
    ("udp-1518", B.udp ~frame_len:1518 ());
    ("tcp", B.tcp ~flags:Ovs_packet.Tcp.Flags.syn ());
    ("tcp-6653", B.tcp ~dst_port:6653 ());
    ("icmp", B.icmp ());
    ("arp", B.arp ~spa:0x0a000001 ~tpa:0x0a000002 ());
    ("ipv6", ipv6 ());
    ("vlan", vlan ());
    ("runt-10", raw "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00");
    ("runt-13", raw "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08");
    ("vlan-runt", raw "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x81\x00\x00\x64");
    ("ipv4-cut", raw "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08\x00\x45\x00\x00\x14\x00\x00");
  ]

(* The hand-written programs: trace, stack (including a slot the previous
   run wrote), map update/delete, ALU32 and negation, and a two-stage
   tail call. *)
let golden_extra_progs ~l2_table ~prog_array =
  let open Insn in
  let b = Asm.builder () in
  (* a stack slot no earlier instruction wrote: every run must read 0,
     though the previous run on this VM left 0x55 there *)
  Asm.ld b DW R1 R10 (-24);
  Asm.call b Trace;
  Asm.st b DW R10 (-24) (Imm 0x55);
  Asm.mov b R1 7;
  Asm.call b Trace;
  Asm.mov b R2 0x1234;
  Asm.st b DW R10 (-8) (Reg R2);
  Asm.st b DW R10 (-16) (Imm 99);
  Asm.ld_map_fd b R1 l2_table;
  Asm.mov_reg b R2 R10;
  Asm.add b R2 (-8);
  Asm.mov_reg b R3 R10;
  Asm.add b R3 (-16);
  Asm.call b Map_update;
  Asm.mov_reg b R1 R0;
  Asm.call b Trace;
  Asm.ld_map_fd b R1 l2_table;
  Asm.mov_reg b R2 R10;
  Asm.add b R2 (-8);
  Asm.call b Map_lookup;
  Asm.jcond b Jeq R0 (Imm 0) "skip";
  Asm.st b DW R0 0 (Imm 0x77);
  Asm.ld b DW R1 R0 0;
  Asm.call b Trace;
  Asm.label b "skip";
  Asm.ld_map_fd b R1 l2_table;
  Asm.mov_reg b R2 R10;
  Asm.add b R2 (-8);
  Asm.call b Map_delete;
  Asm.mov b R4 (-5);
  Asm.emit b (Alu32 (Add, R4, Imm 3));
  Asm.emit b (Neg R4);
  Asm.emit b (Alu64 (Arsh, R4, Imm 1));
  Asm.emit b (Alu64 (Mod, R4, Imm 7));
  Asm.emit b (Alu64 (Mul, R4, Imm 0x10001));
  Asm.emit b (Alu32 (Xor, R4, Imm 0x5555));
  Asm.mov_reg b R1 R4;
  Asm.call b Trace;
  Asm.call b Get_hash;
  Asm.mov_reg b R1 R0;
  Asm.call b Trace;
  Asm.ld b DW R3 R10 (-16);
  Asm.mov_reg b R1 R3;
  Asm.call b Trace;
  Asm.ret b Asm.xdp_pass;
  let helpers = Asm.finish b in
  let stage2 = Progs.task_d in
  let id = Vm.register_program stage2 in
  ignore (Maps.update prog_array 1L (Int64.of_int id));
  let b = Asm.builder () in
  Asm.mov b R1 1;
  Asm.call b Trace;
  Asm.mov b R1 0;
  Asm.emit b (Alu64 (Mov, R3, Imm 1));
  Asm.ld_map_fd b R2 prog_array;
  Asm.call b Tail_call;
  Asm.ret b Asm.xdp_drop;
  let tail = Asm.finish b in
  [ ("helpers", helpers); ("tail", tail) ]

let render_map (m : Maps.t) =
  let bindings =
    match m.Maps.kind with
    | Maps.Array | Maps.Prog_array ->
        Array.to_list (Array.mapi (fun i v -> (Int64.of_int i, v)) m.Maps.arr)
        |> List.filter (fun (_, v) -> v <> 0L && v <> -1L)
    | Maps.Hash | Maps.Devmap | Maps.Xskmap ->
        Maps.Tbl.fold (fun k v acc -> (k, v) :: acc) m.Maps.tbl [] |> List.sort compare
  in
  Printf.sprintf "%s{%s}" m.Maps.name
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%Lx=%Lx" k v) bindings))

let golden_vm_render () =
  let rows = ref [] in
  let progs () =
    fresh_maps ();
    Vm.reset_programs ();
    let l2_table = Maps.create ~name:"l2" ~kind:Maps.Hash ~max_entries:64 in
    let sessions = Maps.create ~name:"lb" ~kind:Maps.Hash ~max_entries:64 in
    let xskmap = Maps.create ~name:"xsk" ~kind:Maps.Xskmap ~max_entries:16 in
    let mac_to_dev = Maps.create ~name:"macs" ~kind:Maps.Devmap ~max_entries:16 in
    let prog_array = Maps.create ~name:"pa" ~kind:Maps.Prog_array ~max_entries:4 in
    ignore (Maps.update l2_table (Int64.of_int (Ovs_packet.Mac.of_index 2)) 1L);
    ignore (Maps.update xskmap 0L 0L);
    ignore (Maps.update mac_to_dev (Int64.of_int (Ovs_packet.Mac.of_index 2)) 5L);
    (* the l4_load_balancer key of the "udp" frame: a session hit *)
    let k = Ovs_packet.Flow_key.extract (B.udp ()) in
    let g f = Int64.of_int (Ovs_packet.Flow_key.get k f) in
    let open Ovs_packet.Flow_key.Field in
    let key =
      Int64.logxor
        (Int64.logxor
           (Int64.logxor (g Nw_src) (Int64.shift_left (g Nw_dst) 17))
           (Int64.shift_left
              (Int64.logor (Int64.shift_left (g Tp_src) 16) (g Tp_dst))
              31))
        (g Nw_proto)
    in
    ignore (Maps.update sessions key (Int64.of_int (Ovs_packet.Mac.of_index 33)));
    let maps = [ l2_table; sessions; xskmap; mac_to_dev; prog_array ] in
    ( Progs.all ~l2_table ~sessions ~xskmap ~mac_to_dev
      @ golden_extra_progs ~l2_table ~prog_array,
      maps )
  in
  let names = List.map fst (fst (progs ())) in
  List.iter
    (fun name ->
      (* fresh maps per program; one VM reused across the whole corpus *)
      let all, maps = progs () in
      let prog = List.assoc name all in
      let vm = Vm.create () in
      List.iter
        (fun (fname, pkt) ->
          pkt.Ovs_packet.Buffer.rss_hash <- 0x5eed;
          let result =
            match Vm.run vm prog pkt with
            | o ->
                let s = o.Vm.stats in
                Printf.sprintf "%s insns=%d helpers=%d lookups=%d pkt_loads=%d trace=[%s]"
                  (Vm.action_name o.Vm.action) s.Vm.insns s.Vm.helper_calls
                  s.Vm.map_lookups s.Vm.pkt_loads
                  (String.concat ";" (List.map (Printf.sprintf "%Lx") o.Vm.trace))
            | exception Vm.Fault msg -> "FAULT " ^ msg
          in
          rows :=
            Printf.sprintf "%s/%s: %s pkt=%s" name fname result
              (String.sub
                 (Digest.to_hex (Digest.bytes (Ovs_packet.Buffer.contents pkt)))
                 0 8)
            :: !rows)
        (golden_frames ());
      rows :=
        Printf.sprintf "%s maps: %s" name
          (String.concat " " (List.map render_map maps))
        :: !rows)
    names;
  List.rev !rows

let golden_vm_rows : string list =
  [
    "xsk_default/udp: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=31b9c1e5";
    "xsk_default/udp-other: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=d3d53661";
    "xsk_default/udp-1518: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=1ee6164c";
    "xsk_default/tcp: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=4e331215";
    "xsk_default/tcp-6653: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=4448bffe";
    "xsk_default/icmp: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=f19fd56f";
    "xsk_default/arp: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=076ad2d9";
    "xsk_default/ipv6: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=11d9b594";
    "xsk_default/vlan: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=c297b62d";
    "xsk_default/runt-10: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=0fec1aff";
    "xsk_default/runt-13: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "xsk_default/vlan-runt: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=241e6613";
    "xsk_default/ipv4-cut: XDP_REDIRECT(0) insns=5 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=9927a277";
    "xsk_default maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "pass_all/udp: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=31b9c1e5";
    "pass_all/udp-other: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=d3d53661";
    "pass_all/udp-1518: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=1ee6164c";
    "pass_all/tcp: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=4e331215";
    "pass_all/tcp-6653: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=4448bffe";
    "pass_all/icmp: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=f19fd56f";
    "pass_all/arp: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=076ad2d9";
    "pass_all/ipv6: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=11d9b594";
    "pass_all/vlan: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=c297b62d";
    "pass_all/runt-10: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "pass_all/runt-13: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "pass_all/vlan-runt: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=241e6613";
    "pass_all/ipv4-cut: XDP_PASS insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=9927a277";
    "pass_all maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "task_a/udp: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=31b9c1e5";
    "task_a/udp-other: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=d3d53661";
    "task_a/udp-1518: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=1ee6164c";
    "task_a/tcp: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=4e331215";
    "task_a/tcp-6653: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=4448bffe";
    "task_a/icmp: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=f19fd56f";
    "task_a/arp: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=076ad2d9";
    "task_a/ipv6: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=11d9b594";
    "task_a/vlan: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=c297b62d";
    "task_a/runt-10: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "task_a/runt-13: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "task_a/vlan-runt: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=241e6613";
    "task_a/ipv4-cut: XDP_DROP insns=2 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=9927a277";
    "task_a maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "task_b/udp: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=31b9c1e5";
    "task_b/udp-other: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=d3d53661";
    "task_b/udp-1518: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=1ee6164c";
    "task_b/tcp: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=4e331215";
    "task_b/tcp-6653: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=4448bffe";
    "task_b/icmp: XDP_DROP insns=13 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=f19fd56f";
    "task_b/arp: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=076ad2d9";
    "task_b/ipv6: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=11d9b594";
    "task_b/vlan: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=c297b62d";
    "task_b/runt-10: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "task_b/runt-13: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "task_b/vlan-runt: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=241e6613";
    "task_b/ipv4-cut: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=9927a277";
    "task_b maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "task_c/udp: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=31b9c1e5";
    "task_c/udp-other: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=d3d53661";
    "task_c/udp-1518: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=1ee6164c";
    "task_c/tcp: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=4e331215";
    "task_c/tcp-6653: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=4448bffe";
    "task_c/icmp: XDP_DROP insns=22 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=f19fd56f";
    "task_c/arp: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=076ad2d9";
    "task_c/ipv6: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=11d9b594";
    "task_c/vlan: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=c297b62d";
    "task_c/runt-10: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "task_c/runt-13: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "task_c/vlan-runt: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=241e6613";
    "task_c/ipv4-cut: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=9927a277";
    "task_c maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "task_d/udp: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=a6093c0a";
    "task_d/udp-other: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=5cf7e8f5";
    "task_d/udp-1518: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=4b39ff35";
    "task_d/tcp: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=ddcdc359";
    "task_d/tcp-6653: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=fc53d9a0";
    "task_d/icmp: XDP_TX insns=21 helpers=0 lookups=0 pkt_loads=7 trace=[] pkt=c8d5fec5";
    "task_d/arp: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=076ad2d9";
    "task_d/ipv6: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=11d9b594";
    "task_d/vlan: XDP_DROP insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=c297b62d";
    "task_d/runt-10: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "task_d/runt-13: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "task_d/vlan-runt: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=241e6613";
    "task_d/ipv4-cut: XDP_DROP insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=9927a277";
    "task_d maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "l4_load_balancer/udp: XDP_TX insns=30 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=7b184f62";
    "l4_load_balancer/udp-other: XDP_REDIRECT(0) insns=28 helpers=2 lookups=2 pkt_loads=5 trace=[] pkt=d3d53661";
    "l4_load_balancer/udp-1518: XDP_TX insns=30 helpers=1 lookups=1 pkt_loads=5 trace=[] pkt=103de3c4";
    "l4_load_balancer/tcp: XDP_REDIRECT(0) insns=28 helpers=2 lookups=2 pkt_loads=5 trace=[] pkt=4e331215";
    "l4_load_balancer/tcp-6653: XDP_REDIRECT(0) insns=28 helpers=2 lookups=2 pkt_loads=5 trace=[] pkt=4448bffe";
    "l4_load_balancer/icmp: XDP_REDIRECT(0) insns=28 helpers=2 lookups=2 pkt_loads=5 trace=[] pkt=f19fd56f";
    "l4_load_balancer/arp: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=076ad2d9";
    "l4_load_balancer/ipv6: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=11d9b594";
    "l4_load_balancer/vlan: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=c297b62d";
    "l4_load_balancer/runt-10: XDP_REDIRECT(0) insns=11 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=0fec1aff";
    "l4_load_balancer/runt-13: XDP_REDIRECT(0) insns=11 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "l4_load_balancer/vlan-runt: XDP_REDIRECT(0) insns=11 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=241e6613";
    "l4_load_balancer/ipv4-cut: XDP_REDIRECT(0) insns=11 helpers=1 lookups=1 pkt_loads=0 trace=[] pkt=9927a277";
    "l4_load_balancer maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "veth_redirect/udp: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=31b9c1e5";
    "veth_redirect/udp-other: XDP_PASS insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=d3d53661";
    "veth_redirect/udp-1518: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=1ee6164c";
    "veth_redirect/tcp: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=4e331215";
    "veth_redirect/tcp-6653: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=4448bffe";
    "veth_redirect/icmp: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=f19fd56f";
    "veth_redirect/arp: XDP_PASS insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=076ad2d9";
    "veth_redirect/ipv6: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=11d9b594";
    "veth_redirect/vlan: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=c297b62d";
    "veth_redirect/runt-10: XDP_PASS insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "veth_redirect/runt-13: XDP_PASS insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "veth_redirect/vlan-runt: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=241e6613";
    "veth_redirect/ipv4-cut: XDP_REDIRECT(5) insns=13 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=9927a277";
    "veth_redirect maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "steer_control/udp: XDP_REDIRECT(0) insns=18 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=31b9c1e5";
    "steer_control/udp-other: XDP_REDIRECT(0) insns=18 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=d3d53661";
    "steer_control/udp-1518: XDP_REDIRECT(0) insns=18 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=1ee6164c";
    "steer_control/tcp: XDP_REDIRECT(0) insns=21 helpers=1 lookups=1 pkt_loads=3 trace=[] pkt=4e331215";
    "steer_control/tcp-6653: XDP_PASS insns=17 helpers=0 lookups=0 pkt_loads=3 trace=[] pkt=4448bffe";
    "steer_control/icmp: XDP_REDIRECT(0) insns=18 helpers=1 lookups=1 pkt_loads=2 trace=[] pkt=f19fd56f";
    "steer_control/arp: XDP_PASS insns=9 helpers=0 lookups=0 pkt_loads=1 trace=[] pkt=076ad2d9";
    "steer_control/ipv6: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=11d9b594";
    "steer_control/vlan: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=c297b62d";
    "steer_control/runt-10: XDP_PASS insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=0fec1aff";
    "steer_control/runt-13: XDP_PASS insns=7 helpers=0 lookups=0 pkt_loads=0 trace=[] pkt=6d5c5bbb";
    "steer_control/vlan-runt: XDP_REDIRECT(0) insns=13 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=241e6613";
    "steer_control/ipv4-cut: XDP_REDIRECT(0) insns=16 helpers=1 lookups=1 pkt_loads=1 trace=[] pkt=9927a277";
    "steer_control maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "helpers/udp: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=31b9c1e5";
    "helpers/udp-other: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=d3d53661";
    "helpers/udp-1518: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=1ee6164c";
    "helpers/tcp: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=4e331215";
    "helpers/tcp-6653: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=4448bffe";
    "helpers/icmp: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=f19fd56f";
    "helpers/arp: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=076ad2d9";
    "helpers/ipv6: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=11d9b594";
    "helpers/vlan: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=c297b62d";
    "helpers/runt-10: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=0fec1aff";
    "helpers/runt-13: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=6d5c5bbb";
    "helpers/vlan-runt: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=241e6613";
    "helpers/ipv4-cut: XDP_PASS insns=45 helpers=11 lookups=1 pkt_loads=0 trace=[0;7;0;77;15554;5eed;63] pkt=9927a277";
    "helpers maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
    "tail/udp: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=a6093c0a";
    "tail/udp-other: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=5cf7e8f5";
    "tail/udp-1518: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=4b39ff35";
    "tail/tcp: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=ddcdc359";
    "tail/tcp-6653: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=fc53d9a0";
    "tail/icmp: XDP_TX insns=27 helpers=2 lookups=1 pkt_loads=7 trace=[1] pkt=c8d5fec5";
    "tail/arp: XDP_DROP insns=15 helpers=2 lookups=1 pkt_loads=1 trace=[1] pkt=076ad2d9";
    "tail/ipv6: XDP_DROP insns=15 helpers=2 lookups=1 pkt_loads=1 trace=[1] pkt=11d9b594";
    "tail/vlan: XDP_DROP insns=15 helpers=2 lookups=1 pkt_loads=1 trace=[1] pkt=c297b62d";
    "tail/runt-10: XDP_DROP insns=13 helpers=2 lookups=1 pkt_loads=0 trace=[1] pkt=0fec1aff";
    "tail/runt-13: XDP_DROP insns=13 helpers=2 lookups=1 pkt_loads=0 trace=[1] pkt=6d5c5bbb";
    "tail/vlan-runt: XDP_DROP insns=13 helpers=2 lookups=1 pkt_loads=0 trace=[1] pkt=241e6613";
    "tail/ipv4-cut: XDP_DROP insns=13 helpers=2 lookups=1 pkt_loads=0 trace=[1] pkt=9927a277";
    "tail maps: l2{20000000002=1} lb{2691f170a040010=20000000021} xsk{0=0} macs{20000000002=5} pa{1=1}";
  ]

let test_vm_golden_table () =
  let got = golden_vm_render () in
  if got <> golden_vm_rows then begin
    List.iter print_endline got;
    Alcotest.(check (list string)) "pinned interpreter rows" golden_vm_rows got
  end

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ovs_ebpf"
    [
      ( "asm",
        [
          Alcotest.test_case "label resolution" `Quick test_asm_label_resolution;
          Alcotest.test_case "unknown label" `Quick test_asm_unknown_label;
          Alcotest.test_case "backward label offsets" `Quick test_asm_backward_label;
        ] );
      ( "vm",
        [
          Alcotest.test_case "alu64" `Quick test_vm_alu64;
          Alcotest.test_case "alu32 truncates" `Quick test_vm_alu32_truncates;
          Alcotest.test_case "stack store/load" `Quick test_vm_stack_store_load;
          Alcotest.test_case "packet load" `Quick test_vm_packet_load;
          Alcotest.test_case "packet store mutates" `Quick test_vm_packet_store_mutates;
          Alcotest.test_case "div by zero yields zero" `Quick test_vm_div_by_zero_yields_zero;
          Alcotest.test_case "instruction counting" `Quick test_vm_insn_counting;
          Alcotest.test_case "trace helper" `Quick test_vm_trace_helper;
          Alcotest.test_case "golden table over programs and frames" `Quick
            test_vm_golden_table;
        ] );
      ( "maps",
        [
          Alcotest.test_case "hash ops" `Quick test_maps_hash_ops;
          Alcotest.test_case "hash full" `Quick test_maps_hash_full;
          Alcotest.test_case "array bounds" `Quick test_maps_array_bounds;
          Alcotest.test_case "lookup from bytecode" `Quick test_map_lookup_from_bytecode;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rejects loop" `Quick test_verifier_rejects_loop;
          Alcotest.test_case "rejects uninit read" `Quick test_verifier_rejects_uninit_read;
          Alcotest.test_case "rejects missing r0" `Quick test_verifier_rejects_missing_r0;
          Alcotest.test_case "rejects unchecked pkt access" `Quick
            test_verifier_rejects_unchecked_packet_access;
          Alcotest.test_case "rejects short bounds check" `Quick
            test_verifier_rejects_check_too_small;
          Alcotest.test_case "rejects stack oob" `Quick test_verifier_rejects_stack_oob;
          Alcotest.test_case "rejects uninit stack read" `Quick
            test_verifier_rejects_uninit_stack_read;
          Alcotest.test_case "rejects null deref" `Quick test_verifier_rejects_null_deref;
          Alcotest.test_case "rejects ctx store" `Quick test_verifier_rejects_ctx_store;
          Alcotest.test_case "rejects r10 write" `Quick test_verifier_rejects_r10_write;
          Alcotest.test_case "rejects pointer arith" `Quick
            test_verifier_rejects_pointer_arith;
          Alcotest.test_case "rejects pointer compare" `Quick
            test_verifier_rejects_pointer_leak_compare;
          Alcotest.test_case "rejects div 0 imm" `Quick test_verifier_rejects_div_zero_imm;
          Alcotest.test_case "rejects oob jump" `Quick test_verifier_rejects_oob_jump;
          Alcotest.test_case "rejects fallthrough end" `Quick
            test_verifier_rejects_fallthrough_end;
          Alcotest.test_case "rejects empty" `Quick test_verifier_rejects_empty;
          Alcotest.test_case "accepts null-checked deref" `Quick
            test_verifier_accepts_null_checked_deref;
          Alcotest.test_case "accepts whole program library" `Quick
            test_verifier_whole_program_library;
        ]
        @ qcheck [ prop_straightline_alu_safe; prop_verifier_soundness ] );
      ( "programs",
        [
          Alcotest.test_case "task_d swaps macs" `Quick test_prog_task_d_swaps_macs;
          Alcotest.test_case "task_b drops non-ip" `Quick test_prog_task_b_drops_non_ip;
          Alcotest.test_case "xsk_default redirects" `Quick test_prog_xsk_default_redirects;
          Alcotest.test_case "xsk_default pass on unbound queue" `Quick
            test_prog_xsk_default_passes_unbound_queue;
          Alcotest.test_case "veth_redirect by mac" `Quick test_prog_veth_redirect_by_mac;
          Alcotest.test_case "l4 lb hit and miss" `Quick test_prog_l4_lb_hit_and_miss;
          Alcotest.test_case "steer control traffic" `Quick test_prog_steer_control;
          Alcotest.test_case "cost grows with complexity" `Quick
            test_xdp_hook_cost_grows_with_complexity;
          Alcotest.test_case "loader rejects bad program" `Quick
            test_xdp_load_rejects_bad_program;
        ] );
      ( "tail_calls",
        [
          Alcotest.test_case "jumps into target" `Quick test_tail_call_jumps_into_target;
          Alcotest.test_case "empty slot falls through" `Quick
            test_tail_call_empty_slot_falls_through;
          Alcotest.test_case "depth bounded" `Quick test_tail_call_depth_bounded;
          Alcotest.test_case "three-stage pipeline" `Quick
            test_tail_call_three_stage_pipeline;
          Alcotest.test_case "verifier type checks" `Quick test_verifier_tail_call_types;
        ] );
    ]
