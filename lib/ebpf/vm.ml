(** The eBPF interpreter.

    Executes verified programs over a packet. Pointers are tagged [int64]
    values (tag in the top byte selects the region: stack, packet, ctx, map
    value, map handle); loads and stores translate through the tag. Packet
    loads are network byte order — this VM is "big-endian hardware", which
    lets programs skip the byte swapping a little-endian kernel needs,
    without changing instruction counts materially.

    Execution statistics (instructions retired, helper calls, map lookups)
    feed the cost model: XDP processing time is charged per instruction and
    per helper, which is what makes Table 5's complexity ladder emerge. *)

type action =
  | Aborted
  | Drop
  | Pass
  | Tx
  | Redirect of Maps.kind * int
      (** target slot value plus the kind of map it came from: an [Xskmap]
          redirect lands in an AF_XDP socket, a [Devmap] redirect goes
          straight to another device (Fig 5 path C) *)

let action_code = function
  | Aborted -> 0L
  | Drop -> 1L
  | Pass -> 2L
  | Tx -> 3L
  | Redirect _ -> 4L

let action_name = function
  | Aborted -> "XDP_ABORTED"
  | Drop -> "XDP_DROP"
  | Pass -> "XDP_PASS"
  | Tx -> "XDP_TX"
  | Redirect (_, i) -> Printf.sprintf "XDP_REDIRECT(%d)" i

type stats = {
  mutable insns : int;
  mutable helper_calls : int;
  mutable map_lookups : int;
  mutable pkt_loads : int;  (** loads from packet memory (cache-miss cost) *)
}

type outcome = { action : action; stats : stats; trace : int64 list }

exception Fault of string

(* pointer tags *)
let tag_stack = 0x10L
let tag_packet = 0x20L
let tag_ctx = 0x30L
let tag_map_value = 0x40L
let tag_map_handle = 0x50L

let make_ptr tag payload = Int64.logor (Int64.shift_left tag 48) payload

let fuel_limit = 1_000_000
let max_tail_calls = 32

(* programs must be registered to be tail-callable (prog_array slots hold
   registration ids, as the kernel's prog fds do) *)
let program_registry : (int, Insn.t array) Hashtbl.t = Hashtbl.create 16
let next_prog_id = ref 0

let register_program (prog : Insn.t array) : int =
  incr next_prog_id;
  Hashtbl.replace program_registry !next_prog_id prog;
  !next_prog_id

let reset_programs () =
  Hashtbl.reset program_registry;
  next_prog_id := 0

type t = {
  stack : Bytes.t;
  mutable stack_dirty : bool;  (** a store touched [stack] since it was zeroed *)
  regs : Bytes.t;
      (** r0..r10 then two scratch slots, eight native-endian bytes each:
          an [int64] read from or written to a slot stays unboxed *)
  stats : stats;  (** the current (or last) run's counters *)
  mutable trace : int64 list;  (** [Trace] helper values, newest first *)
  mutable tail_depth : int;
  mutable redirect_target : int;
  mutable redirect_kind : Maps.kind;
  mutable map_value_refs : (int * int64) array;  (** slot -> (map id, key) *)
  mutable n_refs : int;
}

(* scratch slots: a helper's loaded key, and a store's or update's value *)
let slot_a = 11
let slot_b = 12

let create () =
  {
    stack = Bytes.make 512 '\000';
    stack_dirty = false;
    regs = Bytes.make (13 * 8) '\000';
    stats = { insns = 0; helper_calls = 0; map_lookups = 0; pkt_loads = 0 };
    trace = [];
    tail_depth = 0;
    redirect_target = -1;
    redirect_kind = Maps.Xskmap;
    map_value_refs = Array.make 16 (0, 0L);
    n_refs = 0;
  }

let[@inline] slot t i = Bytes.get_int64_ne t.regs (i lsl 3)
let[@inline] set_slot t i v = Bytes.set_int64_ne t.regs (i lsl 3) v

(* [Insn.reg_index], here so that it inlines (other modules' code does
   not, in dune's dev builds) *)
let[@inline] ix : Insn.reg -> int = function
  | R0 -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9
  | R10 -> 10

let[@inline] get t r = slot t (ix r)
let[@inline] set t r v = set_slot t (ix r) v

(* A tagged pointer split into plain ints: the tag byte and the 48-bit
   payload. *)
let[@inline] tag_of v = Int64.to_int (Int64.shift_right_logical v 48)
let[@inline] off_of v = Int64.to_int (Int64.logand v 0xFFFF_FFFF_FFFFL)

let t_stack = Int64.to_int tag_stack
let t_packet = Int64.to_int tag_packet
let t_ctx = Int64.to_int tag_ctx
let t_map_value = Int64.to_int tag_map_value

let alloc_ref t map_id key =
  if t.n_refs = Array.length t.map_value_refs then begin
    let bigger = Array.make (2 * t.n_refs) (0, 0L) in
    Array.blit t.map_value_refs 0 bigger 0 t.n_refs;
    t.map_value_refs <- bigger
  end;
  t.map_value_refs.(t.n_refs) <- (map_id, key);
  t.n_refs <- t.n_refs + 1;
  t.n_refs - 1

(* Reset the registers for a (tail-called) program start: r1 = ctx,
   r10 = the frame top. *)
let reset_regs t =
  for i = 0 to slot_b do
    set_slot t i 0L
  done;
  set t R1 (make_ptr tag_ctx 0L);
  set t R10 (make_ptr tag_stack 512L)

let map_value_ref t slot =
  if slot >= t.n_refs then raise (Fault "dangling map value pointer");
  t.map_value_refs.(slot)

(** Load [sz] bytes from the tagged address [(tag, off)] into slot [dst]. *)
let load t (pkt : Ovs_packet.Buffer.t) (sz : Insn.size) ~tag ~off dst =
  let nbytes = Insn.size_bytes sz in
  if tag = t_packet then begin
    if off + nbytes > Ovs_packet.Buffer.length pkt then
      raise (Fault "packet load out of bounds");
    t.stats.pkt_loads <- t.stats.pkt_loads + 1;
    match sz with
    | B -> set_slot t dst (Int64.of_int (Ovs_packet.Buffer.get_u8 pkt off))
    | H -> set_slot t dst (Int64.of_int (Ovs_packet.Buffer.get_u16 pkt off))
    | W -> set_slot t dst (Int64.of_int (Ovs_packet.Buffer.get_u32 pkt off))
    | DW ->
        set_slot t dst
          (Int64.logor
             (Int64.shift_left (Int64.of_int (Ovs_packet.Buffer.get_u32 pkt off)) 32)
             (Int64.of_int (Ovs_packet.Buffer.get_u32 pkt (off + 4))))
  end
  else if tag = t_stack then begin
    (* the pointer's payload is a byte offset into the 512B frame; r10
       carries 512 (the frame top), so [r10-8] addresses bytes 504..512 *)
    if off + nbytes > 512 then raise (Fault "stack load out of bounds");
    set_slot t dst 0L;
    for i = 0 to nbytes - 1 do
      set_slot t dst
        (Int64.logor
           (Int64.shift_left (slot t dst) 8)
           (Int64.of_int (Bytes.get_uint8 t.stack (off + i))))
    done
  end
  else if tag = t_ctx then begin
    (* xdp_md { data; data_end; ifindex; rx_queue_index } *)
    if off = 0 then set_slot t dst (make_ptr tag_packet 0L)
    else if off = 4 then
      set_slot t dst
        (make_ptr tag_packet (Int64.of_int (Ovs_packet.Buffer.length pkt)))
    else if off = 8 then set_slot t dst (Int64.of_int pkt.Ovs_packet.Buffer.in_port)
    else if off = 12 then set_slot t dst 0L
    else raise (Fault "ctx load out of bounds")
  end
  else if tag = t_map_value then begin
    let map_id, key = map_value_ref t off in
    match Maps.lookup (Maps.find_exn map_id) key with
    | Some v -> set_slot t dst v
    | None -> set_slot t dst 0L
  end
  else raise (Fault "load through non-pointer")

(** Store the value in slot [src] as [sz] bytes at [(tag, off)]. *)
let store t (pkt : Ovs_packet.Buffer.t) (sz : Insn.size) ~tag ~off src =
  let nbytes = Insn.size_bytes sz in
  if tag = t_packet then begin
    if off + nbytes > Ovs_packet.Buffer.length pkt then
      raise (Fault "packet store out of bounds");
    let v = slot t src in
    match sz with
    | B -> Ovs_packet.Buffer.set_u8 pkt off (Int64.to_int v land 0xFF)
    | H -> Ovs_packet.Buffer.set_u16 pkt off (Int64.to_int v land 0xFFFF)
    | W -> Ovs_packet.Buffer.set_u32 pkt off (Int64.to_int v land 0xFFFFFFFF)
    | DW ->
        Ovs_packet.Buffer.set_u32 pkt off
          (Int64.to_int (Int64.shift_right_logical v 32) land 0xFFFFFFFF);
        Ovs_packet.Buffer.set_u32 pkt (off + 4)
          (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  end
  else if tag = t_stack then begin
    if off + nbytes > 512 then raise (Fault "stack store out of bounds");
    t.stack_dirty <- true;
    for i = 0 to nbytes - 1 do
      let shift = 8 * (nbytes - 1 - i) in
      Bytes.set_uint8 t.stack (off + i)
        (Int64.to_int (Int64.shift_right_logical (slot t src) shift) land 0xFF)
    done
  end
  else if tag = t_map_value then begin
    let map_id, key = map_value_ref t off in
    ignore (Maps.update (Maps.find_exn map_id) key (slot t src))
  end
  else raise (Fault "store through non-pointer")

(* Load the 8-byte helper argument [r] points to into slot [dst]. *)
let load_arg t pkt r dst =
  let a = get t r in
  load t pkt DW ~tag:(tag_of a) ~off:(off_of a) dst

let map_arg t r = Maps.find_exn (off_of (get t r))

exception Tail_jump of Insn.t array
(* raised by [call] on a taken tail call; [run] restarts in the target *)

let call t (pkt : Ovs_packet.Buffer.t) (helper : Insn.helper) =
  let stats = t.stats in
  stats.helper_calls <- stats.helper_calls + 1;
  match helper with
  | Map_lookup ->
      stats.map_lookups <- stats.map_lookups + 1;
      let m = map_arg t R1 in
      load_arg t pkt R2 slot_a;
      let key = slot t slot_a in
      (match Maps.lookup m key with
      | Some _ ->
          let ref_slot = alloc_ref t m.Maps.id key in
          set t R0 (make_ptr tag_map_value (Int64.of_int ref_slot))
      | None -> set t R0 0L)
  | Map_update ->
      let m = map_arg t R1 in
      load_arg t pkt R2 slot_a;
      if tag_of (get t R3) = t_stack then load_arg t pkt R3 slot_b
      else set_slot t slot_b (get t R3);
      set t R0 (if Maps.update m (slot t slot_a) (slot t slot_b) then 0L else -1L)
  | Map_delete ->
      let m = map_arg t R1 in
      load_arg t pkt R2 slot_a;
      Maps.delete m (slot t slot_a);
      set t R0 0L
  | Redirect_map -> begin
      let m = map_arg t R1 in
      stats.map_lookups <- stats.map_lookups + 1;
      match Maps.lookup m (get t R2) with
      | Some target ->
          t.redirect_target <- Int64.to_int target;
          t.redirect_kind <- m.Maps.kind;
          set t R0 4L (* XDP_REDIRECT *)
      | None -> set t R0 (get t R3)
    end
  | Tail_call -> begin
      let m = map_arg t R2 in
      stats.map_lookups <- stats.map_lookups + 1;
      match Maps.lookup m (get t R3) with
      | Some pid when pid >= 0L && t.tail_depth < max_tail_calls -> begin
          match Hashtbl.find_opt program_registry (Int64.to_int pid) with
          | Some target ->
              t.tail_depth <- t.tail_depth + 1;
              raise (Tail_jump target)
          | None -> set t R0 (-1L)
        end
      | Some _ | None -> set t R0 (-1L)
    end
  | Ktime_get_ns -> set t R0 0L
  | Get_hash -> set t R0 (Int64.of_int pkt.Ovs_packet.Buffer.rss_hash)
  | Trace ->
      t.trace <- get t R1 :: t.trace;
      set t R0 0L

(* [dst op= b] in 64 bits; [b] sits in slot [src] *)
let alu64 t (op : Insn.alu_op) dst src =
  let a = slot t dst and b = slot t src in
  match op with
  | Add -> set_slot t dst (Int64.add a b)
  | Sub -> set_slot t dst (Int64.sub a b)
  | Mul -> set_slot t dst (Int64.mul a b)
  | Div ->
      (* BPF semantics: division by zero yields 0 *)
      set_slot t dst (if b = 0L then 0L else Int64.unsigned_div a b)
  | Or -> set_slot t dst (Int64.logor a b)
  | And -> set_slot t dst (Int64.logand a b)
  | Lsh -> set_slot t dst (Int64.shift_left a (Int64.to_int b land 63))
  | Rsh -> set_slot t dst (Int64.shift_right_logical a (Int64.to_int b land 63))
  | Mod ->
      (* BPF semantics: dst mod 0 leaves dst *)
      set_slot t dst (if b = 0L then a else Int64.unsigned_rem a b)
  | Xor -> set_slot t dst (Int64.logxor a b)
  | Mov -> set_slot t dst b
  | Arsh -> set_slot t dst (Int64.shift_right a (Int64.to_int b land 63))

let mask32 t i = set_slot t i (Int64.logand (slot t i) 0xFFFF_FFFFL)

(* the source operand into slot [slot_b] *)
let load_src t (src : Insn.src) =
  match src with
  | Reg r -> set_slot t slot_b (get t r)
  | Imm i -> set_slot t slot_b (Int64.of_int i)

(* Unsigned order through the sign flip: [a <u b] iff
   [a + min_int < b + min_int] signed. *)
let cond_holds t (c : Insn.cond) r =
  let a = get t r and b = slot t slot_b in
  let ua = Int64.add a Int64.min_int and ub = Int64.add b Int64.min_int in
  match c with
  | Jeq -> Int64.equal a b
  | Jne -> not (Int64.equal a b)
  | Jgt -> ua > ub
  | Jge -> ua >= ub
  | Jlt -> ua < ub
  | Jle -> ua <= ub
  | Jsgt -> a > b
  | Jsge -> a >= b
  | Jslt -> a < b
  | Jsle -> a <= b
  | Jset -> not (Int64.equal (Int64.logand a b) 0L)

(* Execute from [pc] to [Exit]; r0 is left in its register. *)
let rec step t (prog : Insn.t array) pkt pc =
  let stats = t.stats in
  if stats.insns >= fuel_limit then raise (Fault "fuel exhausted");
  stats.insns <- stats.insns + 1;
  if pc >= Array.length prog then raise (Fault "pc out of bounds");
  match prog.(pc) with
  | Exit -> ()
  | Alu64 (op, dst, src) ->
      load_src t src;
      alu64 t op (ix dst) slot_b;
      step t prog pkt (pc + 1)
  | Alu32 (op, dst, src) ->
      let d = ix dst in
      load_src t src;
      mask32 t slot_b;
      mask32 t d;
      alu64 t op d slot_b;
      mask32 t d;
      step t prog pkt (pc + 1)
  | Neg dst ->
      set t dst (Int64.neg (get t dst));
      step t prog pkt (pc + 1)
  | Ld (sz, dst, srcr, off) ->
      let a = Int64.add (get t srcr) (Int64.of_int off) in
      load t pkt sz ~tag:(tag_of a) ~off:(off_of a) (ix dst);
      step t prog pkt (pc + 1)
  | St (sz, dstr, off, src) ->
      load_src t src;
      let a = Int64.add (get t dstr) (Int64.of_int off) in
      store t pkt sz ~tag:(tag_of a) ~off:(off_of a) slot_b;
      step t prog pkt (pc + 1)
  | Ja off -> step t prog pkt (pc + 1 + off)
  | Jcond (c, r, src, off) ->
      load_src t src;
      if cond_holds t c r then step t prog pkt (pc + 1 + off)
      else step t prog pkt (pc + 1)
  | Call h ->
      call t pkt h;
      step t prog pkt (pc + 1)
  | Ld_map_fd (dst, map_id) ->
      set t dst (make_ptr tag_map_handle (Int64.of_int map_id));
      step t prog pkt (pc + 1)

(* tail calls unwind to here and restart in the target program with a
   fresh invocation state (the stack frame is reused, as in the kernel) *)
let rec exec t prog pkt =
  match step t prog pkt 0 with
  | () -> ()
  | exception Tail_jump target ->
      reset_regs t;
      exec t target pkt

(** Run [prog] over [pkt] in XDP context. The program must have passed
    {!Verifier.verify}; runtime faults on unverified programs raise
    [Fault]. The returned [stats] is the VM's own counter record, valid
    until the VM's next run. *)
let run t (prog : Insn.t array) (pkt : Ovs_packet.Buffer.t) : outcome =
  let s = t.stats in
  s.insns <- 0;
  s.helper_calls <- 0;
  s.map_lookups <- 0;
  s.pkt_loads <- 0;
  t.trace <- [];
  t.tail_depth <- 0;
  t.redirect_target <- -1;
  t.n_refs <- 0;
  (* every run starts from a zeroed frame *)
  if t.stack_dirty then begin
    Bytes.fill t.stack 0 512 '\000';
    t.stack_dirty <- false
  end;
  reset_regs t;
  exec t prog pkt;
  let action =
    match Int64.to_int (get t R0) with
    | 0 -> Aborted
    | 1 -> Drop
    | 2 -> Pass
    | 3 -> Tx
    | 4 ->
        if t.redirect_target >= 0 then Redirect (t.redirect_kind, t.redirect_target)
        else Aborted
    | _ -> Aborted
  in
  { action; stats = s; trace = List.rev t.trace }
