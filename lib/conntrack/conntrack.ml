(** Connection tracking: the userspace reimplementation of the kernel's
    netfilter conntrack that OVS needed once the datapath left the kernel
    (Sec 4). Supports zones (NSX uses one zone per virtual network for
    firewall separation), a TCP state machine, UDP/ICMP pseudo-state,
    source/destination NAT, expiry, and per-zone connection limits (the
    feature whose kernel backport cost the paper quantifies in Sec 2.1.1).

    Storage is sharded by a direction-symmetric 5-tuple hash so a
    per-PMD engine can size [shards] to its PMD count and keep the hit
    path lock-free (each shard is only ever touched by its owning
    domain when the caller partitions traffic by RSS hash, which uses
    the same src/dst-symmetric construction).

    Each shard is flat: a connection is a slot id into per-shard pages
    (its tuple, state, mark and packet count unboxed in a fixed-stride
    int array, its times in float arrays), and an open-addressed index
    with linear probing maps each direction's tuple to [slot * 2 + dir].
    Deletion shifts the following probe run back instead of leaving
    tombstones, so the index never needs a cleanup rehash. A hit in
    [track] allocates only its verdict, and expiry is a resumable
    sequential scan of the slots with a per-call work budget, so a poll
    loop can amortize reclamation instead of stalling on a full-table
    scan. *)

module FK = Ovs_packet.Flow_key

let cov_zone_limit_drop = Ovs_sim.Coverage.counter "ct_zone_limit_drop"

type tcp_state =
  | Syn_sent
  | Syn_recv
  | Established
  | Fin_wait
  | Close_wait
  | Time_wait
  | Closed

type proto_state = Tcp of tcp_state | Udp_single | Udp_multiple | Icmp_active

type nat_action = {
  nat_src : (int * int) option;  (** translated (ip, port) for SNAT *)
  nat_dst : (int * int) option;  (** translated (ip, port) for DNAT *)
}

(** Timeouts, in virtual ns, following netfilter's defaults (scaled). *)
let timeout_of = function
  | Tcp Established -> Ovs_sim.Time.s 7440.
  | Tcp Time_wait | Tcp Close_wait | Tcp Fin_wait -> Ovs_sim.Time.s 120.
  | Tcp _ -> Ovs_sim.Time.s 60.
  | Udp_single -> Ovs_sim.Time.s 30.
  | Udp_multiple -> Ovs_sim.Time.s 120.
  | Icmp_active -> Ovs_sim.Time.s 30.

(* A slot stores its state as the index of that state in [states]. *)
let states =
  [| Tcp Syn_sent; Tcp Syn_recv; Tcp Established; Tcp Fin_wait; Tcp Close_wait;
     Tcp Time_wait; Tcp Closed; Udp_single; Udp_multiple; Icmp_active |]

let code_of_tcp = function
  | Syn_sent -> 0
  | Syn_recv -> 1
  | Established -> 2
  | Fin_wait -> 3
  | Close_wait -> 4
  | Time_wait -> 5
  | Closed -> 6

let s_closed = code_of_tcp Closed
let s_udp_single = 7
let s_udp_multiple = 8
let s_icmp = 9
let timeouts = Float.Array.map_from_array timeout_of states

(* The slot layout: the original-direction tuple (the four IPv6 words
   are 0 for IPv4), then the connection's mutable ints. A port word holds
   the 16-bit port and, above it, that endpoint's 4-bit IPv6 middle word
   ([port_bits]), so the tuple keys on every address bit in ten words. A
   free slot has state -1 and links the free list through its [f_src]
   word. *)
let f_src = 0
let f_dst = 1
let f_proto = 2
let f_sport = 3
let f_dport = 4
let f_zone = 5
let f_src6_hi = 6
let f_src6_lo = 7
let f_dst6_hi = 8
let f_dst6_lo = 9
let tuple_words = 10
let port_bits = 16
let port_mask = (1 lsl port_bits) - 1
let f_state = 10
let f_mark = 11
let f_packets = 12
let stride = 13

(* An index position holds [tag lsl ref_bits lor r]: the low [ref_bits]
   bits of the tuple's hash (which give its home position and screen the
   key compare) above the reference [r = slot * 2 + dir]; -1 when empty.
   One word per position keeps a half-empty index small. *)
let ref_bits = 31
let ref_mask = (1 lsl ref_bits) - 1
let[@inline] entry h r = ((h land ref_mask) lsl ref_bits) lor r

(* Slots live in pages of [page_slots], allocated as the shard fills: a
   growing table copies nothing and leaves no old arrays behind, and a
   table that never tracks a connection allocates no page. *)
let page_bits = 8
let page_slots = 1 lsl page_bits
let[@inline] page id = id lsr page_bits
let[@inline] off id = id land (page_slots - 1)
let[@inline] base id = off id * stride

type shard = {
  mutable index : int array;  (** one {!entry} per position *)
  mutable mask : int;  (** positions - 1; positions is a power of two *)
  mutable entries : int;  (** occupied index positions *)
  (* page tables: slot [id] is at [page id], offset [off id] *)
  mutable ints : int array array;  (** [stride] words per slot *)
  mutable created_at : Float.Array.t array;
  mutable last_seen : Float.Array.t array;
  mutable nat : nat_action option array array;
  mutable handles : conn option array array;  (** the live connection's [Some handle] *)
  mutable used : int;  (** slot ids below this have been handed out *)
  mutable free : int;  (** head of the free-slot list, -1 when empty *)
  mutable live : int;  (** connections *)
  mutable cursor : int;  (** next slot the bounded sweep examines *)
}

(* A connection handle, built once at commit. [id] is its slot while the
   connection lives; a reclaimed connection's handle keeps its last state
   as [-1 - state]. *)
and conn = { sh : shard; mutable id : int }

type t = {
  shards : shard array;
  mutable shard_cursor : int;  (** which shard the bounded sweep is in *)
  query : int array;  (** the tuple being looked up, in slot layout *)
  zone_counts : (int, int ref) Hashtbl.t;
  zone_limits : (int, int) Hashtbl.t;
  mutable limit_drops : int;
}

(* As small as the 64-bucket shards this table replaced: every datapath
   builds one, most never track a connection. *)
let initial_positions = 64

let new_shard () =
  {
    index = Array.make initial_positions (-1);
    mask = initial_positions - 1;
    entries = 0;
    ints = [||];
    created_at = [||];
    last_seen = [||];
    nat = [||];
    handles = [||];
    used = 0;
    free = -1;
    live = 0;
    cursor = 0;
  }

let create ?(shards = 1) () =
  let shards = Int.max 1 shards in
  {
    shards = Array.init shards (fun _ -> new_shard ());
    shard_cursor = 0;
    query = Array.make tuple_words 0;
    zone_counts = Hashtbl.create 64;
    zone_limits = Hashtbl.create 64;
    limit_drops = 0;
  }

let[@inline] mix h v =
  let h = (h lxor v) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The hash of one direction of the tuple stored at [a.(b)..]: [rev]
   reads it with the endpoints swapped, which in the slot layout moves
   each source word one place (ports, IPv4) or two places (IPv6 words)
   up and each destination word down. *)
let dir_hash (a : int array) b ~rev =
  let o = if rev then 1 else 0 in
  let h = mix 0x1BD11BDAA9FC1A22 a.(b + f_src + o) in
  let h = mix h a.(b + f_dst - o) in
  let h = mix h a.(b + f_proto) in
  let h = mix h a.(b + f_sport + o) in
  let h = mix h a.(b + f_dport - o) in
  let h = mix h a.(b + f_zone) in
  let h = mix h a.(b + f_src6_hi + (2 * o)) in
  let h = mix h a.(b + f_src6_lo + (2 * o)) in
  let h = mix h a.(b + f_dst6_hi - (2 * o)) in
  mix h a.(b + f_dst6_lo - (2 * o)) land max_int

let endpoint (q : int array) ip port ip6 =
  mix (mix (mix (mix 0 q.(ip)) q.(port)) q.(ip6)) q.(ip6 + 1)

(* Direction-symmetric shard choice: XOR of the two endpoint hashes is
   commutative, so a tuple and its reverse always land in the same
   shard (a PMD owns whole connections, and the ICMP related-conn
   lookup dispatches correctly for free). *)
let shard_of t =
  let n = Array.length t.shards in
  if n = 1 then t.shards.(0)
  else
    let q = t.query in
    let e = endpoint q f_src f_sport f_src6_hi
    and e' = endpoint q f_dst f_dport f_dst6_hi in
    let h = mix (mix (e lxor e') q.(f_proto)) q.(f_zone) in
    t.shards.((h land max_int) mod n)

(* Does the slot behind index reference [r] hold the query's tuple, read
   in [r]'s direction? *)
let matches sh r (q : int array) =
  let a = sh.ints.(page (r lsr 1)) and b = base (r lsr 1) in
  a.(b + f_proto) = q.(f_proto)
  && a.(b + f_zone) = q.(f_zone)
  &&
  if r land 1 = 0 then
    a.(b + f_src) = q.(f_src)
    && a.(b + f_dst) = q.(f_dst)
    && a.(b + f_sport) = q.(f_sport)
    && a.(b + f_dport) = q.(f_dport)
    && a.(b + f_src6_hi) = q.(f_src6_hi)
    && a.(b + f_src6_lo) = q.(f_src6_lo)
    && a.(b + f_dst6_hi) = q.(f_dst6_hi)
    && a.(b + f_dst6_lo) = q.(f_dst6_lo)
  else
    a.(b + f_dst) = q.(f_src)
    && a.(b + f_src) = q.(f_dst)
    && a.(b + f_dport) = q.(f_sport)
    && a.(b + f_sport) = q.(f_dport)
    && a.(b + f_dst6_hi) = q.(f_src6_hi)
    && a.(b + f_dst6_lo) = q.(f_src6_lo)
    && a.(b + f_src6_hi) = q.(f_dst6_hi)
    && a.(b + f_src6_lo) = q.(f_dst6_lo)

(* A tuple that is its own reverse (src = dst, sport = dport) has one
   index entry: a packet on it is always original-direction. *)
let self_reverse (a : int array) b =
  a.(b + f_src) = a.(b + f_dst)
  && a.(b + f_sport) = a.(b + f_dport)
  && a.(b + f_src6_hi) = a.(b + f_dst6_hi)
  && a.(b + f_src6_lo) = a.(b + f_dst6_lo)

(* The index reference ([slot * 2 + dir]) of the query's tuple, or -1. *)
let find sh h (q : int array) =
  let idx = sh.index and mask = sh.mask and tag = h land ref_mask in
  let pos = ref (h land mask) and found = ref (-2) in
  while !found = -2 do
    let e = idx.(!pos) in
    if e < 0 then found := -1
    else if e lsr ref_bits = tag && matches sh (e land ref_mask) q then
      found := e land ref_mask
    else pos := (!pos + 1) land mask
  done;
  !found

let place idx mask e =
  let pos = ref ((e lsr ref_bits) land mask) in
  while idx.(!pos) >= 0 do
    pos := (!pos + 1) land mask
  done;
  idx.(!pos) <- e

(* Double the index at half occupancy, so probe runs stay short. *)
let index_add sh e =
  if 2 * (sh.entries + 1) > sh.mask + 1 then begin
    let old = sh.index in
    let positions = 2 * Array.length old in
    sh.index <- Array.make positions (-1);
    sh.mask <- positions - 1;
    Array.iter (fun e -> if e >= 0 then place sh.index sh.mask e) old
  end;
  place sh.index sh.mask e;
  sh.entries <- sh.entries + 1

(* Remove entry [e], then shift each later entry of the probe run back
   into the hole unless that would move it before its home position:
   every remaining entry stays reachable from its home with no tombstone
   left behind. *)
let index_remove sh e =
  let idx = sh.index and mask = sh.mask in
  let hole = ref ((e lsr ref_bits) land mask) in
  while idx.(!hole) <> e do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  while idx.(!j) >= 0 do
    let home = (idx.(!j) lsr ref_bits) land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      idx.(!hole) <- idx.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  idx.(!hole) <- -1;
  sh.entries <- sh.entries - 1

(* A free slot id; a new page when every id is taken. Ids stay stable,
   so index references and handles survive growth. *)
let alloc_slot sh =
  if sh.free >= 0 then begin
    let id = sh.free in
    sh.free <- sh.ints.(page id).(base id + f_src);
    id
  end
  else begin
    let id = sh.used in
    if off id = 0 then begin
      let p = page id in
      if p = Array.length sh.ints then begin
        let grow a empty =
          let b = Array.make (Int.max 1 (2 * p)) empty in
          Array.blit a 0 b 0 p;
          b
        in
        sh.ints <- grow sh.ints [||];
        sh.created_at <- grow sh.created_at (Float.Array.create 0);
        sh.last_seen <- grow sh.last_seen (Float.Array.create 0);
        sh.nat <- grow sh.nat [||];
        sh.handles <- grow sh.handles [||]
      end;
      sh.ints.(p) <- Array.make (page_slots * stride) 0;
      sh.created_at.(p) <- Float.Array.make page_slots 0.;
      sh.last_seen.(p) <- Float.Array.make page_slots 0.;
      sh.nat.(p) <- Array.make page_slots None;
      sh.handles.(p) <- Array.make page_slots None
    end;
    sh.used <- id + 1;
    id
  end

let zone_counter t zone =
  match Hashtbl.find t.zone_counts zone with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.replace t.zone_counts zone r;
      r

(* Drop the connection in slot [id]: its index entries, its zone count,
   and its handle, which keeps the final state. *)
let free_conn t sh id =
  let a = sh.ints.(page id) and b = base id in
  index_remove sh (entry (dir_hash a b ~rev:false) (2 * id));
  if not (self_reverse a b) then
    index_remove sh (entry (dir_hash a b ~rev:true) ((2 * id) + 1));
  decr (zone_counter t a.(b + f_zone));
  (match sh.handles.(page id).(off id) with
  | Some c -> c.id <- -1 - a.(b + f_state)
  | None -> ());
  sh.handles.(page id).(off id) <- None;
  sh.nat.(page id).(off id) <- None;
  a.(b + f_state) <- -1;
  a.(b + f_src) <- sh.free;
  sh.free <- id;
  sh.live <- sh.live - 1

(** Per-zone connection limit (Sec 2.1.1's nf_conncount feature). *)
let set_zone_limit t ~zone ~limit = Hashtbl.replace t.zone_limits zone limit

let reshard t ~shards =
  if Array.exists (fun sh -> sh.live > 0) t.shards then
    invalid_arg "Conntrack.reshard: connections are live";
  let t' = create ~shards () in
  Hashtbl.iter (fun zone limit -> set_zone_limit t' ~zone ~limit) t.zone_limits;
  t'

let zone_count t ~zone =
  match Hashtbl.find_opt t.zone_counts zone with Some r -> !r | None -> 0

let active_conns t = Array.fold_left (fun acc sh -> acc + sh.live) 0 t.shards

let limit_drops t = t.limit_drops

let longest_probe t =
  Array.fold_left
    (fun acc sh ->
      let longest = ref acc in
      Array.iteri
        (fun p e ->
          if e >= 0 then
            longest := Int.max !longest (((p - (e lsr ref_bits)) land sh.mask) + 1))
        sh.index;
      !longest)
    0 t.shards

let state c =
  states.(if c.id >= 0 then c.sh.ints.(page c.id).(base c.id + f_state) else -1 - c.id)

(** Result of passing a packet through conntrack: the ct_state bits OVS
    sets on the packet for the recirculated lookup. *)
type verdict = { ct_state : int; conn : conn option }

let state_bits ~is_new ~established ~reply ~invalid =
  let open FK.Ct_state_bits in
  trk
  lor (if is_new then new_ else 0)
  lor (if established then est else 0)
  lor (if reply then rpl else 0)
  lor if invalid then inv else 0

let new_verdict =
  { ct_state = state_bits ~is_new:true ~established:false ~reply:false ~invalid:false;
    conn = None }

let[@inline] has flags f = flags land f <> 0

(* advance the TCP state machine for a packet in the given direction *)
let tcp_advance st ~flags ~is_reply =
  let open Ovs_packet.Tcp.Flags in
  if has flags rst then Closed
  else
    match st with
    | Syn_sent when is_reply && has flags syn && has flags ack -> Syn_recv
    | Syn_sent -> Syn_sent
    | Syn_recv when (not is_reply) && has flags ack -> Established
    | Syn_recv -> Syn_recv
    | Established when has flags fin -> Fin_wait
    | Established -> Established
    | Fin_wait when has flags fin -> Close_wait
    | Fin_wait -> Fin_wait
    | Close_wait when has flags ack -> Time_wait
    | Close_wait -> Close_wait
    | Time_wait -> Time_wait
    | Closed -> Closed

(* The state a hit in direction [is_reply] moves a connection to. *)
let advance code ~flags ~is_reply =
  match states.(code) with
  | Tcp st -> code_of_tcp (tcp_advance st ~flags ~is_reply)
  | Udp_single when is_reply -> s_udp_multiple
  | Udp_single | Udp_multiple | Icmp_active -> code

let load_key t ~zone (k : FK.t) =
  let q = t.query in
  q.(f_src) <- FK.get k FK.Field.Nw_src;
  q.(f_dst) <- FK.get k FK.Field.Nw_dst;
  q.(f_proto) <- FK.get k FK.Field.Nw_proto;
  q.(f_sport) <- FK.get k FK.Field.Tp_src lor (FK.get k FK.Field.Ip6_src_mid lsl port_bits);
  q.(f_dport) <- FK.get k FK.Field.Tp_dst lor (FK.get k FK.Field.Ip6_dst_mid lsl port_bits);
  q.(f_zone) <- zone;
  q.(f_src6_hi) <- FK.get k FK.Field.Ip6_src_hi;
  q.(f_src6_lo) <- FK.get k FK.Field.Ip6_src_lo;
  q.(f_dst6_hi) <- FK.get k FK.Field.Ip6_dst_hi;
  q.(f_dst6_lo) <- FK.get k FK.Field.Ip6_dst_lo

(* ICMP errors (destination unreachable, time exceeded) embed the header
   of the offending packet; if that packet belongs to a tracked
   connection, the error is "related" (+rel), which firewalls must admit
   for PMTU discovery and friends to work. The inner tuple dispatches to
   its own shard, so relation works even when the error arrives on a
   different shard than the offending flow. *)
let related_conn t ~zone (buf : Ovs_packet.Buffer.t) : conn option =
  let open Ovs_packet in
  match Icmp.parse buf with
  | Some ic
    when ic.Icmp.icmp_type = Icmp.Kind.dest_unreachable
         || ic.Icmp.icmp_type = Icmp.Kind.time_exceeded -> begin
      (* the embedded original IP header starts after the 8-byte ICMP
         header; it is followed by at least 8 bytes of its L4 header *)
      let inner_l3 = buf.Buffer.l4_ofs + Icmp.header_len in
      if Buffer.length buf < inner_l3 + Ipv4.header_len + 8 then None
      else begin
        let saved_l3 = buf.Buffer.l3_ofs and saved_l4 = buf.Buffer.l4_ofs in
        buf.Buffer.l3_ofs <- inner_l3;
        let result =
          match Ipv4.parse buf with
          | Some ip when not (Ipv4.is_later_fragment ip) ->
              let q = t.query in
              Array.fill q 0 tuple_words 0;
              q.(f_src) <- ip.Ipv4.src;
              q.(f_dst) <- ip.Ipv4.dst;
              q.(f_proto) <- ip.Ipv4.proto;
              q.(f_sport) <- Buffer.get_u16 buf buf.Buffer.l4_ofs;
              q.(f_dport) <- Buffer.get_u16 buf (buf.Buffer.l4_ofs + 2);
              q.(f_zone) <- zone;
              let sh = shard_of t in
              let r = find sh (dir_hash q 0 ~rev:false) q in
              if r < 0 then None else sh.handles.(page (r lsr 1)).(off (r lsr 1))
          | Some _ | None -> None
        in
        buf.Buffer.l3_ofs <- saved_l3;
        buf.Buffer.l4_ofs <- saved_l4;
        result
      end
    end
  | Some _ | None -> None

(** Track a packet without committing: reports what the connection state
    would be ([+trk] and friends), as the [ct] action does before the
    pipeline decides to commit. Pass [buf] to let ICMP errors be matched
    to the connection they relate to ([+rel]). *)
let track ?buf t ~now ~zone (k : FK.t) : verdict =
  load_key t ~zone k;
  let q = t.query in
  let sh = shard_of t in
  let r = find sh (dir_hash q 0 ~rev:false) q in
  if r < 0 then begin
    let related =
      if q.(f_proto) = Ovs_packet.Ipv4.Proto.icmp then
        match buf with Some b -> related_conn t ~zone b | None -> None
      else None
    in
    match related with
    | Some _ -> { ct_state = FK.Ct_state_bits.(trk lor rel); conn = related }
    | None -> new_verdict
  end
  else begin
    let id = r lsr 1 and is_reply = r land 1 = 1 in
    let a = sh.ints.(page id) and b = base id in
    let code = a.(b + f_state) in
    let last_seen = sh.last_seen.(page id) in
    if now -. Float.Array.get last_seen (off id) > Float.Array.get timeouts code then begin
      free_conn t sh id;
      new_verdict
    end
    else begin
      Float.Array.set last_seen (off id) now;
      a.(b + f_packets) <- a.(b + f_packets) + 1;
      let code = advance code ~flags:(FK.get k FK.Field.Tcp_flags) ~is_reply in
      a.(b + f_state) <- code;
      let invalid = code = s_closed in
      let established =
        match states.(code) with
        | Tcp Established | Tcp Fin_wait | Tcp Close_wait -> true
        | Udp_multiple -> true
        | Tcp _ | Udp_single | Icmp_active -> false
      in
      {
        ct_state =
          state_bits ~is_new:false ~established:(established && not invalid)
            ~reply:is_reply ~invalid;
        conn = sh.handles.(page id).(off id);
      }
    end
  end

(** Commit a new connection (the [ct(commit)] action). Applies the zone
    limit; returns [None] when the zone is full (packet should drop). *)
let commit t ~now ~zone ?nat (k : FK.t) : conn option =
  load_key t ~zone k;
  let q = t.query in
  let sh = shard_of t in
  let h = dir_hash q 0 ~rev:false in
  let r = find sh h q in
  if r >= 0 then sh.handles.(page (r lsr 1)).(off (r lsr 1)) (* already committed *)
  else begin
    let count = zone_counter t zone in
    (* the effective limit is the configured one, tightened by any open
       Ct_pressure fault window on this zone *)
    let limit =
      match (Hashtbl.find_opt t.zone_limits zone, Ovs_faults.Faults.ct_limit ~zone) with
      | Some l, Some forced -> Some (Int.min l forced)
      | None, forced -> forced
      | (Some _ as l), None -> l
    in
    match limit with
    | Some l when !count >= l ->
        t.limit_drops <- t.limit_drops + 1;
        Ovs_sim.Coverage.incr cov_zone_limit_drop;
        None
    | _ ->
        let id = alloc_slot sh in
        let a = sh.ints.(page id) and b = base id in
        Array.blit q 0 a b tuple_words;
        let proto = q.(f_proto) in
        a.(b + f_state) <-
          (if proto = Ovs_packet.Ipv4.Proto.tcp then code_of_tcp Syn_sent
           else if proto = Ovs_packet.Ipv4.Proto.udp then s_udp_single
           else s_icmp);
        a.(b + f_mark) <- 0;
        a.(b + f_packets) <- 1;
        Float.Array.set sh.created_at.(page id) (off id) now;
        Float.Array.set sh.last_seen.(page id) (off id) now;
        sh.nat.(page id).(off id) <- nat;
        let conn = Some { sh; id } in
        sh.handles.(page id).(off id) <- conn;
        index_add sh (entry h (2 * id));
        if not (self_reverse a b) then
          index_add sh (entry (dir_hash a b ~rev:true) ((2 * id) + 1));
        sh.live <- sh.live + 1;
        incr count;
        conn
  end

(** Apply a connection's NAT rewrite to a packet (and its extracted key),
    translating forward on original-direction packets and reversing on
    replies. Returns [true] if the packet was rewritten. *)
let apply_nat (conn : conn) ~is_reply (buf : Ovs_packet.Buffer.t) (k : FK.t) =
  let sh = conn.sh and id = conn.id in
  match if id >= 0 then sh.nat.(page id).(off id) else None with
  | None -> false
  | Some { nat_src; nat_dst } ->
      let orig f = sh.ints.(page id).(base id + f) in
      let orig_port f = orig f land port_mask in
      let set_ip_src v =
        Ovs_packet.Ipv4.set_src buf v;
        FK.set k FK.Field.Nw_src v
      and set_ip_dst v =
        Ovs_packet.Ipv4.set_dst buf v;
        FK.set k FK.Field.Nw_dst v
      in
      let set_port_src p =
        (if FK.get k FK.Field.Nw_proto = Ovs_packet.Ipv4.Proto.tcp then
           Ovs_packet.Tcp.set_src_port buf p
         else Ovs_packet.Udp.set_src_port buf p);
        FK.set k FK.Field.Tp_src p
      and set_port_dst p =
        (if FK.get k FK.Field.Nw_proto = Ovs_packet.Ipv4.Proto.tcp then
           Ovs_packet.Tcp.set_dst_port buf p
         else Ovs_packet.Udp.set_dst_port buf p);
        FK.set k FK.Field.Tp_dst p
      in
      let changed = ref false in
      (match nat_src with
      | Some (ip, port) ->
          changed := true;
          if is_reply then begin
            set_ip_dst (orig f_src);
            set_port_dst (orig_port f_sport)
          end
          else begin
            set_ip_src ip;
            set_port_src port
          end
      | None -> ());
      (match nat_dst with
      | Some (ip, port) ->
          changed := true;
          if is_reply then begin
            set_ip_src (orig f_dst);
            set_port_src (orig_port f_dport)
          end
          else begin
            set_ip_dst ip;
            set_port_dst port
          end
      | None -> ());
      if !changed then Ovs_packet.Ipv4.update_csum buf;
      !changed

(* Oldest first; the tuple tie-break (the IPv4 fields, the zone, then
   the IPv6 words) keeps same-instant commits (one virtual-time batch)
   deterministic regardless of table order. *)
let older a b =
  let created c = Float.Array.get c.sh.created_at.(page c.id) (off c.id) in
  match Float.compare (created a) (created b) with
  | 0 ->
      let x = a.sh.ints.(page a.id) and y = b.sh.ints.(page b.id) in
      let bx = base a.id and by = base b.id in
      let rec cmp f =
        if f = tuple_words then 0
        else match Int.compare x.(bx + f) y.(by + f) with 0 -> cmp (f + 1) | c -> c
      in
      cmp 0
  | c -> c

(** Shrink [zone] to at most [limit] tracked connections by evicting the
    oldest entries first — conntrack's early_drop policy under table
    pressure (the longest-lived connection is the cheapest to lose), and
    the window-open side effect of a [Ct_pressure] fault: evicted
    connections must re-commit, and while the forced limit holds, those
    commits fail into the invalid state. Returns the number evicted. *)
let evict_to_limit t ~zone ~limit =
  let excess = zone_count t ~zone - limit in
  if excess <= 0 then 0
  else begin
    let candidates = ref [] in
    Array.iter
      (fun sh ->
        for id = 0 to sh.used - 1 do
          match sh.handles.(page id).(off id) with
          | Some c when sh.ints.(page id).(base id + f_zone) = zone ->
              candidates := c :: !candidates
          | Some _ | None -> ()
        done)
      t.shards;
    let victims = List.filteri (fun i _ -> i < excess) (List.sort older !candidates) in
    List.iter (fun c -> free_conn t c.sh c.id) victims;
    List.length victims
  end

(** Resumable bounded expiry: examine at least [budget] directional
    entries' worth of slots (a live connection costs 2, an empty slot 1,
    so progress is guaranteed), starting from where the previous call
    stopped, and reclaim every expired connection found. One full
    rotation of the cursor — however many calls it is amortized over —
    examines every slot exactly once, so no connection lingers more than
    one rotation past its timeout. Returns how many were reclaimed. *)
let sweep_bounded t ~now ~budget =
  let n_sh = Array.length t.shards in
  let total_slots = Array.fold_left (fun acc sh -> acc + sh.used) 0 t.shards in
  let reclaimed = ref 0 in
  let examined = ref 0 in
  let visited = ref 0 in
  while !visited < total_slots && !examined < budget do
    let sh = t.shards.(t.shard_cursor) in
    (* scan this shard's slots up to its end or the budget *)
    while sh.cursor < sh.used && !examined < budget && !visited < total_slots do
      let id = sh.cursor in
      let code = sh.ints.(page id).(base id + f_state) in
      if code < 0 then incr examined
      else begin
        examined := !examined + 2;
        if
          now -. Float.Array.get sh.last_seen.(page id) (off id)
          > Float.Array.get timeouts code
        then begin
          free_conn t sh id;
          incr reclaimed
        end
      end;
      sh.cursor <- id + 1;
      incr visited
    done;
    if sh.cursor >= sh.used then begin
      sh.cursor <- 0;
      t.shard_cursor <- (t.shard_cursor + 1) mod n_sh
    end
  done;
  !reclaimed

(** Expire connections idle past their protocol timeout. Returns how many
    were reclaimed. The unbounded wrapper: one whole cursor rotation. *)
let sweep t ~now = sweep_bounded t ~now ~budget:max_int
