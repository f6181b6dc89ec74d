(** Connection tracking: the userspace reimplementation of the kernel's
    netfilter conntrack that OVS needed once the datapath left the kernel
    (paper Sec 4). Zones isolate virtual networks; TCP connections follow
    a real state machine over real flags; ICMP errors are matched to the
    connection they quote ([+rel]); NAT rewrites both packet bytes and
    flow keys; per-zone limits model the nf_conncount feature whose
    backport cost Sec 2.1.1 quantifies. *)

module FK = Ovs_packet.Flow_key

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
  nat_src : (int * int) option;  (** SNAT target (ip, port) *)
  nat_dst : (int * int) option;  (** DNAT target (ip, port) *)
}

type conn
(** A tracked connection. The handle stays valid until the connection is
    reclaimed (expiry, a sweep or eviction); after that {!state} reports
    its last state and {!apply_nat} rewrites nothing. *)

val state : conn -> proto_state
(** The connection's protocol state. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] (default 1) splits storage by a direction-symmetric
    5-tuple hash: a tuple and its reverse always land in the same
    shard, so per-PMD engines can treat each shard as domain-private
    and keep the hit path lock-free. *)

val set_zone_limit : t -> zone:int -> limit:int -> unit
(** Cap committed connections in a zone (nf_conncount). *)

val reshard : t -> shards:int -> t
(** An empty table with [shards] shards and [t]'s zone limits. Raises
    [Invalid_argument] if [t] tracks any connection. *)

val zone_count : t -> zone:int -> int

val active_conns : t -> int
(** Tracked connections, each counted once (a connection whose reply
    tuple is its original tuple has a single index entry). *)

val limit_drops : t -> int

val longest_probe : t -> int
(** The most index positions any tracked direction's lookup examines:
    its distance from its home position plus one (0 when empty). For
    tests of the open-addressed index. *)

type verdict = { ct_state : int; conn : conn option }
(** The ct_state bits ({!FK.Ct_state_bits}) the [ct] action sets for the
    recirculated lookup, plus the connection if one matched. *)

val track : ?buf:Ovs_packet.Buffer.t -> t -> now:Ovs_sim.Time.ns -> zone:int -> FK.t -> verdict
(** Classify a packet against the connection table without committing.
    Expired connections are reclaimed lazily. Pass [buf] so ICMP errors
    can be matched to the connection they quote ([+rel]). *)

val commit : t -> now:Ovs_sim.Time.ns -> zone:int -> ?nat:nat_action -> FK.t -> conn option
(** Create the connection (the [ct(commit)] action); idempotent for an
    existing one. [None] when the zone's limit is reached — the packet
    should drop. *)

val apply_nat : conn -> is_reply:bool -> Ovs_packet.Buffer.t -> FK.t -> bool
(** Rewrite the packet (and its extracted key) per the connection's NAT:
    forward translation on original-direction packets, reverse on
    replies. Refreshes the IPv4 header checksum. Returns whether anything
    changed. *)

val sweep : t -> now:Ovs_sim.Time.ns -> int
(** Reclaim connections idle past their protocol timeout; returns how
    many. Equivalent to {!sweep_bounded} with an infinite budget: one
    full rotation of the slot cursor. *)

val sweep_bounded : t -> now:Ovs_sim.Time.ns -> budget:int -> int
(** Resumable bounded expiry: examine roughly [budget] directional
    entries (a live connection costs 2, an empty slot 1, so progress is
    guaranteed) starting where the previous call stopped, reclaiming
    expired connections found along the way. A full cursor rotation —
    however many calls it is amortized over — visits every connection
    exactly once, so per-poll budgets bound reclamation latency by one
    rotation. A call that reclaims nothing allocates nothing. Returns
    how many connections were reclaimed. *)

val evict_to_limit : t -> zone:int -> limit:int -> int
(** Evict the oldest connections (by [created_at], original direction)
    until [zone] holds at most [limit] — early_drop under table
    pressure; the [Ct_pressure] fault's window-open side effect.
    Returns the number evicted. *)
