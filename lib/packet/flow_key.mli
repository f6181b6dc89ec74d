module Field :
  sig
    type t =
        In_port
      | Recirc_id
      | Dl_src
      | Dl_dst
      | Dl_type
      | Vlan_tci
      | Nw_src
      | Nw_dst
      | Nw_proto
      | Nw_tos
      | Nw_ttl
      | Nw_frag
      | Tp_src
      | Tp_dst
      | Tcp_flags
      | Tun_id
      | Tun_src
      | Tun_dst
      | Ct_state
      | Ct_zone
      | Ct_mark
      | Ip6_src_hi
      | Ip6_src_lo
      | Ip6_dst_hi
      | Ip6_dst_lo
      | Reg0
      | Reg1
      | Reg2
      | Reg3
      | Reg4
      | Reg5
      | Reg6
      | Reg7
      | Ip6_src_mid
      | Ip6_dst_mid
    val all : t array
    val count : int
    val to_index : t -> int
    val name : t -> string
    val of_name : string -> t option
    val full_mask : t -> int
  end
type t
(** A key: one word per {!Field.t}. Abstract, so only this module knows
    its layout. *)

module Ct_state_bits :
  sig
    val new_ : int
    val est : int
    val rel : int
    val rpl : int
    val inv : int
    val trk : int
  end

val create : unit -> t
(** Every field 0. *)

val get : t -> Field.t -> int
val set : t -> Field.t -> int -> unit
val copy : t -> t

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]. *)

val equal : t -> t -> bool

val hash : t -> int
(** FNV-1a over the fields, never negative; the EMC and SMC hash. *)

val equal_masked : t -> t -> t -> bool
(** [equal_masked a b mask]: [a] and [b] agree on [mask]'s bits. *)

val apply_mask : t -> t -> t
(** [apply_mask k mask]: a fresh key with [k]'s wildcarded bits zeroed. *)

val or_mask : t -> t -> unit
(** [or_mask acc m] sets in [acc] every bit set in [m]. *)

(** {1 Sparse masks}

    A classifier subtable keeps its mask as the indices of the mask's
    nonzero words and those words ({!sparse_of_mask}), and hashes and
    compares over them alone. *)

val sparse_of_mask : t -> int array * int array
(** The indices of the mask's nonzero words, and those words. *)

val hash_sparse : int array -> int array -> t -> int
(** [hash_sparse fields words key]: FNV-1a over [key]'s covered words,
    each masked; [key] need not be masked. *)

val equal_sparse : int array -> int array -> int array -> int -> t -> bool
(** [equal_sparse fields words flat off key]: whether [key] masked
    equals, on the covered words, the words {!store_sparse} put at
    [flat.(off) ..]. *)

val store_sparse : int array -> int array -> t -> int array -> int -> unit
(** [store_sparse fields words key flat off]: [key]'s covered words,
    each masked, into [flat.(off) ..], one word per field. *)

val rss_hash : t -> int
(** The 5-tuple RSS hash AF_XDP computes in software. *)

val extract_into : t -> Buffer.t -> unit
(** Overwrite every field of the key from a packet, allocating nothing. *)

val extract : Buffer.t -> t
(** {!extract_into} a fresh key. *)

val pp : Format.formatter -> t -> unit
