(** iSet partitioning: split megaflows into groups with pairwise-disjoint
    ranges on one field, plus a remainder. See [iset.ml]. *)

module FK = Ovs_packet.Flow_key

(** Mask-aware predicate algebra over one integer field: masked tests
    ([x land mask = value]) with intersection, complement into regions
    (positive test + negated tests, with a concrete representative), and
    refinement of a test set into a disjoint, covering partition of the
    field domain. [prefix_range] reads a megaflow's range off it; the
    policy equivalence checker builds cross-field cubes on [refine]. *)
module Masked : sig
  type t = private { m_value : int; m_mask : int }

  val make : value:int -> mask:int -> t
  val always : t
  val is_always : t -> bool
  val mem : int -> t -> bool
  val equal : t -> t -> bool

  (** Conjunction of two tests; [None] when they contradict. *)
  val inter : t -> t -> t option

  (** [implies a b]: every value passing [a] passes [b]. *)
  val implies : t -> t -> bool

  type region = { r_pos : t; r_negs : t list; r_rep : int }

  val region_mem : int -> region -> bool

  (** A value in [pos] violating every neg, or [None] if the region is
      empty (conservatively [None] past [2^16] fallback candidates). *)
  val sample : full:int -> t -> t list -> int option

  val complement : full:int -> t -> region option

  (** Disjoint regions covering the domain, on each of which every atom
      is constant. *)
  val refine : full:int -> t list -> region list
end

type iset = {
  is_field : FK.Field.t;
  is_members : int array;  (** caller-side entry indices, sorted by [is_lo] *)
  is_lo : int array;
  is_hi : int array;
}

type t = {
  isets : iset list;  (** largest first *)
  remainder : int list;  (** entry indices left to the classifier *)
  considered : int;
}

(** The range the megaflow covers on a field, when its mask there is a
    non-empty contiguous prefix. *)
val prefix_range : mask:FK.t -> key:FK.t -> FK.Field.t -> (int * int) option

val partition :
  ?fields:FK.Field.t array ->
  ?max_isets:int ->
  ?min_size:int ->
  masks:FK.t array ->
  keys:FK.t array ->
  unit ->
  t
