(** OVSDB values, after RFC 7047: atoms, sets and maps. The NSX agent
    configures bridges, ports and interfaces through these (Fig 7's OVSDB
    channel). *)

type uuid = string

(** Deterministic uuid generation: OVSDB semantics need uniqueness, not
    unpredictability. *)
val fresh_uuid : unit -> uuid

type atom =
  | String of string
  | Int of int
  | Real of float
  | Bool of bool
  | Uuid of uuid

type t =
  | Atom of atom
  | Set of atom list  (** unordered, duplicate-free *)
  | Map of (atom * atom) list

val string : string -> t
val int : int -> t
val uuid : uuid -> t
val empty_set : t

val atom_equal : atom -> atom -> bool

(** Structural equality; sets and maps compare unordered. *)
val equal : t -> t -> bool

(** Set insertion/removal (the [mutate] operation's building blocks).
    @raise Invalid_argument on non-set values. *)
val set_add : t -> atom -> t

val set_remove : t -> atom -> t

(** RFC 7047: a single atom is a one-element set.
    @raise Invalid_argument on maps. *)
val set_members : t -> atom list

val map_get : t -> atom -> atom option
val map_put : t -> atom -> atom -> t

(** Reset uuid generation (test isolation). *)
val reset_uuids : unit -> unit
