(** OVSDB values, after RFC 7047: atoms, sets and maps. The NSX agent
    configures bridges, ports and interfaces through these (Fig 7's OVSDB
    channel). *)

type uuid = string

(* deterministic uuid generation: OVSDB semantics need uniqueness, not
   unpredictability *)
let uuid_counter = ref 0

let fresh_uuid () =
  incr uuid_counter;
  Printf.sprintf "%08x-0000-4000-8000-%012x" !uuid_counter (!uuid_counter * 2654435761)

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

let string s = Atom (String s)
let int i = Atom (Int i)
let uuid u = Atom (Uuid u)
let empty_set = Set []

let atom_equal a b =
  match (a, b) with
  | String x, String y -> String.equal x y
  | Int x, Int y -> x = y
  | Real x, Real y -> x = y
  | Bool x, Bool y -> x = y
  | Uuid x, Uuid y -> String.equal x y
  | _ -> false

let equal v w =
  match (v, w) with
  | Atom a, Atom b -> atom_equal a b
  | Set a, Set b ->
      List.length a = List.length b
      && List.for_all (fun x -> List.exists (atom_equal x) b) a
  | Map a, Map b ->
      List.length a = List.length b
      && List.for_all
           (fun (k, v) -> List.exists (fun (k', v') -> atom_equal k k' && atom_equal v v') b)
           a
  | _ -> false

(** Set insertion/removal (the [mutate] operation's building blocks). *)
let set_add v a =
  match v with
  | Set s -> if List.exists (atom_equal a) s then Set s else Set (a :: s)
  | Atom _ | Map _ -> invalid_arg "Value.set_add: not a set"

let set_remove v a =
  match v with
  | Set s -> Set (List.filter (fun x -> not (atom_equal x a)) s)
  | Atom _ | Map _ -> invalid_arg "Value.set_remove: not a set"

let set_members = function
  | Set s -> s
  | Atom a -> [ a ]  (* RFC 7047: a single atom is a one-element set *)
  | Map _ -> invalid_arg "Value.set_members: map"

let map_get v k =
  match v with
  | Map m -> List.find_map (fun (k', x) -> if atom_equal k k' then Some x else None) m
  | Atom _ | Set _ -> None

let map_put v k x =
  match v with
  | Map m -> Map ((k, x) :: List.filter (fun (k', _) -> not (atom_equal k k')) m)
  | Atom _ | Set _ -> invalid_arg "Value.map_put: not a map"

(** Reset uuid generation (test isolation). *)
let reset_uuids () = uuid_counter := 0
