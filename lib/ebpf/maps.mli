type kind = Array | Hash | Devmap | Xskmap | Prog_array
module Tbl : Hashtbl.S with type key = int64
type t = {
  id : int;
  name : string;
  kind : kind;
  max_entries : int;
  tbl : int64 Tbl.t;
  arr : int64 array;
  mutable lookups : int;
  mutable updates : int;
}
val create : name:string -> kind:kind -> max_entries:int -> t
val find_exn : int -> t
val lookup : t -> int64 -> int64 option
val update : t -> int64 -> int64 -> bool
val delete : t -> int64 -> unit
val reset_registry : unit -> unit
