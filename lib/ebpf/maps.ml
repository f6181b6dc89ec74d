(** eBPF maps: the kernel-resident state shared between eBPF programs and
    userspace. Keys and values are [int64] (the OVS XDP programs only need
    scalar keys/values: MAC → port, 5-tuple hash → backend, queue → socket).

    The paper's footnote 1 records that the kernel maintainers rejected a
    "megaflow map" type, which is why the eBPF datapath cannot implement the
    megaflow cache; the map kinds here are the upstream ones. *)

type kind =
  | Array  (** fixed-size array indexed by key *)
  | Hash  (** hash table *)
  | Devmap  (** port index → net device, for XDP_REDIRECT *)
  | Xskmap  (** queue index → AF_XDP socket, for XDP_REDIRECT *)
  | Prog_array  (** slot → program id, for bpf_tail_call chaining *)

(* Keyed on [int64] with a monomorphic equality and an inline hash, so a
   probe makes no polymorphic hash or compare call. *)
module Tbl = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash (k : int64) = Int64.to_int k land max_int
end)

type t = {
  id : int;
  name : string;
  kind : kind;
  max_entries : int;
  tbl : int64 Tbl.t;
  arr : int64 array;  (** backing store for [Array] kind *)
  mutable lookups : int;  (** statistics for the cost model and tests *)
  mutable updates : int;
}

(* Map ids are handed out densely from 1: the registry is indexed by id. *)
let registry : t option array ref = ref (Array.make 16 None)
let next_id = ref 0

(** Create and register a map, returning its handle ("fd"). *)
let create ~name ~kind ~max_entries =
  incr next_id;
  let m =
    {
      id = !next_id;
      name;
      kind;
      max_entries;
      tbl = Tbl.create (Int.min max_entries 1024);
      arr =
        (match kind with
        | Array -> Array.make max_entries 0L  (* kernel arrays zero-fill *)
        | Prog_array -> Array.make max_entries (-1L)  (* empty slots *)
        | Hash | Devmap | Xskmap -> [||]);
      lookups = 0;
      updates = 0;
    }
  in
  if m.id >= Array.length !registry then
    registry := Array.append !registry (Array.make (Array.length !registry) None);
  !registry.(m.id) <- Some m;
  m

let find_exn id =
  match if id > 0 && id < Array.length !registry then !registry.(id) else None with
  | Some m -> m
  | None -> failwith (Printf.sprintf "ebpf: unknown map id %d" id)

let lookup m (key : int64) : int64 option =
  m.lookups <- m.lookups + 1;
  match m.kind with
  | Array | Prog_array ->
      let i = Int64.to_int key in
      if i >= 0 && i < m.max_entries then Some m.arr.(i) else None
  | Hash | Devmap | Xskmap -> Tbl.find_opt m.tbl key

(** Returns [false] when a hash map is full (kernel E2BIG behaviour). *)
let update m (key : int64) (value : int64) : bool =
  m.updates <- m.updates + 1;
  match m.kind with
  | Array | Prog_array ->
      let i = Int64.to_int key in
      if i >= 0 && i < m.max_entries then begin
        m.arr.(i) <- value;
        true
      end
      else false
  | Hash | Devmap | Xskmap ->
      if Tbl.mem m.tbl key then begin
        Tbl.replace m.tbl key value;
        true
      end
      else if Tbl.length m.tbl >= m.max_entries then false
      else begin
        Tbl.replace m.tbl key value;
        true
      end

let delete m (key : int64) =
  match m.kind with
  | Array | Prog_array -> ()
  | Hash | Devmap | Xskmap -> Tbl.remove m.tbl key

let entries m =
  match m.kind with
  | Array | Prog_array -> m.max_entries
  | Hash | Devmap | Xskmap -> Tbl.length m.tbl

(** Forget all registered maps (test isolation). *)
let reset_registry () =
  registry := Array.make 16 None;
  next_id := 0
