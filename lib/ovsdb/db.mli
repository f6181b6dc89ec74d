(** The OVSDB database engine: schema, rows, atomic transactions, and
    monitors — the management channel of Fig 7 (the NSX agent "uses OVSDB,
    a protocol for managing OpenFlow switches, to create two bridges").

    Transactions are lists of operations executed atomically: any failed
    operation rolls the whole transaction back, exactly like the wire
    protocol's semantics. Monitors receive row-level change notifications
    after a successful commit, which is how ovs-vswitchd reconfigures
    itself when the agent writes. *)

type column = { col_name : string; default : Value.t }
type table_schema = { tbl_name : string; columns : column list }
type schema = { db_name : string; tables : table_schema list }

(** The subset of the Open_vSwitch schema the system needs. *)

type t

val create : ?schema:schema -> unit -> t

exception Txn_error of string

(** [where] clauses. *)
type condition =
  | Eq of string * Value.t
  | Includes of string * Value.atom  (** set membership *)
  | True

type operation =
  | Insert of {
      op_table : string;
      values : (string * Value.t) list;
      uuid_name : string option;
    }
  | Update of {
      op_table : string;
      where : condition list;
      values : (string * Value.t) list;
    }
  | Mutate of {
      op_table : string;
      where : condition list;
      col : string;
      mutator : [ `Insert of Value.atom | `Delete of Value.atom ];
    }
  | Delete of { op_table : string; where : condition list }
  | Select of { op_table : string; where : condition list }

type op_result =
  | Inserted of Value.uuid
  | Count of int
  | Rows of (Value.uuid * (string * Value.t) list) list

(** Execute one transaction atomically. Returns per-operation results, or
    raises {!Txn_error} after rolling every effect back. The [uuid_name]
    mechanism lets later operations in the same transaction reference rows
    inserted by earlier ones, as the wire protocol's named-uuids do. *)
val transact : t -> operation list -> op_result list

type change =
  | Row_insert of Value.uuid
  | Row_update of Value.uuid
  | Row_delete of Value.uuid

(** Register a monitor on a table; returns an unregister function. *)
val monitor : t -> table:string -> callback:(change -> unit) -> unit -> unit

(* -- convenience reads -- *)

val get_column :
  t -> table:string -> uuid:Value.uuid -> column:string -> Value.t option

val find_rows :
  t ->
  table:string ->
  where:condition list ->
  (Value.uuid * (string * Value.t) list) list

val row_count : t -> table:string -> int
