type msg =
    Hello
  | Error of { err_type : int; code : int; }
  | Echo_request of bytes
  | Echo_reply of bytes
  | Features_request
  | Features_reply of { datapath_id : int64; n_tables : int; }
  | Packet_in of { total_len : int; reason : int; table_id : int;
      in_port : int; data : bytes;
    }
  | Packet_out of { in_port : int; actions : Action.t list; data : bytes; }
  | Flow_mod of { command : [ `Add | `Delete | `Modify ]; table_id : int;
      priority : int; cookie : int; match_ : Match_.t;
      actions : Action.t list;
    }
  | Flow_stats_request of { table_id : int; }
  | Flow_stats_reply of (int * int * int) list
exception Decode_error of string
val encode : ?xid:int -> msg -> bytes
val decode : bytes -> msg * int * int
