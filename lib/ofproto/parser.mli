type flow = {
  table : int;
  priority : int;
  cookie : int;
  match_ : Match_.t;
  actions : Action.t list;
}
exception Parse_error of string
val parse_flow : string -> flow
val parse_match_spec : string -> int option * Match_.t
val install_flows : Pipeline.t -> string list -> int
