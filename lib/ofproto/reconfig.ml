(** Live reconfiguration: OVSDB-driven plans of control-plane churn
    applied through the OpenFlow wire path while traffic flows.

    A {!plan} is a timed sequence of rule inserts/modifies/deletes and
    whole-table-set swaps — what an NSX-style manager writes during a
    policy rollout or an upgrade. Plans live as rows in an OVSDB table
    ({!schema}); {!attach} registers a monitor so committing rows drives
    the switch exactly like ovs-vswitchd reconfiguring on a database
    write (Fig 7's management channel). Every rule change travels as an
    encoded FLOW_MOD through {!Ofconn.feed} — nothing short-circuits the
    wire.

    Swaps come in two styles (Sec 6's upgrade argument, made dynamic):
    - [Naive]: delete everything in place, then install the replacement.
      Between the delete barrage and the last add the classifier is
      incomplete; with the megaflow cache revalidated, misses translate
      against half-built tables and packets vanish — the loss window.
    - [Two_phase]: populate a complete shadow pipeline off to the side,
      then cut the classifier pointer over atomically
      ({!Dpif.swap_pipeline}). Lookups see a consistent table set at
      every instant, so the swap is hitless: the only cost is the
      megaflow-invalidation storm (evictions + upcall burst), which this
      module's {!upgrade_report} quantifies. *)

module Db = Ovs_ovsdb.Db
module Value = Ovs_ovsdb.Value

exception Reconfig_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Reconfig_error m)) fmt

type swap_style = Naive | Two_phase

let pp_style = function Naive -> "naive" | Two_phase -> "two-phase"

(** One churn operation. Rule specs use the [ovs-ofctl] textual syntax
    ({!Parser}); a delete spec is match-only and may name a table
    (omitted = all tables, OFPTT_ALL on the wire). *)
type op =
  | Insert of string
  | Modify of string
  | Delete of string
  | Swap of { swap_style : swap_style; swap_flows : string list }

type event = { at_s : float;  (** virtual seconds into the run *) ops : op list }

type plan = { plan_name : string; events : event list }

(* ------------------------------------------------------ textual plans *)

(* One op per line: "@AT insert FLOW", "@AT modify FLOW",
   "@AT delete MATCH", "@AT swap FLOW; FLOW; ...", "@AT swap-naive ...".
   Blank lines and #-comments are skipped. Ops sharing a timestamp fold
   into one event; events sort by time (ties keep line order). *)
let parse_op_line line =
  match String.index_opt line ' ' with
  | None -> fail "bad plan line %S (want \"@AT OP SPEC\")" line
  | Some i ->
      let at = String.sub line 0 i in
      if String.length at < 2 || at.[0] <> '@' then
        fail "bad timestamp %S (want @SECONDS)" at;
      let at_s =
        try float_of_string (String.sub at 1 (String.length at - 1))
        with Failure _ -> fail "bad timestamp %S" at
      in
      let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      let op, spec =
        match String.index_opt rest ' ' with
        | None -> (rest, "")
        | Some j ->
            ( String.sub rest 0 j,
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      let flows_of spec =
        String.split_on_char ';' spec
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let op =
        match op with
        | "insert" -> Insert spec
        | "modify" -> Modify spec
        | "delete" -> Delete spec
        | "swap" -> Swap { swap_style = Two_phase; swap_flows = flows_of spec }
        | "swap-naive" -> Swap { swap_style = Naive; swap_flows = flows_of spec }
        | other -> fail "unknown plan op %S" other
      in
      (at_s, op)

let group_events (timed : (float * op) list) : event list =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) timed
  in
  List.fold_left
    (fun acc (at_s, op) ->
      match acc with
      | { at_s = t; ops } :: tl when t = at_s -> { at_s = t; ops = ops @ [ op ] } :: tl
      | _ -> { at_s; ops = [ op ] } :: acc)
    [] sorted
  |> List.rev

let plan_of_string ~name text =
  let timed =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map parse_op_line
  in
  { plan_name = name; events = group_events timed }

(* ------------------------------------------------------- OVSDB plans *)

(** The churn database: one row per operation. [seq] preserves plan
    order; [op] is the verb; [spec] the flow/match text (swap flows
    joined by ';'). *)
let schema =
  let col ?(default = Value.string "") col_name = { Db.col_name; default } in
  {
    Db.db_name = "Reconfig";
    tables =
      [
        {
          Db.tbl_name = "Churn_op";
          columns =
            [
              col "plan";
              col ~default:(Value.int 0) "seq";
              col ~default:(Value.Atom (Value.Real 0.)) "at_s";
              col "op";
              col "spec";
            ];
        };
      ];
  }

let verb_and_spec = function
  | Insert s -> ("insert", s)
  | Modify s -> ("modify", s)
  | Delete s -> ("delete", s)
  | Swap { swap_style = Two_phase; swap_flows } ->
      ("swap", String.concat "; " swap_flows)
  | Swap { swap_style = Naive; swap_flows } ->
      ("swap-naive", String.concat "; " swap_flows)

let op_of_verb verb spec =
  match parse_op_line (Printf.sprintf "@0 %s %s" verb spec) with
  | _, op -> op

(** Write a plan as one atomic transaction (all rows commit or none —
    a half-written plan never reaches the monitor). *)
let store_plan db plan =
  let seq = ref 0 in
  let ops =
    List.concat_map
      (fun e ->
        List.map
          (fun op ->
            let verb, spec = verb_and_spec op in
            incr seq;
            Db.Insert
              {
                op_table = "Churn_op";
                values =
                  [
                    ("plan", Value.string plan.plan_name);
                    ("seq", Value.int !seq);
                    ("at_s", Value.Atom (Value.Real e.at_s));
                    ("op", Value.string verb);
                    ("spec", Value.string spec);
                  ];
                uuid_name = None;
              })
          e.ops)
      plan.events
  in
  ignore (Db.transact db ops)

let row_op row =
  let str col =
    match List.assoc_opt col row with
    | Some (Value.Atom (Value.String s)) -> s
    | _ -> fail "Churn_op row: bad column %S" col
  in
  let seq =
    match List.assoc_opt "seq" row with
    | Some (Value.Atom (Value.Int n)) -> n
    | _ -> fail "Churn_op row: bad seq"
  in
  let at_s =
    match List.assoc_opt "at_s" row with
    | Some (Value.Atom (Value.Real r)) -> r
    | Some (Value.Atom (Value.Int n)) -> float_of_int n
    | _ -> fail "Churn_op row: bad at_s"
  in
  (seq, at_s, op_of_verb (str "op") (str "spec"))

(** Read a plan back out of the database (ops in [seq] order, regrouped
    into timed events). *)
let load_plan db ~name =
  let rows =
    Db.find_rows db ~table:"Churn_op"
      ~where:[ Db.Eq ("plan", Value.string name) ]
  in
  let timed =
    List.map (fun (_u, row) -> row_op row) rows
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.map (fun (_, at_s, op) -> (at_s, op))
  in
  { plan_name = name; events = group_events timed }

(* ---------------------------------------------------- wire application *)

let flow_mod_of_line command line =
  let f = Parser.parse_flow line in
  Ofp_codec.Flow_mod
    {
      command;
      table_id = f.Parser.table;
      priority = f.Parser.priority;
      cookie = f.Parser.cookie;
      match_ = f.Parser.match_;
      actions = f.Parser.actions;
    }

(** Encode one op as its OpenFlow message. Swaps are programs, not
    messages: {!attach} hands them to its [on_swap] callback. *)
let msg_of_op = function
  | Insert line -> flow_mod_of_line `Add line
  | Modify line -> flow_mod_of_line `Modify line
  | Delete spec ->
      let table, match_ = Parser.parse_match_spec spec in
      let table_id = match table with Some tbl -> tbl | None -> 0xFF in
      Ofp_codec.Flow_mod
        { command = `Delete; table_id; priority = 0; cookie = 0; match_; actions = [] }
  | Swap _ -> fail "a swap is not a single wire message"

let wire_of_ops ops =
  let out = Stdlib.Buffer.create 256 in
  List.iter
    (fun op -> Stdlib.Buffer.add_bytes out (Ofp_codec.encode (msg_of_op op)))
    ops;
  Stdlib.Buffer.to_bytes out

(** Feed ops through the switch connection; returns how many FLOW_MODs
    the switch applied. Any OFPT_ERROR reply aborts the plan. *)
let apply_ops conn ops =
  let mods0 = conn.Ofconn.flow_mods and errs0 = conn.Ofconn.errors in
  ignore (Ofconn.feed conn (wire_of_ops ops));
  if conn.Ofconn.errors > errs0 then
    fail "switch rejected %d of %d ops" (conn.Ofconn.errors - errs0)
      (List.length ops);
  conn.Ofconn.flow_mods - mods0

(** Build the two-phase upgrade's shadow: a complete replacement
    pipeline populated through its own wire connection, sharing the live
    pipeline's shape and port set, ready for the atomic cutover.
    Returns the shadow and the number of FLOW_MODs it took. *)
let build_shadow ~(like : Pipeline.t) flows =
  let shadow = Pipeline.create ~n_tables:(Pipeline.n_tables like) () in
  Pipeline.set_ports shadow like.Pipeline.ports;
  let conn = Ofconn.create ~pipeline:shadow () in
  let mods = apply_ops conn (List.map (fun l -> Insert l) flows) in
  (shadow, mods)

(* ------------------------------------------- the OVSDB-driven loop *)

(** Reconfigure-on-commit, like ovs-vswitchd: register a monitor on the
    churn table so every committed row is decoded and applied through
    [conn] immediately (swaps go to [on_swap] — they need the datapath's
    cutover point, which lives above this library). Returns the
    unregister function and a counter of applied ops. *)
let attach db ~conn ?(on_swap = fun _ _ -> ()) () =
  let applied = ref 0 in
  let unregister =
    Db.monitor db ~table:"Churn_op" ~callback:(fun change ->
        match change with
        | Db.Row_insert u -> (
            match Db.find_rows db ~table:"Churn_op" ~where:[ Db.True ] with
            | rows -> (
                match List.assoc_opt u rows with
                | None -> ()
                | Some row -> (
                    let _, _, op = row_op row in
                    incr applied;
                    match op with
                    | Swap { swap_style; swap_flows } -> on_swap swap_style swap_flows
                    | op -> ignore (apply_ops conn [ op ]))))
        | Db.Row_update _ | Db.Row_delete _ -> ())
  in
  (unregister, applied)

(* -------------------------------------------------- upgrade reporting *)

(** What one swap cost, measured by the rig that ran it: the shadow
    build, the invalidation storm at cutover, and the loss window (zero
    for two-phase — that is the gate). *)
type upgrade_report = {
  up_style : swap_style;
  up_leg : string;  (** which datapath leg ran it *)
  up_shadow_rules : int;  (** rules populated before cutover (0 for naive) *)
  up_flow_mods : int;  (** wire messages the swap took *)
  up_evicted : int;  (** megaflows evicted by the invalidation storm *)
  up_upcall_burst : int;  (** upcalls in the post-swap window *)
  up_offered : int;  (** packets offered during the swap window *)
  up_delivered : int;  (** packets delivered during the swap window *)
  up_lost : int;  (** offered - delivered - counted drops *)
  up_recovery_ns : float;  (** virtual time to restored delivery *)
}

(** The [dpif/upgrade-show] body. *)
let render_upgrade r add =
  add (Printf.sprintf "upgrade: %s cutover on %s" (pp_style r.up_style) r.up_leg);
  add
    (Printf.sprintf "  shadow rules: %d (%d flow_mods on the wire)"
       r.up_shadow_rules r.up_flow_mods);
  add
    (Printf.sprintf "  invalidation storm: %d megaflows evicted, %d upcalls"
       r.up_evicted r.up_upcall_burst);
  add
    (Printf.sprintf "  window: offered %d delivered %d lost %d" r.up_offered
       r.up_delivered r.up_lost);
  add (Printf.sprintf "  time to recovery: %.0f ns" r.up_recovery_ns)
