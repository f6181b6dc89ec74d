(** The multi-table OpenFlow pipeline and slow-path translation.

    [translate] is the analogue of ofproto-dpif-xlate: it walks the tables
    from the packet's start point (table 0, or the recirculation resume
    table), resolves OpenFlow actions into datapath actions, and accumulates
    the megaflow wildcard mask from every subtable examined — the mechanism
    that lets one slow-path translation serve millions of fast-path packets.

    Translation stops at actions that need the packet's state to change
    before matching can continue (conntrack, tunnel decap): those emit a
    recirculation, and the datapath comes back with a fresh key. *)

module FK = Ovs_packet.Flow_key

type t = {
  tables : Action.t list Table.t array;
  mac_table : (int * int, int) Hashtbl.t;  (** (vlan, mac) -> port (NORMAL) *)
  mutable ports : int list;  (** for FLOOD / NORMAL miss *)
  mutable translations : int;
  mutable table_misses : int;
}

let create ?(n_tables = 64) () =
  {
    tables = Array.init n_tables (fun _ -> Table.create ());
    mac_table = Hashtbl.create 1024;
    ports = [];
    translations = 0;
    table_misses = 0;
  }

let n_tables t = Array.length t.tables

let set_ports t ports = t.ports <- ports

let add_flow t ?(table = 0) ?(cookie = 0) ~priority match_ actions =
  if table < 0 || table >= Array.length t.tables then
    invalid_arg "Pipeline.add_flow: bad table";
  Table.add t.tables.(table) ~cookie ~priority match_ actions

let flow_count t =
  Array.fold_left (fun n tbl -> n + Table.rule_count tbl) 0 t.tables

(** Tables that contain at least one rule. *)
let tables_used t =
  Array.fold_left (fun n tbl -> if Table.rule_count tbl > 0 then n + 1 else n) 0 t.tables

type result = {
  odp_actions : Action.odp list;
  megaflow_mask : FK.t;
  tables_visited : int;
}

(* fields every translation depends on, so every megaflow matches them *)
let base_unwildcard mask =
  FK.set mask FK.Field.In_port (FK.Field.full_mask FK.Field.In_port);
  FK.set mask FK.Field.Recirc_id (FK.Field.full_mask FK.Field.Recirc_id);
  FK.set mask FK.Field.Dl_type (FK.Field.full_mask FK.Field.Dl_type)

(** Translate [key]. [start_table] defaults to the table encoded in the
    key's recirculation id (0 on first pass). The key is not modified.
    [log], when given, is called for every table visited with the matched
    rule (or [None] on a table miss) — the ofproto/trace walk hook. *)
let translate t ?start_table
    ?(log : (int -> Action.t list Table.rule option -> unit) option)
    (key : FK.t) : result =
  t.translations <- t.translations + 1;
  let start =
    match start_table with
    | Some s -> s
    | None -> FK.get key FK.Field.Recirc_id
  in
  let key = FK.copy key in
  let mask = FK.create () in
  base_unwildcard mask;
  let odp = ref [] in
  let visited = ref 0 in
  let emit a = odp := a :: !odp in
  let max_hops = 2 * Array.length t.tables in
  let rec walk table_id hops =
    if hops > max_hops then emit Action.Odp_drop
    else if table_id < 0 || table_id >= Array.length t.tables then
      emit Action.Odp_drop
    else begin
      incr visited;
      let rule = Table.lookup t.tables.(table_id) key ~wc:mask in
      (match log with Some f -> f table_id rule | None -> ());
      match rule with
      | None ->
          (* OpenFlow 1.3 default: table miss drops *)
          t.table_misses <- t.table_misses + 1
      | Some r -> apply table_id hops r.Table.value
    end
  and apply table_id hops actions =
    match actions with
    | [] -> ()
    | act :: rest -> begin
        match act with
        | Action.Output p ->
            emit (Action.Odp_output p);
            apply table_id hops rest
        | Action.In_port_output ->
            emit (Action.Odp_output (FK.get key FK.Field.In_port));
            apply table_id hops rest
        | Action.Drop ->
            (* an explicit policy drop (visible in datapath drop counters,
               unlike a table miss) *)
            emit Action.Odp_drop;
            apply table_id hops rest
        | Action.Normal -> begin
            (* L2 learning: learn src, forward to the learned dst port or
               flood. NORMAL depends on both MACs and the VLAN. *)
            let vlan = FK.get key FK.Field.Vlan_tci land 0xFFF in
            let src = FK.get key FK.Field.Dl_src in
            let dst = FK.get key FK.Field.Dl_dst in
            let in_port = FK.get key FK.Field.In_port in
            FK.set mask FK.Field.Dl_src (FK.Field.full_mask FK.Field.Dl_src);
            FK.set mask FK.Field.Dl_dst (FK.Field.full_mask FK.Field.Dl_dst);
            FK.set mask FK.Field.Vlan_tci (FK.Field.full_mask FK.Field.Vlan_tci);
            Hashtbl.replace t.mac_table (vlan, src) in_port;
            (match Hashtbl.find_opt t.mac_table (vlan, dst) with
            | Some p when p <> in_port -> emit (Action.Odp_output p)
            | Some _ -> ()
            | None ->
                List.iter
                  (fun p -> if p <> in_port then emit (Action.Odp_output p))
                  t.ports);
            apply table_id hops rest
          end
        | Action.Flood ->
            let in_port = FK.get key FK.Field.In_port in
            List.iter
              (fun p -> if p <> in_port then emit (Action.Odp_output p))
              t.ports;
            apply table_id hops rest
        | Action.Set_field (f, v) ->
            emit (Action.Odp_set (f, v));
            FK.set key f v;
            apply table_id hops rest
        | Action.Move (src, dst) ->
            (* resolved concretely, like In_port_output: the emitted
               value depends on the source field, so the megaflow must
               exact-match it *)
            FK.set mask src (FK.Field.full_mask src);
            let v = FK.get key src in
            emit (Action.Odp_set (dst, v));
            FK.set key dst v;
            apply table_id hops rest
        | Action.Push_vlan tci ->
            emit (Action.Odp_push_vlan tci);
            FK.set key FK.Field.Vlan_tci (tci lor 0x1000);
            apply table_id hops rest
        | Action.Pop_vlan ->
            emit Action.Odp_pop_vlan;
            FK.set key FK.Field.Vlan_tci 0;
            apply table_id hops rest
        | Action.Tunnel_push ts ->
            emit (Action.Odp_tnl_push ts);
            apply table_id hops rest
        | Action.Tunnel_pop resume ->
            (* the packet changes shape: recirculate after decap *)
            FK.set mask FK.Field.Tun_id (FK.Field.full_mask FK.Field.Tun_id);
            emit (Action.Odp_tnl_pop resume)
        | Action.Ct { zone; commit; nat; table } -> begin
            match table with
            | Some resume -> emit (Action.Odp_ct { zone; commit; nat; resume_table = resume })
            | None -> begin
                emit (Action.Odp_ct { zone; commit; nat; resume_table = -1 });
                apply table_id hops rest
              end
          end
        | Action.Goto_table next ->
            if next > table_id then walk next (hops + 1) else emit Action.Odp_drop
        | Action.Meter m ->
            emit (Action.Odp_meter m);
            apply table_id hops rest
        | Action.Controller ->
            emit Action.Odp_userspace;
            apply table_id hops rest
      end
  in
  walk start 0;
  {
    odp_actions = List.rev !odp;
    megaflow_mask = mask;
    tables_visited = !visited;
  }

(* non-strict del-flows semantics: a rule is covered when, on every field
   the spec constrains, the rule constrains at least as much and agrees *)
let rule_covered_by (spec : Match_.t) (rule : Match_.t) =
  Array.for_all
    (fun f ->
      let sm = FK.get spec.Match_.mask f in
      sm = 0
      || (FK.get rule.Match_.mask f land sm = sm
         && FK.get rule.Match_.key f land sm = FK.get spec.Match_.key f land sm))
    FK.Field.all

(** [ovs-ofctl del-flows]: remove every rule covered by [spec] from
    [table] (or all tables). Returns how many were removed. *)
let del_flows ?table t (spec : Match_.t) =
  let removed = ref 0 in
  let del idx =
    removed :=
      !removed
      + Table.remove_where t.tables.(idx) (fun r ->
            rule_covered_by spec r.Table.match_)
  in
  (match table with
  | Some idx -> if idx >= 0 && idx < Array.length t.tables then del idx
  | None ->
      for idx = 0 to Array.length t.tables - 1 do
        del idx
      done);
  !removed

(** Render the installed rules in ovs-ofctl dump-flows style, with hit
    counters — the troubleshooting view operators live in (Sec 6: "the
    userspace datapath makes troubleshooting easier"). *)
let dump_flows ?table t : string list =
  let out = ref [] in
  let dump_table idx tbl =
    Table.iter tbl (fun r ->
        out :=
          Fmt.str "table=%d, priority=%d, n_packets=%d, %a actions=%a" idx
            r.Table.priority r.Table.hits Match_.pp r.Table.match_
            Fmt.(list ~sep:(any ",") Action.pp)
            r.Table.value
          :: !out)
  in
  (match table with
  | Some idx ->
      if idx >= 0 && idx < Array.length t.tables then dump_table idx t.tables.(idx)
  | None -> Array.iteri dump_table t.tables);
  List.rev !out
