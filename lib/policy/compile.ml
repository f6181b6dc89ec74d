(** Lowering policies onto the multi-table ofproto pipeline.

    The compilation scheme (DESIGN §8):

    1. {b Normalize} the policy into a union of deterministic {e paths}:
       [Seq] distributes over [Union], and [Star (k, p)] unrolls into
       [id + p + ... + p^k]. A path is a sequence of filters and mods.

    2. {b Weakest-precondition} each path into [(cond, mods)]: walking
       the path left to right with a substitution environment turns
       every test behind a mod into a test on the {e original} packet,
       leaving one input predicate and one final field assignment.
       Statically-false paths are dropped, duplicates merged.

    3. {b Lay out tables}: table 0 saves every field the policy can
       modify into a register ([Move f -> regI]) and resubmits to table
       1; table [i] implements path [i] as a priority-ordered decision
       list over masked matches (Shannon expansion of [cond] on its
       atoms — the mask-aware analogue of interval carving). An accept
       rule applies the path's mods, emits via [in_port] output,
       restores the saved fields from the registers ([Move regI -> f])
       so the next path matches the original packet again, and resubmits
       to table [i+1]; a deny rule just resubmits. The last path table
       ends the walk instead of resubmitting.

    Rules are installed through the real controller path: encoded as
    OpenFlow FLOW_MOD wire messages and fed to an {!Ovs_ofproto.Ofconn}.

    [?mutation] seeds a deliberate compiler bug (dropped resubmit, wrong
    priority order, ...) so the equivalence checker's mutation leg can
    prove it catches real miscompilations. *)

module FK = Ovs_packet.Flow_key
module Masked = Ovs_nmu.Iset.Masked
module Match_ = Ovs_ofproto.Match_
module Action = Ovs_ofproto.Action
module Pipeline = Ovs_ofproto.Pipeline
module Ofconn = Ovs_ofproto.Ofconn
module Ofp_codec = Ovs_ofproto.Ofp_codec

exception Compile_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Compile_error m)) fmt

type mutation =
  | Drop_goto  (** deny rules in table 1 drop instead of resubmitting *)
  | Wrong_priority  (** table 1's decision-list priorities reversed *)
  | Drop_restore  (** the register-restore moves are omitted *)
  | Drop_union_arm  (** the last path is silently dropped *)
  | Wrong_mod_value  (** the first set_field writes value+1 *)
  | Drop_filter  (** table 1's first deny rule accepts instead *)
  | Star_off_by_one  (** stars unroll to k-1 instead of k *)

let mutation_name = function
  | Drop_goto -> "drop_goto"
  | Wrong_priority -> "wrong_priority"
  | Drop_restore -> "drop_restore"
  | Drop_union_arm -> "drop_union_arm"
  | Wrong_mod_value -> "wrong_mod_value"
  | Drop_filter -> "drop_filter"
  | Star_off_by_one -> "star_off_by_one"

type rule = {
  c_table : int;
  c_priority : int;
  c_match : Match_.t;
  c_actions : Action.t list;
}

type compiled = {
  rules : rule list;
  n_tables : int;  (** save table + one per path *)
  n_paths : int;
  saved : FK.Field.t list;  (** [saved]'s i-th field lives in reg i *)
}

(* -- validation -- *)

let reserved f =
  match f with
  | FK.Field.Recirc_id | FK.Field.Reg0 | FK.Field.Reg1 | FK.Field.Reg2
  | FK.Field.Reg3 | FK.Field.Reg4 | FK.Field.Reg5 | FK.Field.Reg6
  | FK.Field.Reg7 -> true
  | _ -> false

let validate p =
  List.iter
    (fun (f, _, _) ->
      if reserved f then fail "policy tests reserved field %s" (FK.Field.name f))
    (Policy.atoms p);
  List.iter
    (fun (f, _) ->
      if reserved f then fail "policy modifies reserved field %s" (FK.Field.name f))
    (Policy.mods p)

(* -- 1: normalization into paths -- *)

type patom = Pfilter of Policy.pred | Pmod of FK.Field.t * int

let paths ~star_shrink (p : Policy.t) : patom list list =
  let rec go (p : Policy.t) =
    match p with
    | Policy.Filter pr -> [ [ Pfilter pr ] ]
    | Policy.Mod (f, v) -> [ [ Pmod (f, v) ] ]
    | Policy.Union (a, b) -> go a @ go b
    | Policy.Seq (a, b) ->
        let pa = go a and pb = go b in
        List.concat_map (fun l -> List.map (fun r -> l @ r) pb) pa
    | Policy.Star (k, a) ->
        let k = if star_shrink then max 0 (k - 1) else k in
        let pa = go a in
        let acc = ref [ [] ] and pow = ref [ [] ] in
        for _ = 1 to k do
          pow :=
            List.concat_map (fun l -> List.map (fun r -> l @ r) pa) !pow;
          acc := !acc @ !pow
        done;
        !acc
  in
  go p

(* -- 2: weakest precondition -- *)

(* substitute already-assigned fields into a predicate and
   constant-fold; the result only tests the original packet *)
let rec subst (env : (FK.Field.t * int) list) (pr : Policy.pred) : Policy.pred =
  match pr with
  | Policy.True -> Policy.True
  | Policy.False -> Policy.False
  | Policy.Test (f, v, m) -> (
      match List.assoc_opt f env with
      | Some c -> if c land m = v then Policy.True else Policy.False
      | None -> pr)
  | Policy.And (a, b) -> (
      match (subst env a, subst env b) with
      | Policy.False, _ | _, Policy.False -> Policy.False
      | Policy.True, x | x, Policy.True -> x
      | a, b -> Policy.And (a, b))
  | Policy.Or (a, b) -> (
      match (subst env a, subst env b) with
      | Policy.True, _ | _, Policy.True -> Policy.True
      | Policy.False, x | x, Policy.False -> x
      | a, b -> Policy.Or (a, b))
  | Policy.Not a -> (
      match subst env a with
      | Policy.True -> Policy.False
      | Policy.False -> Policy.True
      | a -> Policy.Not a)

(* a path as (precondition over the input, final assignment) *)
let wp (path : patom list) : Policy.pred * (FK.Field.t * int) list =
  let cond = ref Policy.True and env = ref [] in
  List.iter
    (function
      | Pmod (f, v) -> env := (f, v) :: List.remove_assoc f !env
      | Pfilter pr ->
          let pr = subst !env pr in
          cond :=
            (match (!cond, pr) with
            | Policy.False, _ | _, Policy.False -> Policy.False
            | Policy.True, x | x, Policy.True -> x
            | a, b -> Policy.And (a, b)))
    path;
  (!cond, List.sort compare !env)

(* -- 3: predicate -> priority-ordered decision list -- *)

(* three-valued status of a predicate under a partial per-field
   assignment (positive test + negated tests per field) *)
type fstate = { fs_pos : Masked.t; fs_negs : Masked.t list }

let fs_empty = { fs_pos = Masked.always; fs_negs = [] }

let fstate asg f =
  match List.assoc_opt f asg with Some s -> s | None -> fs_empty

let atom_status asg f (a : Masked.t) : bool option =
  let s = fstate asg f in
  if Masked.implies s.fs_pos a then Some true
  else
    match Masked.inter s.fs_pos a with
    | None -> Some false
    | Some pa ->
        if List.exists (fun n -> Masked.implies pa n) s.fs_negs then Some false
        else None

let rec pred_status asg (pr : Policy.pred) : bool option =
  match pr with
  | Policy.True -> Some true
  | Policy.False -> Some false
  | Policy.Test (f, v, m) -> atom_status asg f (Masked.make ~value:v ~mask:m)
  | Policy.And (a, b) -> (
      match (pred_status asg a, pred_status asg b) with
      | Some false, _ | _, Some false -> Some false
      | Some true, x | x, Some true -> x
      | None, _ -> None)
  | Policy.Or (a, b) -> (
      match (pred_status asg a, pred_status asg b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, x | x, Some false -> x
      | None, _ -> None)
  | Policy.Not a -> Option.map not (pred_status asg a)

(* leftmost atom still undetermined under the assignment *)
let rec pick_atom asg (pr : Policy.pred) : (FK.Field.t * Masked.t) option =
  match pr with
  | Policy.True | Policy.False -> None
  | Policy.Test (f, v, m) ->
      let a = Masked.make ~value:v ~mask:m in
      if atom_status asg f a = None then Some (f, a) else None
  | Policy.And (a, b) | Policy.Or (a, b) -> (
      match pick_atom asg a with Some r -> Some r | None -> pick_atom asg b)
  | Policy.Not a -> pick_atom asg a

let asg_satisfiable asg =
  List.for_all
    (fun (f, s) ->
      Masked.sample ~full:(FK.Field.full_mask f) s.fs_pos s.fs_negs <> None)
    asg

(** Shannon-expand [pr] into a total decision list: conjunctions of
    positive masked atoms paired with accept/deny, highest priority
    first. A packet takes the first conjunction it matches; totality of
    every suffix is what makes the priority encoding faithful. *)
let decision_list (pr : Policy.pred) : ((FK.Field.t * Masked.t) list * bool) list
    =
  let rec go conj asg pr depth =
    if depth > 24 then fail "predicate too wide for decision-list expansion";
    if not (asg_satisfiable asg) then []
    else
      match pred_status asg pr with
      | Some b -> [ (List.rev conj, b) ]
      | None -> (
          match pick_atom asg pr with
          | None -> fail "undetermined predicate with no free atom"
          | Some (f, a) ->
              let s = fstate asg f in
              let hi =
                match Masked.inter s.fs_pos a with
                | None -> []
                | Some pos ->
                    go
                      ((f, a) :: conj)
                      ((f, { s with fs_pos = pos })
                      :: List.remove_assoc f asg)
                      pr (depth + 1)
              in
              let lo =
                go conj
                  ((f, { s with fs_negs = a :: s.fs_negs })
                  :: List.remove_assoc f asg)
                  pr (depth + 1)
              in
              hi @ lo)
  in
  go [] [] pr 0

let match_of_conj conj =
  let m = Match_.catchall () in
  (* atoms on the same field are compatible along one branch; intersect
     them into a single masked match *)
  let per_field = Hashtbl.create 4 in
  List.iter
    (fun (f, a) ->
      let cur =
        match Hashtbl.find_opt per_field f with
        | Some c -> c
        | None -> Masked.always
      in
      match Masked.inter cur a with
      | Some c -> Hashtbl.replace per_field f c
      | None -> fail "contradictory conjunction")
    conj;
  Hashtbl.iter
    (fun f (a : Masked.t) ->
      ignore (Match_.with_masked m f a.Masked.m_value a.Masked.m_mask))
    per_field;
  m

(* -- putting it together -- *)

let regs =
  [| FK.Field.Reg0; FK.Field.Reg1; FK.Field.Reg2; FK.Field.Reg3;
     FK.Field.Reg4; FK.Field.Reg5; FK.Field.Reg6; FK.Field.Reg7 |]

let compile ?mutation (p : Policy.t) : compiled =
  validate p;
  let mut m = mutation = Some m in
  let all_paths = paths ~star_shrink:(mut Star_off_by_one) p in
  let wps = List.map wp all_paths in
  let wps = List.filter (fun (c, _) -> c <> Policy.False) wps in
  (* merge duplicate (cond, mods) paths: star unrolling converges *)
  let wps =
    List.fold_left
      (fun acc cm -> if List.mem cm acc then acc else acc @ [ cm ])
      [] wps
  in
  let wps =
    if mut Drop_union_arm && wps <> [] then
      List.filteri (fun i _ -> i < List.length wps - 1) wps
    else wps
  in
  let saved = Policy.modified_fields p in
  if List.length saved > Array.length regs then
    fail "policy modifies %d fields; only %d registers" (List.length saved)
      (Array.length regs);
  let n_paths = List.length wps in
  let saves = List.mapi (fun i f -> Action.Move (f, regs.(i))) saved in
  let restores = List.mapi (fun i f -> Action.Move (regs.(i), f)) saved in
  let restores = if mut Drop_restore then [] else restores in
  let rules = ref [] in
  let add r = rules := r :: !rules in
  add
    {
      c_table = 0;
      c_priority = 100;
      c_match = Match_.catchall ();
      c_actions =
        (if n_paths = 0 then [ Action.Drop ]
         else saves @ [ Action.Goto_table 1 ]);
    };
  List.iteri
    (fun i (cond, mods) ->
      let table = i + 1 in
      let last = i = n_paths - 1 in
      let dl = decision_list cond in
      let n = List.length dl in
      let goto = if last then [] else [ Action.Goto_table (table + 1) ] in
      let accept_actions =
        List.map (fun (f, v) -> Action.Set_field (f, v)) mods
        @ [ Action.In_port_output ]
        @ (if last then [] else restores)
        @ goto
      in
      let accept_actions =
        if mut Wrong_mod_value && table = 1 then
          match accept_actions with
          | Action.Set_field (f, v) :: rest ->
              Action.Set_field (f, (v + 1) land FK.Field.full_mask f) :: rest
          | rest -> rest
        else accept_actions
      in
      let deny_actions =
        if last then [ Action.Drop ]
        else if mut Drop_goto && table = 1 then [ Action.Drop ]
        else [ Action.Goto_table (table + 1) ]
      in
      let first_deny = ref true in
      List.iteri
        (fun j (conj, accept) ->
          let priority =
            if mut Wrong_priority && table = 1 then 100 + j else 100 + (n - j)
          in
          let accept =
            if (not accept) && mut Drop_filter && table = 1 && !first_deny
            then begin
              first_deny := false;
              true
            end
            else accept
          in
          add
            {
              c_table = table;
              c_priority = priority;
              c_match = match_of_conj conj;
              c_actions = (if accept then accept_actions else deny_actions);
            })
        dl)
    wps;
  {
    rules = List.rev !rules;
    n_tables = n_paths + 1;
    n_paths;
    saved;
  }

(* -- installation through the controller path -- *)

(** Install the compiled rules by encoding each as an OpenFlow FLOW_MOD
    and feeding the wire bytes to the switch connection — the same path
    an NSX controller uses. *)
let install (c : compiled) (conn : Ofconn.t) : unit =
  let hello = Ofp_codec.encode ~xid:1 Ofp_codec.Hello in
  ignore (Ofconn.feed conn hello);
  List.iteri
    (fun i r ->
      let msg =
        Ofp_codec.Flow_mod
          {
            command = `Add;
            table_id = r.c_table;
            priority = r.c_priority;
            cookie = 0;
            match_ = r.c_match;
            actions = r.c_actions;
          }
      in
      ignore (Ofconn.feed conn (Ofp_codec.encode ~xid:(i + 2) msg)))
    c.rules

(** Compile and install into a fresh pipeline (sized to the compiled
    table count) via the controller path; returns both. *)
let pipeline_of ?mutation (p : Policy.t) : compiled * Pipeline.t =
  let c = compile ?mutation p in
  let pipeline = Pipeline.create ~n_tables:(max 2 c.n_tables) () in
  let conn = Ofconn.create ~pipeline () in
  install c conn;
  (c, pipeline)
