(** The computational cache: a learned-classifier tier sitting between the
    microflow caches and the tuple-space search (NuevoMatchUp, NSDI 2022).

    Training snapshots the installed megaflows, partitions the
    range-encodable ones into iSets ({!Iset}), and fits one RQ-RMI model
    per iSet ({!Rqrmi}). Lookup probes the iSets in descending hit order
    (resorted with decay every 1024 lookups, the same discipline as the
    dpcls subtable ranking): evaluate the model on the packet's field
    value, bounded-binary-search the candidate window, and validate the
    candidate with a full masked-key comparison. A validated candidate is
    *the* match — installed megaflows are disjoint, so at most one can
    match any packet — which is the exactness argument: the model can
    only point at a candidate, never decide a match, and every decision
    this tier returns would also have been dpcls's.

    The cache indexes a snapshot: megaflows installed after training are
    simply not indexed (they miss here and hit dpcls — correct, just
    uncovered), while any removal (revalidation, flush) must
    {!invalidate} the cache, because returning a deleted megaflow would
    be a wrong decision. The datapath core enforces that rule. *)

module FK = Ovs_packet.Flow_key
module Dpcls = Ovs_flow.Dpcls

type 'a member = { m_mask : FK.t; m_entry : 'a Dpcls.entry }

type 'a iset_rt = {
  ir_field : FK.Field.t;
  ir_model : Rqrmi.t;
  ir_members : 'a member array;  (** aligned with the model's range indices *)
  mutable ir_hits : int;
}

type train_stats = {
  ts_megaflows : int;  (** megaflows snapshotted from the classifier *)
  ts_indexed : int;  (** covered by some iSet *)
  ts_remainder : int;  (** left to dpcls *)
  ts_isets : int;
  ts_max_err : int;  (** worst per-submodel secondary-search bound *)
}

type 'a t = {
  mutable isets : 'a iset_rt list;  (** probed in this order *)
  mutable trained : bool;
  mutable generation : int;  (** bumped by every (re)train *)
  scratch : Rqrmi.stats;  (** last lookup's model/search work *)
  mutable last_validations : int;  (** last lookup's masked comparisons *)
  mutable resort_counter : int;
  mutable lookups : int;
  mutable hits : int;
  mutable invalidations : int;
      (** times a megaflow removal forced the index to be dropped — the
          retrain pressure rule churn puts on this tier *)
  mutable last_train : train_stats option;
}

let create () =
  {
    isets = [];
    trained = false;
    generation = 0;
    scratch = Rqrmi.mk_stats ();
    last_validations = 0;
    resort_counter = 0;
    lookups = 0;
    hits = 0;
    invalidations = 0;
    last_train = None;
  }

let trained t = t.trained
let generation t = t.generation
let hits t = t.hits
let last_train t = t.last_train

(** The model-evaluation / search-step / validation work of the most
    recent {!lookup}, for per-lookup cost charging. *)
let last_work t = (t.scratch.Rqrmi.models, t.scratch.Rqrmi.steps, t.last_validations)

(** Forget the trained models. Required before any megaflow is removed
    from the backing classifier; a stale index could otherwise return a
    deleted flow. *)
let invalidate t =
  if t.trained then t.invalidations <- t.invalidations + 1;
  t.isets <- [];
  t.trained <- false

(** (Re)train from the current contents of [dpcls]. Returns the training
    stats; the caller charges virtual time for them. *)
let train ?max_isets ?min_size t (dpcls : 'a Dpcls.t) : train_stats =
  let snapshot = ref [] in
  Dpcls.iter_entries dpcls (fun ~mask e -> snapshot := (mask, e) :: !snapshot);
  (* The partition depends on the order of its input, so put the
     snapshot in a canonical order, by (mask, key): the trained index is
     then independent of how the classifier lays out its entries. *)
  let by_mask_key (m1, e1) (m2, e2) =
    match compare (m1 : FK.t) m2 with
    | 0 -> compare (e1.Dpcls.key : FK.t) e2.Dpcls.key
    | c -> c
  in
  let snapshot = Array.of_list (List.sort by_mask_key !snapshot) in
  let n = Array.length snapshot in
  let masks = Array.map fst snapshot in
  let keys = Array.map (fun (_, e) -> e.Dpcls.key) snapshot in
  let ents = Array.map snd snapshot in
  let part = Iset.partition ?max_isets ?min_size ~masks ~keys () in
  let isets =
    List.map
      (fun (is : Iset.iset) ->
        let ranges =
          Array.init (Array.length is.Iset.is_lo) (fun i ->
              (is.Iset.is_lo.(i), is.Iset.is_hi.(i)))
        in
        let model = Rqrmi.train ~ranges () in
        let members =
          Array.map
            (fun i -> { m_mask = masks.(i); m_entry = ents.(i) })
            is.Iset.is_members
        in
        { ir_field = is.Iset.is_field; ir_model = model; ir_members = members; ir_hits = 0 })
      part.Iset.isets
  in
  let indexed =
    List.fold_left (fun acc is -> acc + Array.length is.ir_members) 0 isets
  in
  let stats =
    {
      ts_megaflows = n;
      ts_indexed = indexed;
      ts_remainder = n - indexed;
      ts_isets = List.length isets;
      ts_max_err =
        List.fold_left (fun acc is -> Int.max acc (Rqrmi.max_err is.ir_model)) 0 isets;
    }
  in
  t.isets <- isets;
  t.trained <- true;
  t.generation <- t.generation + 1;
  t.resort_counter <- 0;
  t.last_train <- Some stats;
  stats

(* one iSet probe: model, bounded search, masked validation *)
let probe_iset (is : 'a iset_rt) (key : FK.t) (s : Rqrmi.stats)
    (validations : int ref) : 'a member option =
  let x = FK.get key is.ir_field in
  match Rqrmi.lookup is.ir_model x s with
  | None -> None
  | Some i ->
      let m = is.ir_members.(i) in
      incr validations;
      (* the entry's key is pre-masked, so this compares key&mask both sides *)
      if FK.equal_masked key m.m_entry.Dpcls.key m.m_mask then Some m else None

(** Look [key] up. A [Some (entry, mask)] is exact — the same megaflow
    dpcls would have returned — and credits entry and iSet hit counts.
    Work performed (hit or miss) is readable via {!last_work}. *)
let lookup t (key : FK.t) : ('a Dpcls.entry * FK.t) option =
  t.lookups <- t.lookups + 1;
  t.scratch.Rqrmi.models <- 0;
  t.scratch.Rqrmi.steps <- 0;
  let validations = ref 0 in
  t.resort_counter <- t.resort_counter + 1;
  if t.resort_counter >= 1024 then begin
    t.resort_counter <- 0;
    t.isets <- List.sort (fun a b -> compare b.ir_hits a.ir_hits) t.isets;
    (* decay, so a workload shift can reorder (same fix as dpcls) *)
    List.iter (fun is -> is.ir_hits <- is.ir_hits / 2) t.isets
  end;
  let rec go = function
    | [] ->
        t.last_validations <- !validations;
        None
    | is :: rest -> begin
        match probe_iset is key t.scratch validations with
        | Some m ->
            is.ir_hits <- is.ir_hits + 1;
            t.hits <- t.hits + 1;
            m.m_entry.Dpcls.hits <- m.m_entry.Dpcls.hits + 1;
            t.last_validations <- !validations;
            Some (m.m_entry, m.m_mask)
        | None -> go rest
      end
  in
  go t.isets

(** {!lookup} without mutating any statistic or hit count — for
    cross-checking the tier against dpcls on live state. *)
let peek t (key : FK.t) : ('a Dpcls.entry * FK.t) option =
  let s = Rqrmi.mk_stats () in
  let validations = ref 0 in
  let rec go = function
    | [] -> None
    | is :: rest -> begin
        match probe_iset is key s validations with
        | Some m -> Some (m.m_entry, m.m_mask)
        | None -> go rest
      end
  in
  go t.isets

let pp_train_stats ppf s =
  Fmt.pf ppf
    "%d megaflows: %d indexed in %d iSet%s (max search bound %d), %d to dpcls"
    s.ts_megaflows s.ts_indexed s.ts_isets
    (if s.ts_isets = 1 then "" else "s")
    s.ts_max_err s.ts_remainder

(** One-line stats for dpif/cache-hierarchy-show and the bench. *)
let render t =
  match t.last_train with
  | None -> "ccache: untrained"
  | Some s ->
      Fmt.str "ccache: gen %d, %a; %d lookups, %d hits, %d invalidations"
        t.generation pp_train_stats s t.lookups t.hits t.invalidations
