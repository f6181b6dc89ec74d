(** iSet partitioning: split a set of megaflows into *independent sets* —
    groups whose members map to pairwise-disjoint integer ranges on one
    flow-key field — plus a remainder that stays classifier-only
    (NuevoMatchUp's partitioner, specialized to megaflow masks).

    A megaflow is range-encodable on field [f] when its mask for [f] is a
    non-empty contiguous prefix (exact matches included): a match on
    [v/m] then means the packet's field value lies in
    [[v, v lor lnot m]]. Because installed megaflows are disjoint, a
    full masked-key validation after the range probe makes membership
    exact; disjointness *within* an iSet is what lets one range query
    return at most one candidate.

    Partitioning is greedy: repeatedly pick the field offering the
    largest non-overlapping subset of the still-unassigned megaflows
    (classic earliest-end activity selection), carve it into one iSet,
    and stop when the next-best iSet would fall below [min_size] or
    [max_isets] is reached. Leftovers are the remainder — they are never
    dropped, only left to the tuple-space classifier. *)

module FK = Ovs_packet.Flow_key

(** Mask-aware predicate algebra over one integer field.

    A {!Masked.t} is the test [x land mask = value] — exactly what a
    megaflow match or a policy predicate constrains on one field. The
    module generalizes the bare [(lo, hi) option] that [prefix_range]
    used to return: tests intersect, complement into {!Masked.region}s
    (one positive test plus negated tests), and a set of tests can be
    {!Masked.refine}d into a disjoint partition of the field domain that
    covers it completely — each region carrying a concrete
    representative value. The policy equivalence checker builds its
    cross-field cube partition on top of this; [prefix_range] below is
    now a thin wrapper over {!Masked.to_range}. *)
module Masked = struct
  type t = { m_value : int; m_mask : int }

  let make ~value ~mask = { m_value = value land mask; m_mask = mask }
  let always = { m_value = 0; m_mask = 0 }
  let is_always t = t.m_mask = 0
  let mem v t = v land t.m_mask = t.m_value
  let equal a b = a.m_value = b.m_value && a.m_mask = b.m_mask

  (* two tests are compatible when they agree on every shared mask bit;
     incompatible tests have empty intersection *)
  let compatible a b = a.m_value land b.m_mask = b.m_value land a.m_mask

  let inter a b =
    if compatible a b then
      Some { m_value = a.m_value lor b.m_value; m_mask = a.m_mask lor b.m_mask }
    else None

  (* [implies a b]: every value passing [a] passes [b] *)
  let implies a b =
    b.m_mask land a.m_mask = b.m_mask && a.m_value land b.m_mask = b.m_value

  (** The interval a test covers on a [full]-masked domain, when its
      mask is a contiguous prefix ([always] covers the whole domain;
      non-prefix masks have no contiguous interval). *)
  let to_range ~full t =
    let m = t.m_mask land full in
    if m = 0 then Some (0, full)
    else
      let inv = full lxor m in
      if inv land (inv + 1) <> 0 then None
      else
        let v = t.m_value land m in
        Some (v, v lor inv)

  (** A region: the conjunction of one positive test and a set of
      negated tests, with a concrete representative value that lies in
      it. This is the closed form for complements: [not t] is not a
      masked test, but it is a region. *)
  type region = { r_pos : t; r_negs : t list; r_rep : int }

  let region_mem v r =
    mem v r.r_pos && List.for_all (fun n -> not (mem v n)) r.r_negs

  (* A value inside [pos] violating every [neg]: greedy per-clause bit
     choice (most-constrained clause first), with an exact brute-force
     fallback over the undetermined bits when greedy fails and the
     search space is small. Returns [None] when the region is empty --
     and, conservatively, when more than [2^16] fallback candidates
     would be needed (never hit by prefix or exact masks). *)
  let sample ~full pos (negs : t list) : int option =
    let pos = { m_value = pos.m_value land full; m_mask = pos.m_mask land full } in
    let negs = List.map (fun n -> { m_value = n.m_value land full; m_mask = n.m_mask land full }) negs in
    if List.exists (fun n -> implies pos n) negs then None
    else begin
      (* negs incompatible with pos are violated by construction *)
      let live = List.filter (fun n -> compatible pos n) negs in
      let free n = n.m_mask land lnot pos.m_mask land full in
      let popcount x =
        let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
        go x 0
      in
      let live =
        List.sort (fun a b -> compare (popcount (free a)) (popcount (free b))) live
      in
      let check v =
        mem v pos && List.for_all (fun n -> not (mem v n)) negs
      in
      (* greedy: pick one differing bit per clause *)
      let chosen_mask = ref 0 and chosen_val = ref 0 in
      let ok =
        List.for_all
          (fun n ->
            let fb = free n in
            if !chosen_mask land fb land (!chosen_val lxor n.m_value) <> 0 then true
            else begin
              let avail = fb land lnot !chosen_mask in
              if avail = 0 then false
              else begin
                let b = avail land (-avail) in
                chosen_mask := !chosen_mask lor b;
                if n.m_value land b = 0 then chosen_val := !chosen_val lor b;
                true
              end
            end)
          live
      in
      if ok then begin
        let v = pos.m_value lor (!chosen_val land !chosen_mask) in
        if check v then Some v else None
      end
      else begin
        (* exact fallback: enumerate the union of the clauses' free bits *)
        let bits = ref 0 in
        List.iter (fun n -> bits := !bits lor free n) live;
        let bit_list =
          let l = ref [] in
          let b = ref !bits in
          while !b <> 0 do
            let lo = !b land - !b in
            l := lo :: !l;
            b := !b land lnot lo
          done;
          !l
        in
        let k = List.length bit_list in
        if k > 16 then None
        else begin
          let found = ref None in
          let n = 1 lsl k in
          let i = ref 0 in
          while !found = None && !i < n do
            let v = ref pos.m_value in
            List.iteri (fun j b -> if !i land (1 lsl j) <> 0 then v := !v lor b) bit_list;
            if check !v then found := Some !v;
            incr i
          done;
          !found
        end
      end
    end

  let region_make ~full pos negs =
    match sample ~full pos negs with
    | None -> None
    | Some rep -> Some { r_pos = pos; r_negs = negs; r_rep = rep }

  (** [complement ~full t]: the region of values failing [t] (empty when
      [t] is [always]). *)
  let complement ~full t = region_make ~full always [ t ]

  (** Split the [full] domain into disjoint regions such that every atom
      in [atoms] is constant (all-true or all-false) on each region, and
      the regions cover the domain: each value lies in exactly one. *)
  let refine ~full (atoms : t list) : region list =
    let atoms =
      List.fold_left
        (fun acc a ->
          let a = { m_value = a.m_value land full; m_mask = a.m_mask land full } in
          if is_always a || List.exists (equal a) acc then acc else a :: acc)
        [] atoms
    in
    let start =
      match region_make ~full always [] with
      | Some r -> [ r ]
      | None -> []
    in
    List.fold_left
      (fun regions a ->
        List.concat_map
          (fun r ->
            let hi =
              match inter r.r_pos a with
              | None -> []
              | Some pos -> (
                  match region_make ~full pos r.r_negs with
                  | Some r' -> [ r' ]
                  | None -> [])
            in
            let lo =
              if implies r.r_pos a then []
              else
                match region_make ~full r.r_pos (a :: r.r_negs) with
                | Some r' -> [ r' ]
                | None -> []
            in
            hi @ lo)
          regions)
      start atoms
end

type iset = {
  is_field : FK.Field.t;
  is_members : int array;  (** caller-side entry indices, sorted by [is_lo] *)
  is_lo : int array;
  is_hi : int array;
}

type t = {
  isets : iset list;  (** largest first *)
  remainder : int list;  (** entry indices left to the classifier *)
  considered : int;
}

(** The range [(lo, hi)] the megaflow [mask]/[key] covers on field [f],
    when the mask is a non-empty contiguous prefix of the field. *)
let prefix_range ~(mask : FK.t) ~(key : FK.t) (f : FK.Field.t) :
    (int * int) option =
  let full = FK.Field.full_mask f in
  let m = FK.get mask f land full in
  (* an all-wildcard field anchors no range query (Masked.to_range would
     report the full domain, which is useless for an iSet layer) *)
  if m = 0 then None
  else Masked.to_range ~full (Masked.make ~value:(FK.get key f) ~mask:m)

(* fields worth anchoring a range query on, tried in this order when
   scores tie: port numbers and addresses spread; metadata rarely does *)
let default_fields =
  [|
    FK.Field.Tp_dst; FK.Field.Nw_dst; FK.Field.Nw_src; FK.Field.In_port;
    FK.Field.Tp_src; FK.Field.Tun_id; FK.Field.Dl_dst; FK.Field.Dl_src;
    FK.Field.Ct_mark; FK.Field.Tun_src; FK.Field.Tun_dst;
  |]

(* earliest-end-first activity selection over (idx, lo, hi), candidates
   sorted by (hi, lo): the maximum pairwise-disjoint subset *)
let select_layer (cands : (int * int * int) list) : (int * int * int) list =
  let sorted =
    List.sort
      (fun (_, l1, h1) (_, l2, h2) -> compare (h1, l1) (h2, l2))
      cands
  in
  let last_hi = ref min_int in
  List.filter
    (fun (_, lo, hi) ->
      if !last_hi = min_int || lo > !last_hi then begin
        last_hi := hi;
        true
      end
      else false)
    sorted

let partition ?(fields = default_fields) ?(max_isets = 6) ?(min_size = 2)
    ~(masks : FK.t array) ~(keys : FK.t array) () : t =
  let n = Array.length masks in
  if Array.length keys <> n then invalid_arg "Iset.partition: arity";
  let assigned = Array.make n false in
  let isets = ref [] in
  let carved = ref 0 in
  let stop = ref false in
  while (not !stop) && !carved < max_isets do
    (* best (field, disjoint layer) over the unassigned megaflows *)
    let best = ref None in
    Array.iter
      (fun f ->
        let cands = ref [] in
        for i = 0 to n - 1 do
          if not assigned.(i) then
            match prefix_range ~mask:masks.(i) ~key:keys.(i) f with
            | Some (lo, hi) -> cands := (i, lo, hi) :: !cands
            | None -> ()
        done;
        if List.length !cands >= min_size then begin
          let layer = select_layer !cands in
          let size = List.length layer in
          match !best with
          | Some (_, _, best_size) when best_size >= size -> ()
          | _ -> if size >= min_size then best := Some (f, layer, size)
        end)
      fields;
    match !best with
    | None -> stop := true
    | Some (f, layer, _) ->
        let by_lo =
          List.sort (fun (_, l1, _) (_, l2, _) -> compare l1 l2) layer
        in
        let members = Array.of_list (List.map (fun (i, _, _) -> i) by_lo) in
        let lo = Array.of_list (List.map (fun (_, l, _) -> l) by_lo) in
        let hi = Array.of_list (List.map (fun (_, _, h) -> h) by_lo) in
        Array.iter (fun i -> assigned.(i) <- true) members;
        isets := { is_field = f; is_members = members; is_lo = lo; is_hi = hi } :: !isets;
        incr carved
  done;
  let remainder = ref [] in
  for i = n - 1 downto 0 do
    if not assigned.(i) then remainder := i :: !remainder
  done;
  let by_size =
    List.sort
      (fun a b -> compare (Array.length b.is_members) (Array.length a.is_members))
      !isets
  in
  { isets = by_size; remainder = !remainder; considered = n }
