(** The AF_XDP invariant oracles, one definition for every engine: the
    schedule explorer checks them after each step of a virtual-time run,
    the domains engine on each poll (armed) and at stop.

    - {b ring sanity}: every ring is single-producer/single-consumer, so
      seen from any one observer its cursors only move forward, the
      consumer never passes the producer, and occupancy fits the ring;
    - {b frame conservation}: every umem frame has exactly one owner
      among the pool's free stack, its leak quarantine, and the rings
      that can hold its frames ("any PMD thread may need to return a
      frame to any pool" — so ownership, not locality, is the invariant).

    A check hands each violation, as text, to a [report] callback: the
    explorer's raises (first violation wins), the domains engine's
    records and carries on. Nothing here allocates unless it reports. *)

(** A ring under cursor watch: the cursors it showed at the last check.
    Each tracked ring must be checked from one domain only. *)
type tracked = {
  label : string;
  ring : Ring.t;
  mutable prod : int;
  mutable cons : int;
}

let track label ring =
  { label; ring; prod = Ring.prod_idx ring; cons = Ring.cons_idx ring }

let check_ring report tr =
  let r = tr.ring in
  let prod = Ring.prod_idx r and cons = Ring.cons_idx r in
  if prod < tr.prod then
    report
      (Printf.sprintf "%s producer rewound (%d -> %d)" tr.label tr.prod prod);
  if cons < tr.cons then
    report
      (Printf.sprintf "%s consumer rewound (%d -> %d)" tr.label tr.cons cons);
  if cons > prod then
    report
      (Printf.sprintf "%s consumer ahead of producer (%d > %d)" tr.label cons
         prod);
  if prod - cons > Ring.size r then
    report
      (Printf.sprintf "%s holds %d descriptors in a %d-slot ring" tr.label
         (prod - cons) (Ring.size r));
  tr.prod <- prod;
  tr.cons <- cons

(** The rings of a socket set in census order: fill and completion
    rings first — a umem-shared pair once, then each socket's private
    pair — and then each queue's rx and tx ring. *)
let xsk_rings (xsks : Xsk.t array) =
  let xs = Array.to_list xsks in
  let private_ (x : Xsk.t) = x.Xsk.fill != x.Xsk.umem.Umem.fill in
  let q (x : Xsk.t) what = Printf.sprintf "q%d %s ring" x.Xsk.queue_id what in
  (match List.find_opt (fun x -> not (private_ x)) xs with
  | Some x -> [ ("fill ring", x.Xsk.fill); ("completion ring", x.Xsk.comp) ]
  | None -> [])
  @ List.concat_map
      (fun x ->
        if private_ x then
          [ (q x "fill", x.Xsk.fill); (q x "completion", x.Xsk.comp) ]
        else [])
      xs
  @ List.concat_map (fun x -> [ (q x "rx", x.Xsk.rx); (q x "tx", x.Xsk.tx) ]) xs

(** One pool's frame census: its frames and the rings that can own them,
    with an epoch-stamped ownership array so a check never clears it. *)
type census = {
  c_label : string;
  c_pool : Umempool.t;
  c_rings : (string * Ring.t) array;
  c_stamp : int array;  (** per frame: the epoch of the check that saw it *)
  mutable c_epoch : int;
  mutable c_count : int;
}

(** A census of [pool]'s frames — as many as its free stack holds when
    full — over [rings], labelled [label] in its reports. *)
let census ~label (pool : Umempool.t) rings =
  { c_label = label; c_pool = pool; c_rings = Array.of_list rings;
    c_stamp = Array.make (Array.length pool.Umempool.free) 0; c_epoch = 0;
    c_count = 0 }

let visit report c where f =
  if f < 0 || f >= Array.length c.c_stamp then
    report (Printf.sprintf "%s: frame %d out of range (%s)" c.c_label f where)
  else if c.c_stamp.(f) = c.c_epoch then
    report
      (Printf.sprintf "%s: frame %d owned twice (second owner: %s)" c.c_label
         f where)
  else begin
    c.c_stamp.(f) <- c.c_epoch;
    c.c_count <- c.c_count + 1
  end

let rec visit_list report c where = function
  | [] -> ()
  | f :: rest ->
      visit report c where f;
      visit_list report c where rest

(** Every frame owned exactly once: the pool's free stack, then its leak
    quarantine, then the rings in the census's order. Exact only while
    no other domain moves frames. *)
let check_frames report c =
  c.c_epoch <- c.c_epoch + 1;
  c.c_count <- 0;
  let pool = c.c_pool in
  for i = 0 to pool.Umempool.top - 1 do
    visit report c "pool free stack" pool.Umempool.free.(i)
  done;
  visit_list report c "leak quarantine" pool.Umempool.leaked;
  for j = 0 to Array.length c.c_rings - 1 do
    let where, r = c.c_rings.(j) in
    for i = 0 to Ring.available r - 1 do
      visit report c where (Ring.peek r i).Ring.addr
    done
  done;
  let n_frames = Array.length c.c_stamp in
  if c.c_count <> n_frames then begin
    (* name a missing frame for the report *)
    let missing = ref (-1) in
    Array.iteri
      (fun f st -> if !missing < 0 && st <> c.c_epoch then missing := f)
      c.c_stamp;
    report
      (Printf.sprintf "%s: %d of %d frames accounted (frame %d unowned)"
         c.c_label c.c_count n_frames !missing)
  end
