(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, burst id); names are small ints
   indexing [names]. Spans of the current burst live in flat int arrays
   and are folded into per-name totals when the burst closes, so the
   recorder's memory does not grow with run length; the spans of the
   first [keep] bursts are also kept verbatim and written out when the
   run ends. Times are whatever clock the caller passes (ns). *)

type t = {
  names : string array;
  mutable sname : int array;
  mutable sstart : int array;
  mutable sstop : int array;
  mutable sparent : int array;
  mutable n : int;
  mutable open_ : int;  (** innermost open span of this burst, or -1 *)
  mutable burst : int;
  self_ns : float array;  (** per name: summed self time *)
  count : int array;  (** per name: spans closed *)
  keep : int;
  kept : Buffer.t;
}

let create ?(keep = 0) names =
  let cap = 1024 and k = Array.length names in
  {
    names;
    sname = Array.make cap 0;
    sstart = Array.make cap 0;
    sstop = Array.make cap 0;
    sparent = Array.make cap (-1);
    n = 0;
    open_ = -1;
    burst = 0;
    self_ns = Array.make k 0.;
    count = Array.make k 0;
    keep;
    kept = Buffer.create 4096;
  }

let grow t =
  let cap = 2 * Array.length t.sname in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.sname <- g t.sname 0;
  t.sstart <- g t.sstart 0;
  t.sstop <- g t.sstop 0;
  t.sparent <- g t.sparent (-1)

let enter t name now =
  if t.n = Array.length t.sname then grow t;
  let i = t.n in
  t.sname.(i) <- name;
  t.sstart.(i) <- now;
  t.sstop.(i) <- now;
  t.sparent.(i) <- t.open_;
  t.open_ <- i;
  t.n <- i + 1

let leave t now =
  let i = t.open_ in
  if i < 0 then invalid_arg "Spans.leave: no open span";
  t.sstop.(i) <- now;
  t.open_ <- t.sparent.(i)

(* Self time of every span of the burst: its duration minus the union of
   its children's intervals, each clipped to the parent. Children are
   recorded in start order, so one pass with a per-parent high-water mark
   merges overlapping children. *)
let self_times t =
  let n = t.n in
  let covered = Array.make n 0 and mark = Array.make n min_int in
  for j = 0 to n - 1 do
    let p = t.sparent.(j) in
    if p >= 0 then begin
      let lo = Int.max t.sstart.(j) (Int.max t.sstart.(p) mark.(p))
      and hi = Int.min t.sstop.(j) t.sstop.(p) in
      if hi > lo then covered.(p) <- covered.(p) + (hi - lo);
      mark.(p) <- Int.max mark.(p) (Int.min t.sstop.(j) t.sstop.(p))
    end
  done;
  Array.init n (fun i -> t.sstop.(i) - t.sstart.(i) - covered.(i))

(* Close the burst: fold its spans into the per-name totals. *)
let end_burst t =
  if t.open_ >= 0 then invalid_arg "Spans.end_burst: span still open";
  let self = self_times t in
  for i = 0 to t.n - 1 do
    let k = t.sname.(i) in
    t.self_ns.(k) <- t.self_ns.(k) +. float_of_int self.(i);
    t.count.(k) <- t.count.(k) + 1;
    if t.burst < t.keep then
      Printf.bprintf t.kept "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" t.burst i
        t.names.(k) t.sstart.(i) t.sstop.(i) t.sparent.(i) self.(i)
  done;
  t.n <- 0;
  t.burst <- t.burst + 1

(* Forget everything recorded so far (the warm-up's spans). *)
let reset t =
  t.n <- 0;
  t.open_ <- -1;
  t.burst <- 0;
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0.;
  Array.fill t.count 0 (Array.length t.count) 0;
  Buffer.clear t.kept

let self_ns t k = t.self_ns.(k)
let count t k = t.count.(k)

(* Mean self time per span of [k], 0 when the layer never ran. *)
let mean_self t k = if t.count.(k) = 0 then 0. else t.self_ns.(k) /. float_of_int t.count.(k)

let write t path =
  let oc = open_out path in
  output_string oc "burst\tspan\tname\tstart_ns\tend_ns\tparent\tself_ns\n";
  Buffer.output_buffer oc t.kept;
  close_out oc
