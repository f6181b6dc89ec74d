(* The closed-loop measurement harness shared by the workloads: burst
   timing, fixed-size chunks, host-speed correction, allocation
   counting and repeated set-up. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let burst = 32

(* --- host speed ---

   On a shared host the same code runs up to twice as slow depending on
   what the neighbours do, in episodes that last from seconds to many
   minutes; a whole run often sits in one. Steal time does not move and
   a compute-bound loop keeps its speed; memory-heavy code slows.
   README.md has the measurements.

   So every timed interval is paired with a fixed stand-in for datapath
   work, run off the clock right after it: copy a 64-byte frame, read it
   into a 16-word key, probe a 1,024-entry Hashtbl. It is this
   directory's own code and never changes with the program under test.
   Intervals are reported in reference-host time,

     reported = measured * (host_ref_ns / kernel_ns) ** host_alpha

   where [host_ref_ns] is the kernel's ns per step on a quiet host (the
   fast episode of a 2-vCPU Firecracker guest), so there reported =
   measured. [host_alpha] is fitted on a minute of each workload spanning
   both episodes: with it, the medians of six-second windows of the
   corrected chunk rates spread by 2-4% against 17-36% uncorrected.
   A change to the program moves the reported figures exactly as it
   moves the measured ones. *)

let host_ref_ns = 175.
let host_alpha = 0.75
let host_steps = 3_000
let host_frames = Array.init 1024 (fun i -> Bytes.init 64 (fun j -> Char.chr (((i * 7) + (j * 13)) land 255)))
let host_key f = Array.init 16 (fun j -> Int32.to_int (Bytes.get_int32_le f (j * 4)))

let host_table =
  let t = Hashtbl.create 2048 in
  Array.iteri (fun i f -> Hashtbl.replace t (host_key f) i) host_frames;
  t

(* ns per kernel step, from an empty minor heap so that no collection
   runs inside the kernel *)
let host_ns () =
  Gc.minor ();
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to host_steps do
    let f = Bytes.copy host_frames.((i * 40503) land 1023) in
    match Hashtbl.find_opt host_table (host_key f) with
    | Some v -> acc := !acc + v
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now () - t0) /. float_of_int host_steps

(* The factor that turns the interval just measured into reference-host
   time. *)
let host_factor () =
  Perfbench.Stats.reference_factor ~ref_ns:host_ref_ns ~alpha:host_alpha (host_ns ())

(* One measured phase. Every burst is timed on its own; a chunk is
   [chunk_pkts] offered packets (a multiple of the burst) and its rate is
   delivered packets over the chunk's summed burst time, so generator
   work between bursts is never on the clock. Each chunk closes with a
   host factor, which scales the chunk's time and its bursts in place;
   [on_chunk] passes it to a workload that times more inside the chunk. *)
type phase = {
  chunk_pkts : int;
  mutable bursts : int;
  mutable burst_ns : int array;
  mutable chunk_ns : int;
  mutable chunk_offered : int;
  mutable chunk_delivered : int;
  mutable chunk_first : int;  (** first burst of the open chunk *)
  mutable chunk_rates : float list;  (** reference-host Mpps, newest first *)
  mutable raw_rates : float list;  (** measured Mpps, newest first *)
  mutable factors : float list;
  mutable on_chunk : float -> unit;
  mutable words : float;  (** minor words allocated inside timed bursts *)
  mutable offered : int;
  mutable delivered : int;
}

let phase ~chunk_pkts =
  {
    chunk_pkts;
    bursts = 0;
    burst_ns = Array.make 65536 0;
    chunk_ns = 0;
    chunk_offered = 0;
    chunk_delivered = 0;
    chunk_first = 0;
    chunk_rates = [];
    raw_rates = [];
    factors = [];
    on_chunk = ignore;
    words = 0.;
    offered = 0;
    delivered = 0;
  }

let close_chunk ph =
  let f = host_factor () in
  let raw = float_of_int ph.chunk_delivered *. 1e3 /. float_of_int (Int.max 1 ph.chunk_ns) in
  ph.raw_rates <- raw :: ph.raw_rates;
  ph.chunk_rates <- (raw /. f) :: ph.chunk_rates;
  ph.factors <- f :: ph.factors;
  for i = ph.chunk_first to ph.bursts - 1 do
    ph.burst_ns.(i) <- Float.to_int (Float.round (float_of_int ph.burst_ns.(i) *. f))
  done;
  ph.on_chunk f;
  ph.chunk_first <- ph.bursts;
  ph.chunk_ns <- 0;
  ph.chunk_offered <- 0;
  ph.chunk_delivered <- 0

let record ph ~ns ~offered ~delivered ~words =
  if ph.bursts = Array.length ph.burst_ns then begin
    let a = Array.make (2 * ph.bursts) 0 in
    Array.blit ph.burst_ns 0 a 0 ph.bursts;
    ph.burst_ns <- a
  end;
  ph.burst_ns.(ph.bursts) <- ns;
  ph.bursts <- ph.bursts + 1;
  ph.words <- ph.words +. words;
  ph.offered <- ph.offered + offered;
  ph.delivered <- ph.delivered + delivered;
  ph.chunk_ns <- ph.chunk_ns + ns;
  ph.chunk_offered <- ph.chunk_offered + offered;
  ph.chunk_delivered <- ph.chunk_delivered + delivered;
  if ph.chunk_offered >= ph.chunk_pkts then close_chunk ph

(* Bursts after the last full chunk are left out of the statistics, so
   every run's figures cover whole chunks. *)
let finish ph = ph.bursts <- ph.chunk_first

(* Time one untraced burst: [fire] offers the prepared packets and
   returns when every one has been handled. Returns (ns, minor words). *)
let timed fire =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  fire ();
  let t1 = now () in
  let w1 = Gc.minor_words () in
  (t1 - t0, w1 -. w0)

(* Drive closed-loop bursts until [seconds] of wall time have passed:
   [prepare] builds the next burst off the clock and returns its size;
   [fire] runs it and returns the ns and minor words to book for it. *)
let measure ph ~seconds ~prepare ~fire ~delivered =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  while now () < deadline do
    let n = prepare () in
    let d0 = delivered () in
    let ns, words = fire () in
    record ph ~ns ~offered:n ~delivered:(delivered () - d0) ~words
  done;
  finish ph

(* GC activity of the datapath side of traced bursts. *)
type gc_acc = { mutable minors : int; mutable promoted : float; mutable majors : int }

let gc_acc () = { minors = 0; promoted = 0.; majors = 0 }

let reset_gc acc =
  acc.minors <- 0;
  acc.promoted <- 0.;
  acc.majors <- 0

let with_gc acc f =
  let a = Gc.quick_stat () in
  f ();
  let b = Gc.quick_stat () in
  acc.minors <- acc.minors + (b.Gc.minor_collections - a.Gc.minor_collections);
  acc.promoted <- acc.promoted +. (b.Gc.promoted_words -. a.Gc.promoted_words);
  acc.majors <- acc.majors + (b.Gc.major_collections - a.Gc.major_collections)

let us_of_ns ns = float_of_int ns /. 1e3

let burst_quantiles ph =
  let a = Array.init ph.bursts (fun i -> us_of_ns ph.burst_ns.(i)) in
  (Perfbench.Stats.percentile a 0.5, Perfbench.Stats.percentile a 0.99, ph.bursts)

let chunk_mpps ph =
  let a = Array.of_list ph.chunk_rates in
  (Perfbench.Stats.chunk_rate a, Array.length a)

let raw_mpps ph = Perfbench.Stats.chunk_rate (Array.of_list ph.raw_rates)
let median_factor ph = Perfbench.Stats.median (Array.of_list ph.factors)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set the workload up [n] times and keep the last rig. Set-up time is
   the median, each in reference-host seconds (host factor sampled on
   both sides); earlier rigs are dropped and compacted away before the
   next is built so their memory does not add up. *)
let setups n build =
  let times = Array.make n 0. in
  let rig = ref None in
  for i = 0 to n - 1 do
    rig := None;
    Gc.compact ();
    let f0 = host_factor () in
    let t0 = now () in
    let r = build () in
    let t1 = now () in
    let f1 = host_factor () in
    times.(i) <- float_of_int (t1 - t0) /. 1e9 *. ((f0 +. f1) /. 2.);
    rig := Some r
  done;
  match !rig with
  | Some r -> (r, Perfbench.Stats.median times, n)
  | None -> invalid_arg "Harness.setups: n = 0"

(* Slow-path latency samples in reference-host us: [probe] runs one
   cache-cold packet and returns its ns, or -1 when the packet did not
   reach the slow path. The host factor is sampled every 100 probes. *)
let upcall_samples n probe =
  let out = Array.make n 0. and k = ref 0 in
  let left = ref n in
  while !left > 0 do
    let first = !k in
    for _ = 1 to Int.min 100 !left do
      let ns = probe () in
      if ns >= 0 then begin
        out.(!k) <- us_of_ns ns;
        incr k
      end
    done;
    let f = host_factor () in
    for i = first to !k - 1 do
      out.(i) <- out.(i) *. f
    done;
    left := !left - 100
  done;
  Array.sub out 0 !k

(* A named correctness check; every failing one is printed by name. *)
type check = { cname : string; ok : bool; detail : string }

let check cname ok detail = { cname; ok; detail }

(* What a workload run hands back. [values] are the registry metrics this
   run reports (end-to-end or per-layer); [report] is the human-readable
   block printed above the result line, with sample counts. *)
type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  checks : check list;
  report : string list;
}

(* The end-to-end part every workload shares, with the check that the
   slow-path percentiles rest on samples. *)
let e2e_values ph ~setup_s ~n_setups ~upcalls =
  let mpps, n_chunks = chunk_mpps ph in
  let b50, b99, nb = burst_quantiles ph in
  let n_up = Array.length upcalls in
  let uq p = if n_up = 0 then 0. else Perfbench.Stats.percentile upcalls p in
  let u50 = uq 0.5 and u99 = uq 0.99 in
  let words = ph.words /. float_of_int (Int.max 1 ph.offered) in
  let heap = heap_peak_mb () in
  let values =
    [
      ("mpps", mpps);
      ("batch_p50_us", b50);
      ("batch_p99_us", b99);
      ("upcall_p50_us", u50);
      ("upcall_p99_us", u99);
      ("alloc_words_per_pkt", words);
      ("heap_peak_mb", heap);
      ("setup_s", setup_s);
    ]
  in
  let report =
    [
      Printf.sprintf
        "  %-22s %12.4f Mpps  (p%.0f of %d chunks of %d pkts; measured %.4f Mpps, host factor %.3f)"
        "mpps" mpps (100. *. Perfbench.Stats.chunk_quantile) n_chunks ph.chunk_pkts
        (raw_mpps ph) (median_factor ph);
      Printf.sprintf "  %-22s %12.2f us    (%d bursts)" "batch_p50_us" b50 nb;
      Printf.sprintf "  %-22s %12.2f us    (%d bursts)" "batch_p99_us" b99 nb;
      Printf.sprintf "  %-22s %12.2f us    (%d slow-path calls)" "upcall_p50_us" u50
        (Array.length upcalls);
      Printf.sprintf "  %-22s %12.2f us    (%d slow-path calls)" "upcall_p99_us" u99
        (Array.length upcalls);
      Printf.sprintf "  %-22s %12.2f words (%d packets)" "alloc_words_per_pkt" words ph.offered;
      Printf.sprintf "  %-22s %12.1f MB    (1 run)" "heap_peak_mb" heap;
      Printf.sprintf "  %-22s %12.4f s     (median of %d set-ups)" "setup_s" setup_s n_setups;
    ]
  in
  (values, report, check "upcall-samples" (n_up > 0) (Printf.sprintf "%d slow-path calls timed" n_up))
