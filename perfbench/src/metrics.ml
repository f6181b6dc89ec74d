(* The metric registry: the single source of BENCHMARK.json and of the
   result line every run prints. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let command = [ "python3"; "perfbench/run.py" ]
let paths = [ "perfbench" ]
let run_seconds = 10

(* Workload names and why each exists (one line each; the long form is
   in perfbench/README.md). *)
let workloads =
  [
    ( "p2p-emc",
      "64-byte UDP over 1000 EMC-resident flows through the AF_XDP rig: the \
       per-packet fast path (rx, XSK rings, umem, extract, EMC, output) does \
       all the work" );
    ( "nsx-dfw",
      "the 103k-rule NSX pipeline with ~32k flows from 30 VIFs and Geneve \
       ingress: dpcls over many subtables and conntrack dominate, the EMC \
       mostly misses" );
    ( "churn-ct",
      "Zipf traffic with connection churn through ct(commit), conntrack \
       expiry and rule churn with incremental revalidation: the write side \
       of the caches" );
  ]

let end_to_end =
  [
    e2e "mpps" "Mpps" Higher 0.25;
    e2e "batch_p50_us" "us" Lower 0.25;
    e2e "batch_p99_us" "us" Lower 0.25;
    e2e "upcall_p50_us" "us" Lower 0.25;
    e2e "upcall_p99_us" "us" Lower 0.25;
    e2e "alloc_words_per_pkt" "words" Lower 0.1;
    e2e "heap_peak_mb" "MB" Lower 0.1;
    e2e "setup_s" "s" Lower 0.25;
  ]

let per_layer =
  [
    layer "packet.extract_ns" "ns" Lower;
    layer "packet.extract_words" "words" Lower;
    layer "packet.extract_real_over_charged" "ratio" Lower;
    layer "flow.emc_lookup_ns" "ns" Lower;
    layer "flow.emc_hit_ratio" "ratio" Higher;
    layer "flow.emc_real_over_charged" "ratio" Lower;
    layer "flow.dpcls_lookup_ns" "ns" Lower;
    layer "flow.dpcls_probes_per_lookup" "count" Lower;
    layer "flow.dpcls_subtables" "count" Lower;
    layer "flow.megaflows" "count" Lower;
    layer "flow.dpcls_insert_ns" "ns" Lower;
    layer "flow.dpcls_real_over_charged" "ratio" Lower;
    layer "ofproto.translate_ns" "ns" Lower;
    layer "ofproto.upcalls_per_kpkt" "1/kpkt" Lower;
    layer "ofproto.install_us_per_rule" "us" Lower;
    layer "conntrack.track_ns" "ns" Lower;
    layer "conntrack.commit_ns" "ns" Lower;
    layer "conntrack.sweep_ns_per_entry" "ns" Lower;
    layer "conntrack.active_conns" "count" Lower;
    layer "revalidator.sweep_ms" "ms" Lower;
    layer "revalidator.retranslated_per_round" "count" Lower;
    layer "revalidator.useful_ratio" "ratio" Higher;
    layer "xsk.ring_burst_ns" "ns" Lower;
    layer "xsk.umempool_batch_ns" "ns" Lower;
    layer "netdev.rx_enqueue_ns_per_pkt" "ns" Lower;
    layer "datapath.poll_ns_per_pkt" "ns" Lower;
    layer "datapath.process_ns_per_pkt" "ns" Lower;
    layer "datapath.passes_per_pkt" "count" Lower;
    layer "runtime.minor_gcs_per_kpkt" "1/kpkt" Lower;
    layer "runtime.promoted_words_per_pkt" "words" Lower;
    layer "runtime.major_cycles_per_mpkt" "1/Mpkt" Lower;
    layer "sim.charged_ns_per_pkt" "ns" Lower;
  ]

(* --- names and units, as the benchmark contract restricts them --- *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* --- JSON --- *)

type json =
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Shortest decimal that reads back as the same float: a measured value
   keeps all its digits. Non-finite values are not JSON numbers. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Metrics.number: not finite";
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  let s = go 1 in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ ".0"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* [indent] < 0 prints on one line. Arrays of scalars stay on one line. *)
let to_string ?(indent = -1) j =
  let b = Buffer.create 256 in
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let rec go depth j =
    let nl d =
      if indent >= 0 then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (d * indent) ' ')
      end
    in
    let seq opn cls items f =
      Buffer.add_char b opn;
      let flat = indent < 0 || List.for_all scalar items in
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b (if flat then ", " else ",");
          if not flat then nl (depth + 1);
          f x)
        items;
      if (not flat) && items <> [] then nl depth;
      Buffer.add_char b cls
    in
    match j with
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Num x -> Buffer.add_string b (number x)
    | Str s -> Buffer.add_string b (escape s)
    | Arr l -> seq '[' ']' l (go (depth + 1))
    | Obj kvs ->
        Buffer.add_char b '{';
        let flat = indent < 0 || List.for_all (fun (_, v) -> scalar v) kvs in
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b (if flat then ", " else ",");
            if not flat then nl (depth + 1);
            Buffer.add_string b (escape k);
            Buffer.add_string b ": ";
            go (depth + 1) v)
          kvs;
        if (not flat) && kvs <> [] then nl depth;
        Buffer.add_char b '}'
  in
  go 0 j;
  Buffer.contents b

let better_string = function Lower -> "lower" | Higher -> "higher"

let metric_json m =
  Obj
    ([ ("name", Str m.name); ("unit", Str m.unit_);
       ("better", Str (better_string m.better)) ]
    @ match m.bound with Some x -> [ ("bound", Num x) ] | None -> [])

(* BENCHMARK.json, byte for byte (the tests compare it with the file). *)
let benchmark_json () =
  to_string ~indent:2
    (Obj
       [
         ("command", Arr (List.map (fun s -> Str s) command));
         ("paths", Arr (List.map (fun s -> Str s) paths));
         ("run_seconds", Int run_seconds);
         ( "workloads",
           Arr
             (List.map
                (fun (n, why) -> Obj [ ("name", Str n); ("why", Str why) ])
                workloads) );
         ("end_to_end", Arr (List.map metric_json end_to_end));
         ("per_layer", Arr (List.map metric_json per_layer));
       ])
  ^ "\n"

(* The last line of a run: exactly the keys the contract names, every
   metric of [registry] present with its registered unit. *)
let result_line ~correct ~attempted ~failed ~registry values =
  let metrics =
    List.map
      (fun m ->
        match List.assoc_opt m.name values with
        | Some v -> (m.name, Obj [ ("value", Num v); ("unit", Str m.unit_) ])
        | None -> invalid_arg ("Metrics.result_line: no value for " ^ m.name))
      registry
  in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int attempted);
         ("failed", Int failed);
         ("metrics", Obj metrics);
       ])
