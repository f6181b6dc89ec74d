(* Tests for the benchmark's own code: the chunk estimator and the
   quartiles behind the spread, span self-time arithmetic, the metric-name
   charset, and the JSON of BENCHMARK.json and of the result line. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check close "median" 3. (Stats.median xs);
  Alcotest.check close "p0" 1. (Stats.percentile xs 0.);
  Alcotest.check close "p100" 5. (Stats.percentile xs 1.);
  Alcotest.check close "interpolated p10" 1.4 (Stats.percentile xs 0.1);
  Alcotest.check close "input untouched" 5. xs.(0)

let test_chunk_estimator () =
  (* a bimodal run: the estimator is the median chunk rate *)
  let rates = Array.append (Array.make 7 0.8) (Array.make 4 0.45) in
  Alcotest.check close "median chunk" 0.8 (Stats.chunk_rate rates);
  Alcotest.check close "quantile used" 0.5 Stats.chunk_quantile

let test_reference_factor () =
  let f = Stats.reference_factor ~ref_ns:175. ~alpha:0.75 in
  Alcotest.check close "quiet host: measured as is" 1. (f 175.);
  Alcotest.(check bool) "slow host: time shrinks" true (f 350. < 1.);
  Alcotest.check close "exponent" (Float.pow 0.5 0.75) (f 350.)

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
   statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5] *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [| 3.; 1. |] in
  Alcotest.check close "two q1" 0.5 q1;
  Alcotest.check close "two q2" 2. q2;
  Alcotest.check close "two q3" 3.5 q3;
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* burst [0,100] > pass [10,60] > {extract [10,20], emc [15,40]} plus a
   second pass [70,90]; the children of the first pass overlap *)
let test_self_time () =
  let sp = Spans.create ~keep:1 [| "burst"; "pass"; "extract"; "emc" |] in
  let burst = 0 and pass = 1 and extract = 2 and emc = 3 in
  Spans.enter sp burst 0;
  Spans.enter sp pass 10;
  Spans.enter sp extract 10;
  Spans.leave sp 20;
  Spans.enter sp emc 15;
  Spans.leave sp 40;
  Spans.leave sp 60;
  Spans.enter sp pass 70;
  Spans.leave sp 90;
  Spans.leave sp 100;
  Alcotest.(check (array int)) "self times" [| 30; 20; 10; 25; 20 |] (Spans.self_times sp);
  Spans.end_burst sp;
  Alcotest.check close "burst self" 30. (Spans.self_ns sp burst);
  Alcotest.check close "pass self, both spans" 40. (Spans.self_ns sp pass);
  Alcotest.(check int) "pass count" 2 (Spans.count sp pass);
  Alcotest.check close "mean pass self" 20. (Spans.mean_self sp pass);
  Alcotest.check close "extract" 10. (Spans.self_ns sp extract);
  Alcotest.check close "emc" 25. (Spans.self_ns sp emc);
  Alcotest.check close "never ran" 0. (Spans.mean_self (Spans.create [| "x" |]) 0);
  Alcotest.check_raises "unbalanced" (Invalid_argument "Spans.leave: no open span")
    (fun () -> Spans.leave sp 0)

let test_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) ("name " ^ m.Metrics.name) true (Metrics.valid_name m.Metrics.name);
      Alcotest.(check bool) ("unit " ^ m.Metrics.unit_) true (Metrics.valid_unit m.Metrics.unit_))
    (Metrics.end_to_end @ Metrics.per_layer);
  List.iter
    (fun (w, why) ->
      Alcotest.(check bool) ("workload " ^ w) true (Metrics.valid_name w);
      Alcotest.(check bool) "why fits" true (String.length why <= 200))
    Metrics.workloads;
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Metrics.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects unit " ^ bad) false (Metrics.valid_unit bad))
    [ ""; "m s"; String.make 17 'a' ];
  let names = List.map (fun m -> m.Metrics.name) (Metrics.end_to_end @ Metrics.per_layer) in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s has the largest bound" true
    (let b m = Option.value ~default:0. m.Metrics.bound in
     let s = List.find (fun m -> m.Metrics.name = "setup_s") Metrics.end_to_end in
     List.for_all (fun m -> b m <= b s && b m <= 0.25) Metrics.end_to_end)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json is the registry's"
    (read_file "../../BENCHMARK.json") (Metrics.benchmark_json ())

let test_result_line () =
  Alcotest.(check string) "numbers keep their digits" "0.1" (Metrics.number 0.1);
  Alcotest.(check string) "integral floats stay floats" "3.0" (Metrics.number 3.);
  Alcotest.check close "round trip" (1. /. 3.) (float_of_string (Metrics.number (1. /. 3.)));
  Alcotest.check_raises "no NaN" (Invalid_argument "Metrics.number: not finite") (fun () ->
      ignore (Metrics.number nan));
  let reg = [ Metrics.e2e "mpps" "Mpps" Metrics.Higher 0.25 ] in
  Alcotest.(check string) "line"
    {|{"correct": true, "attempted": 7, "failed": 0, "metrics": {"mpps": {"value": 0.5, "unit": "Mpps"}}}|}
    (Metrics.result_line ~correct:true ~attempted:7 ~failed:0 ~registry:reg [ ("mpps", 0.5) ]);
  Alcotest.check_raises "every metric present"
    (Invalid_argument "Metrics.result_line: no value for mpps") (fun () ->
      ignore (Metrics.result_line ~correct:true ~attempted:1 ~failed:0 ~registry:reg []))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "chunk estimator" `Quick test_chunk_estimator;
          Alcotest.test_case "python quartiles" `Quick test_quartiles;
          Alcotest.test_case "host correction" `Quick test_reference_factor;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "metrics",
        [
          Alcotest.test_case "names and units" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
