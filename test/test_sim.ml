(* Unit and property tests for the simulation substrate. *)

module Prng = Ovs_sim.Prng
module Histogram = Ovs_sim.Histogram
module Cpu = Ovs_sim.Cpu
module Costs = Ovs_sim.Costs
module Time = Ovs_sim.Time

let check = Alcotest.check

(* -- Time -- *)

let test_time_conversions () =
  check (Alcotest.float 1e-9) "us" 1_000. (Time.us 1.);
  check (Alcotest.float 1e-9) "ms" 1_000_000. (Time.ms 1.);
  check (Alcotest.float 1e-9) "s" 1e9 (Time.s 1.);
  check (Alcotest.float 1e-6) "roundtrip" 2.5 (Time.to_us (Time.us 2.5))

let test_time_rates () =
  (* 100 ns per packet = 10 Mpps *)
  check (Alcotest.float 1.) "rate" 10e6 (Time.rate_pps ~per_packet:100.);
  check (Alcotest.float 1e-9) "inverse" 100. (Time.per_packet_of_pps 10e6);
  check Alcotest.bool "zero cost is infinite rate" true
    (Time.rate_pps ~per_packet:0. = infinity)

let test_time_cycles () =
  (* 2.4 cycles = 1 ns at 2.4 GHz *)
  check (Alcotest.float 1e-9) "cycles" 1. (Time.cycles 2.4)

(* -- Prng -- *)

let test_prng_deterministic () =
  let a = Prng.of_int 99 and b = Prng.of_int 99 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1_000_000) (Prng.int b 1_000_000)
  done

let test_prng_seeds_differ () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int a 1_000_000 = Prng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let test_prng_bounds () =
  let p = Prng.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_float_range () =
  let p = Prng.of_int 4 in
  for _ = 1 to 10_000 do
    let v = Prng.float p in
    if v < 0. || v >= 1. then Alcotest.failf "float out of range: %f" v
  done

let test_prng_exponential_mean () =
  let p = Prng.of_int 5 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  if mean < 95. || mean > 105. then Alcotest.failf "exponential mean %f" mean

let test_prng_gaussian_moments () =
  let p = Prng.of_int 6 in
  let n = 50_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let v = Prng.gaussian p ~mu:10. ~sigma:2. in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  if abs_float (mean -. 10.) > 0.1 then Alcotest.failf "gaussian mean %f" mean;
  if abs_float (var -. 4.) > 0.3 then Alcotest.failf "gaussian var %f" var

(* -- Histogram -- *)

let test_histogram_percentiles () =
  let h = Histogram.create ~lo:1. ~hi:1e6 () in
  for i = 1 to 1000 do
    Histogram.add h (float_of_int i)
  done;
  let p50 = Histogram.p50 h in
  if p50 < 450. || p50 > 550. then Alcotest.failf "p50 %f" p50;
  let p99 = Histogram.p99 h in
  if p99 < 940. || p99 > 1050. then Alcotest.failf "p99 %f" p99

let test_histogram_exact_extremes () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 5.; 10.; 20. ];
  check (Alcotest.float 1e-9) "p0 is min" 5. (Histogram.percentile h 0.);
  check (Alcotest.float 1e-9) "p100 is max" 20. (Histogram.percentile h 100.)

let test_histogram_mean_count () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10.; 20.; 30. ];
  check Alcotest.int "count" 3 (Histogram.count h);
  check (Alcotest.float 1e-9) "mean" 20. (Histogram.mean h)

let test_histogram_empty () =
  let h = Histogram.create () in
  check (Alcotest.float 1e-9) "empty p50" 0. (Histogram.p50 h)

let test_histogram_clamp () =
  let h = Histogram.create ~lo:10. ~hi:100. () in
  Histogram.add h 1.;
  Histogram.add h 1e9;
  check Alcotest.int "clamped values counted" 2 (Histogram.count h)

(* -- Cpu -- *)

let test_cpu_charge_categories () =
  let m = Cpu.create () in
  let c = Cpu.ctx m "x" in
  Cpu.charge c Cpu.User 10.;
  Cpu.charge c Cpu.System 20.;
  Cpu.charge c Cpu.Softirq 30.;
  Cpu.charge c Cpu.Guest 40.;
  check (Alcotest.float 1e-9) "busy sums categories" 100. (Cpu.busy c)

let test_cpu_wall_is_bottleneck () =
  let m = Cpu.create () in
  let a = Cpu.ctx m "a" and b = Cpu.ctx m "b" in
  Cpu.charge a Cpu.User 100.;
  Cpu.charge b Cpu.Softirq 250.;
  check (Alcotest.float 1e-9) "wall" 250. (Cpu.wall m)

let test_cpu_breakdown () =
  let m = Cpu.create () in
  let a = Cpu.ctx m "a" and b = Cpu.ctx m "b" in
  Cpu.charge a Cpu.User 50.;
  Cpu.charge b Cpu.Softirq 100.;
  let bd = Cpu.breakdown m ~wall:100. in
  check (Alcotest.float 1e-9) "user fraction" 0.5 bd.Cpu.bd_user;
  check (Alcotest.float 1e-9) "softirq fraction" 1.0 bd.Cpu.bd_softirq;
  check (Alcotest.float 1e-9) "total" 1.5 bd.Cpu.bd_total

let test_cpu_poll_floor () =
  let m = Cpu.create () in
  let pmd = Cpu.ctx m "pmd" in
  Cpu.charge pmd Cpu.User 10.;
  let bd = Cpu.breakdown ~poll_floor:[ pmd ] m ~wall:100. in
  (* a polling thread burns the whole core even when 90% idle *)
  check (Alcotest.float 1e-9) "rounded up" 1.0 bd.Cpu.bd_user

let test_cpu_reset () =
  let m = Cpu.create () in
  let c = Cpu.ctx m "c" in
  Cpu.charge c Cpu.User 10.;
  Cpu.reset c;
  check (Alcotest.float 1e-9) "reset" 0. (Cpu.busy c)

(* -- Costs -- *)

let test_costs_csum_linear () =
  let c = Costs.default in
  let small = Costs.csum c ~bytes:64 and big = Costs.csum c ~bytes:1500 in
  Alcotest.(check bool) "checksum grows with size" true (big > small);
  check (Alcotest.float 1e-9) "affine"
    (c.Costs.csum_fixed +. (c.Costs.csum_per_byte *. 64.))
    small

let test_costs_sanity () =
  let c = Costs.default in
  (* ordering relations the calibration depends on *)
  Alcotest.(check bool) "mutex dearer than spinlock" true
    (c.Costs.mutex_lock > c.Costs.spinlock);
  Alcotest.(check bool) "prealloc cheaper than alloc" true
    (c.Costs.prealloc_init < c.Costs.page_alloc);
  Alcotest.(check bool) "tap sendto is ~2us" true
    (c.Costs.sendto_tap >= 1500. && c.Costs.sendto_tap <= 2500.);
  Alcotest.(check bool) "kernel upcall dearer than userspace" true
    (c.Costs.netlink_upcall > c.Costs.upcall)

let () =
  Alcotest.run "ovs_sim"
    [
      ( "time",
        [
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "rates" `Quick test_time_rates;
          Alcotest.test_case "cycles" `Quick test_time_cycles;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_bounds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "exact extremes" `Quick test_histogram_exact_extremes;
          Alcotest.test_case "mean and count" `Quick test_histogram_mean_count;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "clamping" `Quick test_histogram_clamp;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "charge categories" `Quick test_cpu_charge_categories;
          Alcotest.test_case "wall is bottleneck" `Quick test_cpu_wall_is_bottleneck;
          Alcotest.test_case "breakdown" `Quick test_cpu_breakdown;
          Alcotest.test_case "poll floor" `Quick test_cpu_poll_floor;
          Alcotest.test_case "reset" `Quick test_cpu_reset;
        ] );
      ( "costs",
        [
          Alcotest.test_case "csum linear" `Quick test_costs_csum_linear;
          Alcotest.test_case "calibration sanity" `Quick test_costs_sanity;
        ] );
    ]
