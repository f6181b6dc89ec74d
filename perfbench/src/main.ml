(* perfbench: the repository's benchmark. One workload per run (or all of
   them with --workload all), untraced for the end-to-end metrics or
   traced (--trace 1) for the per-layer ones. The last line of standard
   output is the JSON result; everything above it is the report. *)

module M = Perfbench.Metrics

let workloads =
  [
    ("p2p-emc", (P2p_emc.run_e2e, P2p_emc.run_traced));
    ("nsx-dfw", (Nsx_dfw.run_e2e, Nsx_dfw.run_traced));
    ("churn-ct", (Churn_ct.run_e2e, Churn_ct.run_traced));
  ]

let usage =
  "main.exe --workload (p2p-emc|nsx-dfw|churn-ct|all) [--seed N] [--seconds S] \
   [--trace 0|1] | --spec"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse argv =
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int M.run_seconds)
  and trace = ref false and spec = ref false in
  let rec go = function
    | [] -> ()
    | "--spec" :: rest -> spec := true; go rest
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> die "bad --seed %s" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> die "bad --seconds %s" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die "bad --trace %s" v);
        go rest
    | a :: _ -> die "unknown argument %s\n%s" a usage
  in
  go (List.tl (Array.to_list argv));
  (!workload, !seed, !seconds, !trace, !spec)

let run_one name ~seed ~seconds ~trace =
  let e2e, traced = List.assoc name workloads in
  Printf.printf "== %s (seed %d, %.0f s, %s)\n%!" name seed seconds
    (if trace then "traced" else "untraced");
  let o = if trace then traced ~seed ~seconds else e2e ~seed ~seconds in
  List.iter print_endline o.Harness.report;
  Printf.printf "  offered %d, failed %d\n" o.Harness.attempted o.Harness.failed;
  List.iter
    (fun c ->
      Printf.printf "  check %-24s %s  (%s)\n" c.Harness.cname
        (if c.Harness.ok then "ok" else "FAILED")
        c.Harness.detail)
    o.Harness.checks;
  let correct = o.Harness.failed = 0 && List.for_all (fun c -> c.Harness.ok) o.Harness.checks in
  let line =
    M.result_line ~correct ~attempted:o.Harness.attempted ~failed:o.Harness.failed
      ~registry:(if trace then M.per_layer else M.end_to_end)
      o.Harness.values
  in
  (correct, line)

let () =
  let workload, seed, seconds, trace, spec = parse Sys.argv in
  if spec then print_string (M.benchmark_json ())
  else if workload = "all" then begin
    let ok =
      List.fold_left
        (fun ok (name, _) ->
          let correct, line = run_one name ~seed ~seconds ~trace in
          Printf.printf "  result %s\n%!" line;
          ok && correct)
        true workloads
    in
    Printf.printf "all workloads %s\n" (if ok then "correct" else "NOT correct")
  end
  else if List.mem_assoc workload workloads then begin
    let _, line = run_one workload ~seed ~seconds ~trace in
    print_endline line
  end
  else die "unknown workload %S\n%s" workload usage
