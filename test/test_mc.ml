(* The schedule explorer, tested at the tiny bound: the unmodified model
   survives exhaustive exploration; every seeded mutation is caught with
   a shrunk, replayable schedule; and replaying a violation's artifact
   reproduces the identical violation (same step index, same oracle) —
   the acceptance criteria of the mc subsystem, plus the mutation leg
   that proves the oracles actually bite. *)

module Mc = Ovs_mc.Mc

let test_tiny_exhaustive_clean () =
  let o = Mc.explore Mc.Tiny in
  Alcotest.(check bool) "schedules explored" true (o.Mc.o_explored > 0);
  Alcotest.(check bool) "POR pruned something" true (o.Mc.o_pruned > 0);
  match o.Mc.o_violation with
  | None -> ()
  | Some (v, _) ->
      Alcotest.failf "unmodified model violated: %s" (Fmt.str "%a" Mc.pp_violation v)

(* The reduction must only skip schedules equivalent to explored ones:
   with POR off, the full interleaving count of the tiny scripts
   (5!/(1!·1!·2!·1!) = 60) runs, and the verdict is the same. *)
let test_por_sound_at_tiny () =
  let full = Mc.explore ~por:false Mc.Tiny in
  let reduced = Mc.explore ~por:true Mc.Tiny in
  Alcotest.(check int) "full space size" 60 full.Mc.o_explored;
  Alcotest.(check bool) "reduction explores fewer" true
    (reduced.Mc.o_explored < full.Mc.o_explored);
  Alcotest.(check bool) "both clean" true
    (full.Mc.o_violation = None && reduced.Mc.o_violation = None)

let test_sampling_clean () =
  let o = Mc.sample ~seed:1234 ~n:50 Mc.Large in
  Alcotest.(check int) "50 schedules sampled" 50 o.Mc.o_explored;
  match o.Mc.o_violation with
  | None -> ()
  | Some (v, _) ->
      Alcotest.failf "unmodified model violated under sampling: %s"
        (Fmt.str "%a" Mc.pp_violation v)

let test_deterministic_rerun () =
  (* the same (mode, schedule) must yield the same verdict — the property
     replay artifacts rely on *)
  let sched = [| 0; 2; 2; 0; 1; 0; 3 |] in
  let a = Mc.run_schedule Mc.Tiny sched in
  let b = Mc.run_schedule Mc.Tiny sched in
  Alcotest.(check bool) "identical verdicts" true (a = b)

(* Every mutation is found within the tiny bound, the reported schedule
   is locally minimal, and its artifact replays to the identical
   violation. *)
let test_mutation name mutation () =
  let o = Mc.explore ~mutation Mc.Tiny in
  match o.Mc.o_violation with
  | None -> Alcotest.failf "mutation %s not caught at the tiny bound" name
  | Some (v, sched) ->
      (* shrunk: the violation fires at the schedule's last step *)
      Alcotest.(check int) "violation at last step" (Array.length sched - 1)
        v.Mc.v_step;
      (* locally minimal: no single-step removal keeps the same oracle *)
      let remove arr i =
        Array.append (Array.sub arr 0 i)
          (Array.sub arr (i + 1) (Array.length arr - i - 1))
      in
      for i = 0 to Array.length sched - 1 do
        match Mc.run_schedule ~mutation Mc.Tiny (remove sched i) with
        | Some v' when v'.Mc.v_oracle = v.Mc.v_oracle ->
            Alcotest.failf "not minimal: dropping step %d still violates %s" i
              (Mc.oracle_name v.Mc.v_oracle)
        | _ -> ()
      done;
      (* the replay artifact reproduces the identical violation *)
      let artifact =
        Mc.artifact_string ~mode:o.Mc.o_mode ~seed:o.Mc.o_seed
          ~mutation:o.Mc.o_mutation sched
      in
      (match Mc.parse_artifact artifact with
      | Error e -> Alcotest.failf "artifact does not parse: %s" e
      | Ok (mode, _seed, mut, sched') ->
          Alcotest.(check bool) "artifact round-trips" true
            (mode = o.Mc.o_mode && mut = o.Mc.o_mutation && sched' = sched));
      (match Mc.run_schedule ~mutation Mc.Tiny sched with
      | None -> Alcotest.failf "replay of %s found no violation" artifact
      | Some v' ->
          Alcotest.(check int) "same step index" v.Mc.v_step v'.Mc.v_step;
          Alcotest.(check string) "same oracle" (Mc.oracle_name v.Mc.v_oracle)
            (Mc.oracle_name v'.Mc.v_oracle);
          Alcotest.(check string) "same detail" v.Mc.v_detail v'.Mc.v_detail);
      (* and the appctl surface renders it *)
      match Ovs_tools.Tools.appctl ("mc/replay " ^ artifact) with
      | Ovs_tools.Tools.Ok_output s ->
          Alcotest.(check bool) "appctl replay reports the violation" true
            (Astring.String.is_infix ~affix:"VIOLATION" s)
      | Ovs_tools.Tools.Not_supported e ->
          Alcotest.failf "appctl mc/replay failed: %s" e

let test_artifact_errors () =
  let bad s =
    match Mc.parse_artifact s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "garbage rejected" true (bad "hello world");
  Alcotest.(check bool) "bad mode rejected" true
    (bad "mc1 mode=huge seed=0 mut=none sched=00");
  Alcotest.(check bool) "bad mutation rejected" true
    (bad "mc1 mode=tiny seed=0 mut=nonsense sched=00");
  Alcotest.(check bool) "bad schedule rejected" true
    (bad "mc1 mode=tiny seed=0 mut=none sched=zz");
  match Ovs_tools.Tools.appctl "mc/replay not an artifact" with
  | Ovs_tools.Tools.Not_supported _ -> ()
  | Ovs_tools.Tools.Ok_output s -> Alcotest.failf "accepted garbage: %s" s

(* Exhausted-script thread ids are no-op steps, so hand-edited or padded
   schedules still replay with stable step indices. *)
let test_noop_padding () =
  let base = [| 0; 2; 2; 0 |] in
  let padded = Array.append base [| 9; 9; 2; 2 |] in
  Alcotest.(check bool) "padded schedule still clean" true
    (Mc.run_schedule Mc.Tiny padded = None)

(* A packet-conservation violation carries the rig ledger's books: the
   phase, every moved drop counter and the unaccounted remainder. *)
let test_packet_violation_names_books () =
  match (Mc.explore ~mutation:Mc.M_lose_packet Mc.Tiny).Mc.o_violation with
  | None -> Alcotest.fail "lose_packet not caught"
  | Some (v, _) ->
      Alcotest.(check string) "oracle" "packet-conservation"
        (Mc.oracle_name v.Mc.v_oracle);
      Alcotest.(check string) "detail is the ledger diff"
        "phase mc: offered 16 = delivered 9 + drops 0 [no drop counter \
         moved] + in flight 6 + 1 unaccounted"
        v.Mc.v_detail

let () =
  Alcotest.run "ovs_mc"
    [
      ( "explorer",
        [
          Alcotest.test_case "tiny exhaustive is clean" `Quick
            test_tiny_exhaustive_clean;
          Alcotest.test_case "POR sound at tiny bound" `Quick
            test_por_sound_at_tiny;
          Alcotest.test_case "large-bound sampling clean" `Quick
            test_sampling_clean;
          Alcotest.test_case "deterministic rerun" `Quick
            test_deterministic_rerun;
          Alcotest.test_case "no-op padding replays" `Quick test_noop_padding;
          Alcotest.test_case "packet violation names the books" `Quick
            test_packet_violation_names_books;
        ] );
      ( "mutations",
        List.map
          (fun (name, mu) ->
            Alcotest.test_case ("catches " ^ name) `Quick
              (test_mutation name mu))
          Mc.mutations );
      ( "artifacts",
        [ Alcotest.test_case "malformed artifacts rejected" `Quick
            test_artifact_errors ] );
    ]
