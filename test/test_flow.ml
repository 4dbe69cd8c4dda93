(* Signal-class dataflow analysis (doc/FLOW.md): class inference on
   small designs, the case-net demotion, Netlist.copy preserving the
   inferred classes, the [--classes] listing snapshots, the fact that
   verification itself never runs the analysis, and pruning soundness
   with the classes handed to the verifier. *)

open Scald_core

let prop ?(count = 10) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let load src =
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error msg -> Alcotest.failf "expander: %s" msg

let preamble = "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n"

let flow_of src =
  let nl = load (preamble ^ src) in
  (nl, Flow.analyse nl)

let net_id nl name =
  match Netlist.find nl name with
  | Some id -> id
  | None -> Alcotest.failf "no net %s" name

let cls (nl, f) name = Flow.cls f (net_id nl name)

(* ---- class inference --------------------------------------------------------- *)

let test_clock_classes () =
  let d =
    flow_of
      "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n\
       2 AND (DELAY=1.0/2.0) (G &H, EN .S0-8) -> G2;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (G2, CK .P2-3);\n"
  in
  let nl, f = d in
  let ck = net_id nl "CK .P2-3" in
  (match cls d "CK .P2-3" with
  | Flow.Clock { domains; gated } ->
    Alcotest.(check bool) "root is ungated" false gated;
    Alcotest.(check (list int)) "root is its own domain" [ ck ] domains
  | _ -> Alcotest.fail "CK not a clock");
  (match cls d "G" with
  | Flow.Clock { domains; gated } ->
    Alcotest.(check bool) "derived clock is gated" true gated;
    Alcotest.(check (list int)) "domain survives gating" [ ck ] domains
  | _ -> Alcotest.fail "G not a clock");
  (match cls d "G2" with
  | Flow.Clock { gated = true; _ } -> ()
  | _ -> Alcotest.fail "G2 not a gated clock");
  Alcotest.(check bool) "clock cone reaches the checker input" true
    (Flow.reaches_clock f (net_id nl "G2"))

let test_data_and_stable_classes () =
  let d =
    flow_of
      "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n\
       1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (Q, CK .P2-3);\n"
  in
  let nl, _ = d in
  let ck = net_id nl "CK .P2-3" in
  (match cls d "Q" with
  | Flow.Data domains ->
    Alcotest.(check (list int)) "register output tagged with its clock" [ ck ]
      domains
  | _ -> Alcotest.fail "Q not data");
  (* a full-period .S assertion is stable; a partial window is data *)
  Alcotest.(check bool) "EN .S0-8 is stable" true (cls d "EN .S0-8" = Flow.Stable);
  Alcotest.(check bool) "D .S0-4 changes inside the period" true
    (cls d "D .S0-4" = Flow.Data []);
  (* logic computed only from stable signals stays stable *)
  Alcotest.(check bool) "gate of stable inputs is stable" true
    (cls d "X" = Flow.Stable)

let test_cyclic_not_stable () =
  let d =
    flow_of
      "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n"
  in
  (* the feedback component settles to a non-stable class *)
  match cls d "LOOP" with
  | Flow.Const _ | Flow.Stable -> Alcotest.fail "cycle classified stable"
  | Flow.Data _ | Flow.Unknown | Flow.Clock _ -> ()

let test_case_net_demotion () =
  let src =
    "1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n"
  in
  let nl = load (preamble ^ src) in
  let f = Flow.analyse nl in
  Alcotest.(check bool) "stable cone" true (Flow.cls f (net_id nl "X") = Flow.Stable);
  (* a case mapping on EN demotes it and its entire cone *)
  let f' = Flow.analyse ~case_nets:[ net_id nl "EN .S0-8" ] nl in
  Alcotest.(check bool) "case-mapped net demoted" true
    (Flow.cls f' (net_id nl "EN .S0-8") = Flow.Data []);
  Alcotest.(check bool) "its cone demoted" true
    (Flow.cls f' (net_id nl "X") = Flow.Data [])

let test_copy_preserves_classes () =
  let nl = Test_par.netgen_nl 1 in
  let f = Flow.analyse nl in
  let f2 = Flow.analyse (Netlist.copy nl) in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      if Flow.cls f id <> Flow.cls f2 id then
        Alcotest.failf "class of %s differs on the copy" n.Netlist.n_name)

let test_every_net_classified () =
  let nl = Test_par.netgen_nl 1 in
  let c, s, ck, d, u = Flow.class_counts (Flow.analyse nl) in
  Alcotest.(check int) "every net classified" (Netlist.n_nets nl) (c + s + ck + d + u)

(* ---- the class listing and the verifier ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let example name = load (read_file (Printf.sprintf "../examples/%s.sdl" name))

(* What [scald_tv --classes] prints. *)
let test_classes_golden name () =
  let actual = Format.asprintf "%a@." Flow.pp_classes (Flow.analyse (example name)) in
  let golden = read_file (Printf.sprintf "golden/%s_classes.txt" name) in
  Alcotest.(check string) (name ^ " class listing snapshot") golden actual

(* Verification reads no signal classes, and no arrival windows unless
   it merges cases: a probed run records neither analysis. *)
let test_verify_runs_no_flow () =
  let nl = example "s1_subset" in
  let cases = Case_analysis.parse_exn (read_file "../examples/s1_subset.cases") in
  let spans = ref [] in
  let probe =
    {
      Verifier.pr_span =
        (fun name f ->
          spans := name :: !spans;
          f ());
      pr_event = None;
    }
  in
  ignore (Verifier.verify ~probe ~cases nl);
  Alcotest.(check bool) "no window span" false (List.mem "window" !spans);
  Alcotest.(check bool) "no flow span" false (List.mem "flow" !spans)

(* ---- handed-in analyses ------------------------------------------------------- *)

(* With a schedule, signal classes and a window table handed in through
   [~analysis] and [~window] (as ledger/main.ml's traced run does), the
   verdicts equal those of a plain run, at -j 1 and at -j 4. *)
let properties =
  [
    prop "handed-in analyses preserve verdicts across jobs"
      QCheck.(int_range 1 1000)
      (fun seed ->
        let nl = Test_par.netgen_nl seed in
        let cases = Test_par.netgen_cases nl in
        let plain = Verifier.verify ~cases nl in
        let case_nets =
          List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases
        in
        let sched = Sched.compute nl in
        let analysis = (sched, Flow.analyse ~sched ~case_nets nl) in
        let window = Window.analyse ~sched ~case_nets nl in
        List.for_all
          (fun jobs ->
            Test_window.verdicts_equal plain
              (Verifier.verify ~cases ~jobs ~analysis ~window nl))
          [ 1; 4 ]);
  ]

let suite =
  [
    Alcotest.test_case "clock classes and gating" `Quick test_clock_classes;
    Alcotest.test_case "data and stable classes" `Quick test_data_and_stable_classes;
    Alcotest.test_case "cycles are never stable" `Quick test_cyclic_not_stable;
    Alcotest.test_case "case-net demotion" `Quick test_case_net_demotion;
    Alcotest.test_case "Netlist.copy preserves classes" `Quick
      test_copy_preserves_classes;
    Alcotest.test_case "every net classified" `Quick test_every_net_classified;
    Alcotest.test_case "s1_subset class listing snapshot" `Quick
      (test_classes_golden "s1_subset");
    Alcotest.test_case "cdc class listing snapshot" `Quick (test_classes_golden "cdc");
    Alcotest.test_case "vacuous class listing snapshot" `Quick
      (test_classes_golden "vacuous");
    Alcotest.test_case "verification runs no flow analysis" `Quick
      test_verify_runs_no_flow;
  ]
  @ properties
