(* Signal-class dataflow analysis (doc/FLOW.md): class inference on
   small designs, the case-net demotion, pruning soundness — identical
   verdicts with pruning on vs off across both scheduling disciplines
   and job counts — and Netlist.copy preserving the inferred classes. *)

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

let test_cyclic_not_pruned () =
  let d =
    flow_of
      "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n"
  in
  let nl, f = d in
  (* the feedback component settles to a non-stable class and its
     member instance must never be frozen *)
  (match cls d "LOOP" with
  | Flow.Const _ | Flow.Stable -> Alcotest.fail "cycle classified stable"
  | Flow.Data _ | Flow.Unknown | Flow.Clock _ -> ());
  let loop_driver =
    match (Netlist.net nl (net_id nl "LOOP")).Netlist.n_driver with
    | Some i -> i
    | None -> Alcotest.fail "LOOP undriven"
  in
  Alcotest.(check bool) "cyclic instance not prunable" false
    (Flow.prunable f loop_driver)

let test_prunable_and_demotion () =
  let src =
    "1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n"
  in
  let nl = load (preamble ^ src) in
  let f = Flow.analyse nl in
  let chg =
    match (Netlist.net nl (net_id nl "X")).Netlist.n_driver with
    | Some i -> i
    | None -> Alcotest.fail "X undriven"
  in
  Alcotest.(check bool) "stable-cone gate prunable" true (Flow.prunable f chg);
  (* checkers are always prunable: their evaluation computes nothing *)
  Netlist.iter_insts nl (fun i ->
      if not (Primitive.has_output i.Netlist.i_prim) then
        Alcotest.(check bool) "checker prunable" true
          (Flow.prunable f i.Netlist.i_id));
  (* a case mapping on EN un-freezes its entire cone *)
  let f' = Flow.analyse ~case_nets:[ net_id nl "EN .S0-8" ] nl in
  Alcotest.(check bool) "case-mapped net demoted" true
    (Flow.cls f' (net_id nl "EN .S0-8") = Flow.Data []);
  Alcotest.(check bool) "its consumer no longer prunable" false
    (Flow.prunable f' chg);
  Alcotest.(check bool) "fewer instances prunable under the demotion" true
    (Flow.n_prunable f' < Flow.n_prunable f)

let test_copy_preserves_classes () =
  let nl =
    (Netgen.to_netlist (Netgen.generate (Netgen.scaled ~chips:120 ())))
      .Scald_sdl.Expander.e_netlist
  in
  let f = Flow.analyse nl in
  let f2 = Flow.analyse (Netlist.copy nl) in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      if Flow.cls f id <> Flow.cls f2 id then
        Alcotest.failf "class of %s differs on the copy" n.Netlist.n_name);
  Alcotest.(check int) "same prunable count" (Flow.n_prunable f)
    (Flow.n_prunable f2)

(* ---- pruning soundness --------------------------------------------------------- *)

(* Pruning must not change the verdict: violations, per-case events and
   convergence flags are bit-identical with pruning on vs off; only the
   work counters (evaluations, queue traffic) may differ. *)
let verdicts_equal (a : Verifier.report) (b : Verifier.report) =
  let case_equal (x : Verifier.case_result) (y : Verifier.case_result) =
    x.Verifier.cr_case = y.Verifier.cr_case
    && x.Verifier.cr_violations = y.Verifier.cr_violations
    && x.Verifier.cr_events = y.Verifier.cr_events
    && x.Verifier.cr_converged = y.Verifier.cr_converged
  in
  a.Verifier.r_events = b.Verifier.r_events
  && a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_equal a.Verifier.r_cases b.Verifier.r_cases

let netgen_nl seed =
  (Netgen.to_netlist (Netgen.generate (Netgen.scaled ~seed ~chips:120 ())))
    .Scald_sdl.Expander.e_netlist

let netgen_cases nl =
  let inputs = ref [] in
  Netlist.iter_nets nl (fun n ->
      if List.length !inputs < 2
         && String.length n.Netlist.n_name >= 3
         && String.sub n.Netlist.n_name 0 3 = "IN "
      then inputs := n.Netlist.n_name :: !inputs);
  Case_analysis.complete_exn (List.rev !inputs)

let test_prune_counters_surface () =
  let nl = netgen_nl 1 in
  let cases = netgen_cases nl in
  (* window pruning off: this test isolates the flow-pruning counters
     (window-frozen checkers would otherwise absorb the skipped enqueues
     into os_window_evals — see test_window.ml) *)
  let r = Verifier.verify ~cases ~window_prune:false nl in
  Alcotest.(check bool) "instances were frozen" true
    (r.Verifier.r_obs.Verifier.os_pruned_insts > 0);
  Alcotest.(check bool) "evaluations were skipped" true
    (r.Verifier.r_obs.Verifier.os_pruned_evals > 0);
  let total_nets =
    r.Verifier.r_obs.Verifier.os_nets_const
    + r.Verifier.r_obs.Verifier.os_nets_stable
    + r.Verifier.r_obs.Verifier.os_nets_clock
    + r.Verifier.r_obs.Verifier.os_nets_data
    + r.Verifier.r_obs.Verifier.os_nets_unknown
  in
  Alcotest.(check int) "every net classified" (Netlist.n_nets nl) total_nets;
  let off = Verifier.verify ~cases ~prune:false ~window_prune:false nl in
  Alcotest.(check int) "prune:false freezes nothing" 0
    (off.Verifier.r_obs.Verifier.os_pruned_insts
    + off.Verifier.r_obs.Verifier.os_pruned_evals);
  Alcotest.(check bool) "pruning skips real work" true
    (r.Verifier.r_evaluations < off.Verifier.r_evaluations)

let properties =
  [
    prop "pruning preserves verdicts across jobs"
      QCheck.(int_range 1 1000)
      (fun seed ->
        let nl = netgen_nl seed in
        let cases = netgen_cases nl in
        let off = Verifier.verify ~cases ~prune:false nl in
        List.for_all
          (fun jobs -> verdicts_equal off (Verifier.verify ~cases ~jobs nl))
          [ 1; 4 ]);
  ]

let suite =
  [
    Alcotest.test_case "clock classes and gating" `Quick test_clock_classes;
    Alcotest.test_case "data and stable classes" `Quick test_data_and_stable_classes;
    Alcotest.test_case "cycles never pruned" `Quick test_cyclic_not_pruned;
    Alcotest.test_case "prunable set and case-net demotion" `Quick
      test_prunable_and_demotion;
    Alcotest.test_case "Netlist.copy preserves classes" `Quick
      test_copy_preserves_classes;
    Alcotest.test_case "pruning counters surface in r_obs" `Quick
      test_prune_counters_surface;
  ]
  @ properties
