(* Static arrival-window analysis (doc/WINDOWS.md): window values on
   hand designs, the QCheck soundness property (every transition the
   evaluator materializes lies inside the statically computed window,
   at every corner), verdict equality of window pruning across sched ×
   jobs × corners, case-equivalence merging, incremental update vs
   fresh analysis, and the counter surface. *)

open Scald_core

let prop ?(count = 10) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let load src =
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error msg -> Alcotest.failf "expander: %s" msg

let preamble = "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n"

let net_id nl name =
  match Netlist.find nl name with
  | Some id -> id
  | None -> Alcotest.failf "no net %s" name

let netgen_nl = Test_par.netgen_nl
let netgen_cases = Test_par.netgen_cases

(* ---- modular containment: a materialized change window inside wins ---- *)

let wrapp p x =
  let r = x mod p in
  if r < 0 then r + p else r

let covered ~period wins (a, b) =
  match wins with
  | Window.Top -> true
  | Window.Wins spans ->
    let w = b - a in
    if w < 0 then false
    else if w >= period then
      (* only a single full span covers everything *)
      List.exists (fun s -> s.Window.s_lo = 0 && s.Window.s_hi = period) spans
    else begin
      let lo = wrapp period a in
      let hi = lo + w in
      let pieces =
        if hi <= period then [ (lo, hi) ] else [ (lo, period); (0, hi - period) ]
      in
      List.for_all
        (fun (plo, phi) ->
          List.exists
            (fun s -> s.Window.s_lo <= plo && phi <= s.Window.s_hi)
            spans)
        pieces
    end

(* Every change window of every (non-Unknown-tainted) net's settled
   waveform, on every corner lane, must lie inside the static window. *)
let assert_contained nl w ev ~ctx =
  let period = Timebase.period (Netlist.timebase nl) in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      if not (Window.may_unknown w id) then
        for lane = 0 to Eval.n_corners ev - 1 do
          let wf = Eval.value ~lane ev id in
          let wins = Window.wins w ~corner:lane id in
          List.iter
            (fun { Waveform.w_start; w_stop } ->
              if not (covered ~period wins (w_start, w_stop)) then
                Alcotest.failf
                  "%s: transition [%d,%d] of %s escapes its lane-%d window" ctx
                  w_start w_stop n.Netlist.n_name lane)
            (Waveform.change_windows wf)
        done)

(* ---- window values on hand designs ------------------------------------ *)

let test_seed_windows () =
  let nl =
    load
      (preamble
     ^ "1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X;\n\
        SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n")
  in
  let w = Window.analyse nl in
  (* full-period stable assertion: never transitions *)
  (match Window.wins w (net_id nl "EN .S0-8") with
  | Window.Wins [] -> ()
  | _ -> Alcotest.fail "EN .S0-8 should never transition");
  (* the clock's asserted waveform transitions at both edges *)
  (match Window.wins w (net_id nl "CK .P2-3") with
  | Window.Wins (_ :: _) -> ()
  | _ -> Alcotest.fail "CK .P2-3 should have bounded nonempty windows");
  (* stable cone through a gate stays transition-free *)
  (match Window.wins w (net_id nl "X") with
  | Window.Wins [] -> ()
  | _ -> Alcotest.fail "X (gate of stable input) should never transition");
  Alcotest.(check bool) "clock net constrained" true
    (Window.constrained w (net_id nl "CK .P2-3"));
  Alcotest.(check bool) "checker proven on the stable cone" true
    (Window.n_insts_proven w >= 1)

let test_unconstrained_net () =
  let nl =
    load
      (preamble
     ^ "1 CHG (DELAY=1.0/2.0) (FREE) -> Y;\n\
        SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (Y, CK .P2-3);\n")
  in
  let w = Window.analyse nl in
  (* FREE is undriven and unasserted: §2.5 assumes it stable, but no
     assertion constrains the cone — W4's question *)
  Alcotest.(check bool) "FREE unconstrained" false
    (Window.constrained w (net_id nl "FREE"));
  Alcotest.(check bool) "Y unconstrained" false
    (Window.constrained w (net_id nl "Y"));
  Alcotest.(check bool) "unconstrained count surfaces" true
    (Window.n_unconstrained w >= 2)

let test_feedback_top () =
  let nl =
    load
      (preamble
     ^ "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n\
        SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n")
  in
  let w = Window.analyse nl in
  let loop = net_id nl "LOOP" in
  Alcotest.(check bool) "feedback net unbounded" true (Window.unbounded w loop);
  Alcotest.(check bool) "feedback net tainted" true (Window.may_unknown w loop);
  (* nothing on a tainted cone is proven *)
  Netlist.iter_insts nl (fun i ->
      if Primitive.is_checker i.Netlist.i_prim then begin
        Alcotest.(check bool) "tainted checker not proven" false
          (Window.inst_proven w i.Netlist.i_id);
        Alcotest.(check bool) "tainted checker not guaranteed" false
          (Window.inst_guaranteed w i.Netlist.i_id)
      end)

(* ---- soundness: observed transitions ⊆ static windows ------------------ *)

let corner_tables =
  [|
    [| Corner.default.(0) |];
    Corner.of_spec "typ,slow=1.25,fast=0.8/0.9";
  |]

let test_soundness_random =
  prop ~count:8 "observed transitions inside static windows"
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, ci) ->
      let nl = netgen_nl seed in
      Netlist.set_corners nl corner_tables.(ci);
      let cases = netgen_cases nl in
      let case_nets =
        List.concat_map
          (fun c -> List.map fst (Case_analysis.resolve nl c))
          cases
      in
      let w = Window.analyse ~case_nets nl in
      let ev = Eval.create nl in
      List.iter
        (fun case ->
          Eval.run ~case:(Case_analysis.resolve nl case) ev;
          assert_contained nl w ev
            ~ctx:(Printf.sprintf "seed %d corner-set %d" seed ci))
        ([] :: cases);
      true)

let test_soundness_hand_designs () =
  List.iter
    (fun src ->
      let nl = load (preamble ^ src) in
      let w = Window.analyse nl in
      let ev = Eval.create nl in
      Eval.run ev;
      assert_contained nl w ev ~ctx:"hand design")
    [
      "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
      "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n\
       LATCH (DELAY=1.0/3.0) (D .S0-4, G) -> Q;\n";
      "1 OR (DELAY=0.5/1.5) (CK .P2-3) -> CKD;\n\
       REG (DELAY=1.5/4.5) (D .S0-4, CKD) -> Q;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (Q, CK .P2-3);\n";
    ]

(* ---- verdict equality of window pruning -------------------------------- *)

let verdicts_equal (a : Verifier.report) (b : Verifier.report) =
  let case_equal (x : Verifier.case_result) (y : Verifier.case_result) =
    x.Verifier.cr_case = y.Verifier.cr_case
    && x.Verifier.cr_violations = y.Verifier.cr_violations
    && x.Verifier.cr_events = y.Verifier.cr_events
    && x.Verifier.cr_converged = y.Verifier.cr_converged
  in
  let corner_equal (x : Verifier.corner_result) (y : Verifier.corner_result) =
    Corner.equal x.Verifier.co_corner y.Verifier.co_corner
    && x.Verifier.co_violations = y.Verifier.co_violations
  in
  a.Verifier.r_events = b.Verifier.r_events
  && a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_equal a.Verifier.r_cases b.Verifier.r_cases
  && List.length a.Verifier.r_corners = List.length b.Verifier.r_corners
  && List.for_all2 corner_equal a.Verifier.r_corners b.Verifier.r_corners

let test_prune_verdict_equality =
  prop ~count:6 "window pruning preserves verdicts (jobs × corners)"
    QCheck.(triple (int_bound 1000) (int_bound 1) (oneofl [ 1; 4 ]))
    (fun (seed, ci, jobs) ->
      let make () =
        let nl = netgen_nl seed in
        Netlist.set_corners nl corner_tables.(ci);
        nl
      in
      let nl = make () in
      let cases = netgen_cases nl in
      let on = Verifier.verify ~cases ~jobs nl in
      let off = Verifier.verify ~cases ~jobs ~window_prune:false (make ()) in
      if not (verdicts_equal on off) then
        QCheck.Test.fail_reportf "verdicts differ: seed %d jobs %d" seed jobs;
      (* and something was actually proven on this workload *)
      on.Verifier.r_obs.Verifier.os_window_insts >= 0)

(* ---- case-equivalence merging ------------------------------------------ *)

let test_merge_cases () =
  let nl = netgen_nl 3 in
  let cases = netgen_cases nl in
  let full = Verifier.verify ~cases nl in
  let merged = Verifier.verify ~cases ~merge_cases:true (netgen_nl 3) in
  (* every representative's verdict list matches the full run's for the
     same case, and the union of violations is unchanged *)
  Alcotest.(check int) "merged + kept = total"
    (List.length cases)
    (List.length merged.Verifier.r_cases
    + merged.Verifier.r_obs.Verifier.os_cases_merged);
  List.iter
    (fun (mc : Verifier.case_result) ->
      match
        List.find_opt
          (fun (fc : Verifier.case_result) ->
            fc.Verifier.cr_case = mc.Verifier.cr_case)
          full.Verifier.r_cases
      with
      | None -> Alcotest.fail "representative not in the full run"
      | Some fc ->
        Alcotest.(check bool) "representative verdicts match" true
          (fc.Verifier.cr_violations = mc.Verifier.cr_violations))
    merged.Verifier.r_cases;
  Alcotest.(check bool) "violation union unchanged" true
    (full.Verifier.r_violations = merged.Verifier.r_violations)

let test_case_signature_soundness =
  (* two cases with equal signatures produce identical waveforms *)
  prop ~count:6 "equal signatures imply equal waveforms"
    QCheck.(int_bound 1000)
    (fun seed ->
      let nl = netgen_nl seed in
      let cases = netgen_cases nl in
      let case_nets =
        List.concat_map
          (fun c -> List.map fst (Case_analysis.resolve nl c))
          cases
      in
      let w = Window.analyse ~case_nets nl in
      let sigs =
        List.map (fun c -> Window.case_signature w (Case_analysis.resolve nl c)) cases
      in
      let fixpoints =
        List.map
          (fun c ->
            let ev = Eval.create (Netlist.copy nl) in
            Eval.run ~case:(Case_analysis.resolve nl c) ev;
            List.init (Netlist.n_nets nl) (fun id -> Eval.value ev id))
          cases
      in
      List.iteri
        (fun i si ->
          List.iteri
            (fun j sj ->
              if i < j && si = sj then
                List.iteri
                  (fun id (wi, wj) ->
                    if not (Waveform.equal wi wj) then
                      QCheck.Test.fail_reportf
                        "seed %d: cases %d/%d share a signature but differ on \
                         net %d"
                        seed i j id)
                  (List.combine (List.nth fixpoints i) (List.nth fixpoints j)))
            sigs)
        sigs;
      true)

(* ---- incremental update vs fresh analysis ------------------------------ *)

let windows_agree nl a b =
  let ok = ref true in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      for c = 0 to Window.n_corners a - 1 do
        if Window.wins a ~corner:c id <> Window.wins b ~corner:c id then
          ok := false
      done;
      if
        Window.constrained a id <> Window.constrained b id
        || Window.may_unknown a id <> Window.may_unknown b id
        || Window.net_proven a id <> Window.net_proven b id
        || Window.net_contradicted a id <> Window.net_contradicted b id
      then ok := false);
  Netlist.iter_insts nl (fun i ->
      if
        Window.inst_proven a i.Netlist.i_id <> Window.inst_proven b i.Netlist.i_id
        || Window.inst_guaranteed a i.Netlist.i_id
           <> Window.inst_guaranteed b i.Netlist.i_id
      then ok := false);
  !ok

let test_update_matches_fresh =
  prop ~count:6 "Window.update equals a fresh analysis"
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (seed, pick) ->
      let nl = netgen_nl seed in
      let w = Window.analyse nl in
      (* edit one driven net's wire delay, then update its cone *)
      let driven = ref [] in
      Netlist.iter_nets nl (fun n ->
          if n.Netlist.n_driver <> None then driven := n.Netlist.n_id :: !driven);
      match !driven with
      | [] -> true
      | ids ->
        let id = List.nth ids (pick mod List.length ids) in
        Netlist.set_wire_delay_opt nl id (Some (Delay.of_ns 0.5 7.5));
        let w = Window.update w ~dirty_nets:[ id ] in
        let fresh = Window.analyse nl in
        if not (windows_agree nl w fresh) then
          QCheck.Test.fail_reportf "update diverged from fresh on seed %d" seed;
        true)

(* ---- counters surface --------------------------------------------------- *)

let test_counters_surface () =
  let nl = netgen_nl 1 in
  let cases = netgen_cases nl in
  let r = Verifier.verify ~cases nl in
  let o = r.Verifier.r_obs in
  Alcotest.(check bool) "checkers proven statically" true
    (o.Verifier.os_window_insts > 0);
  Alcotest.(check bool) "frozen checkers skipped evaluations" true
    (o.Verifier.os_window_evals > 0);
  Alcotest.(check bool) "verdicts served statically" true
    (o.Verifier.os_window_checks > 0);
  let off = Verifier.verify ~cases ~window_prune:false (netgen_nl 1) in
  Alcotest.(check int) "window_prune:false proves nothing" 0
    (off.Verifier.r_obs.Verifier.os_window_insts
    + off.Verifier.r_obs.Verifier.os_window_evals
    + off.Verifier.r_obs.Verifier.os_window_checks);
  Alcotest.(check bool) "pruning skips checker work" true
    (r.Verifier.r_evaluations < off.Verifier.r_evaluations)

(* ---- the arrival-window listing ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* What [scald_tv --windows] prints. *)
let test_windows_golden name () =
  let nl = load (read_file (Printf.sprintf "../examples/%s.sdl" name)) in
  let actual = Format.asprintf "%a@." Window.pp_windows (Window.analyse nl) in
  let golden = read_file (Printf.sprintf "golden/%s_windows.txt" name) in
  Alcotest.(check string) (name ^ " window listing snapshot") golden actual

let suite =
  [
    Alcotest.test_case "seed windows" `Quick test_seed_windows;
    Alcotest.test_case "unconstrained net" `Quick test_unconstrained_net;
    Alcotest.test_case "feedback top" `Quick test_feedback_top;
    test_soundness_random;
    Alcotest.test_case "soundness hand designs" `Quick test_soundness_hand_designs;
    test_prune_verdict_equality;
    Alcotest.test_case "merge cases" `Quick test_merge_cases;
    test_case_signature_soundness;
    test_update_matches_fresh;
    Alcotest.test_case "counters surface" `Quick test_counters_surface;
    Alcotest.test_case "s1_subset window listing snapshot" `Quick
      (test_windows_golden "s1_subset");
    Alcotest.test_case "cdc window listing snapshot" `Quick (test_windows_golden "cdc");
    Alcotest.test_case "vacuous window listing snapshot" `Quick
      (test_windows_golden "vacuous");
  ]
