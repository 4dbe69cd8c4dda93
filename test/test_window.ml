(* Static arrival-window analysis (doc/WINDOWS.md): window values on
   hand designs, the QCheck soundness properties (every transition the
   evaluator materializes lies inside the statically computed window,
   at every corner, and no proven checker or assertion ever reports)
   and the [--windows] listing. *)

open Scald_core

let prop ?(count = 10) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let load src =
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error msg -> Alcotest.failf "expander: %s" msg

let preamble = "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let net_id nl name =
  match Netlist.find nl name with
  | Some id -> id
  | None -> Alcotest.failf "no net %s" name

let netgen_nl = Test_par.netgen_nl
let netgen_cases = Test_par.netgen_cases

(* ---- modular containment: a materialized change window inside wins ---- *)

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
      let lo = Timebase.wrap_period period a in
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

(* ---- proofs against the dynamic check ---------------------------------- *)

(* What lint rules W1 and W2 claim: a checker the analysis proves
   ([Window.inst_proven]) and a driven net whose stable assertion it
   proves ([Window.net_proven]) report nothing in any case, on any
   corner lane, of a plain evaluation.  The first verdict that
   contradicts a proof, if any.  A verdict names its checker by
   instance name, which macro expansion repeats, together with the
   checker's data and clock nets, whose names are unique. *)
let proof_broken nl cases =
  let case_nets =
    List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases
  in
  let w = Window.analyse ~case_nets nl in
  let net_name (c : Netlist.conn) = (Netlist.net nl c.Netlist.c_net).Netlist.n_name in
  let proven_insts = Hashtbl.create 64 and proven_nets = Hashtbl.create 64 in
  Netlist.iter_insts nl (fun i ->
      if Window.inst_proven w i.Netlist.i_id then
        let ins = i.Netlist.i_inputs in
        let clock = if Array.length ins > 1 then Some (net_name ins.(1)) else None in
        Hashtbl.replace proven_insts (i.Netlist.i_name, net_name ins.(0), clock) ());
  Netlist.iter_nets nl (fun n ->
      if Window.net_proven w n.Netlist.n_id then
        Hashtbl.replace proven_nets n.Netlist.n_name ());
  let proven (v : Check.t) =
    if v.Check.v_kind = Check.Stable_assertion_violation then
      Hashtbl.mem proven_nets v.Check.v_signal
    else Hashtbl.mem proven_insts (v.Check.v_inst, v.Check.v_signal, v.Check.v_clock)
  in
  let ev = Eval.create nl in
  List.find_map
    (fun case ->
      Eval.run ~case:(Case_analysis.resolve nl case) ev;
      List.find_map
        (fun lane ->
          Option.map
            (fun v -> Format.asprintf "lane %d: %a" lane Check.pp v)
            (List.find_opt proven (Eval.check ~lane ev)))
        (List.init (Eval.n_corners ev) Fun.id))
    ([] :: cases)

(* Netgen designs with two planted slow paths each, so every design has
   checkers that do report. *)
let test_proofs_hold_random =
  prop ~count:6 "window proofs hold in every case and lane"
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, ci) ->
      let nl =
        (Netgen.to_netlist
           (Netgen.generate (Netgen.scaled ~seed ~broken_registers:2 ~chips:120 ())))
          .Scald_sdl.Expander.e_netlist
      in
      Netlist.set_corners nl corner_tables.(ci);
      match proof_broken nl (netgen_cases nl) with
      | None -> true
      | Some v ->
        QCheck.Test.fail_reportf "seed %d corner-set %d: proven clean, yet %s" seed ci v)

(* The examples add what netgen designs lack: driven asserted nets, one
   of them contradicted (W5), and the s1 subset's case analysis. *)
let test_proofs_hold_examples () =
  List.iter
    (fun (name, cases) ->
      let nl = load (read_file ("../examples/" ^ name ^ ".sdl")) in
      let cases = Option.fold ~none:[] ~some:(fun f -> Case_analysis.parse_exn (read_file f)) cases in
      match proof_broken nl cases with
      | None -> ()
      | Some v -> Alcotest.failf "%s: proven clean, yet %s" name v)
    [
      ("s1_subset", Some "../examples/s1_subset.cases");
      ("cdc", None);
      ("vacuous", None);
      ("register_file", None);
      ("underconstrained", None);
    ]

(* Verdict equality of two reports, used across the test suite. *)
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

(* ---- the arrival-window listing ------------------------------------------- *)

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
    test_proofs_hold_random;
    Alcotest.test_case "window proofs hold on the examples" `Quick
      test_proofs_hold_examples;
    Alcotest.test_case "s1_subset window listing snapshot" `Quick
      (test_windows_golden "s1_subset");
    Alcotest.test_case "cdc window listing snapshot" `Quick (test_windows_golden "cdc");
    Alcotest.test_case "vacuous window listing snapshot" `Quick
      (test_windows_golden "vacuous");
  ]
