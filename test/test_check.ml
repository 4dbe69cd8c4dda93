open Scald_core

let ps = Timebase.ps_of_ns
let period = ps 50.0

let pulse ?(skew = 0.) ~from_ns ~to_ns () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps from_ns, ps to_ns) ]
  in
  if skew = 0. then w else Waveform.with_skew ~early:(-(ps skew)) ~late:(ps skew) w

let stable ~from_ns ~to_ns =
  Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
    [ (ps from_ns, ps to_ns) ]

let kinds vs = List.map (fun (v : Check.t) -> v.Check.v_kind) vs

let kind = Alcotest.testable (Fmt.of_to_string Check.kind_name) ( = )

(* ---- setup / hold -------------------------------------------------------------- *)

let test_setup_hold_clean () =
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.5)
      ~hold:(ps 1.5)
      ~data:(stable ~from_ns:10. ~to_ns:40.)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check (list kind)) "clean" [] (kinds vs)

let test_setup_violated () =
  (* data stable only from 19: clock rises at 20, setup 2.5 -> margin 1.0 *)
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.5)
      ~hold:(ps 1.5)
      ~data:(stable ~from_ns:19. ~to_ns:40.)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  match vs with
  | [ v ] ->
    Alcotest.check kind "setup" Check.Setup_violation v.Check.v_kind;
    Alcotest.(check (option int)) "margin 1.0 ns" (Some (ps 1.0)) v.Check.v_actual;
    Alcotest.(check (option int)) "at the edge" (Some (ps 20.)) v.Check.v_at
  | _ -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_hold_violated () =
  (* data stops being stable at 21: hold needs 1.5 after the 20 edge *)
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.5)
      ~hold:(ps 1.5)
      ~data:(stable ~from_ns:10. ~to_ns:21.)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  match vs with
  | [ v ] ->
    Alcotest.check kind "hold" Check.Hold_violation v.Check.v_kind;
    Alcotest.(check (option int)) "margin 1.0 ns" (Some (ps 1.0)) v.Check.v_actual
  | _ -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_both_violated_when_changing_at_edge () =
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.5)
      ~hold:(ps 1.5)
      ~data:(stable ~from_ns:30. ~to_ns:45.)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check (list kind)) "both"
    [ Check.Setup_violation; Check.Hold_violation ]
    (kinds vs)

let test_clock_skew_widens_window () =
  (* with +-2 ns skew the edge window is [18, 22]: stable-from-19 data
     now also fails during the window *)
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.5)
      ~hold:(ps 1.5)
      ~data:(stable ~from_ns:19. ~to_ns:40.)
      ~ck:(pulse ~skew:2. ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check bool) "setup violated" true
    (List.mem Check.Setup_violation (kinds vs))

let test_negative_hold () =
  (* a -1.0 ns hold (as on the 10145A data inputs) narrows the window *)
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 4.5)
      ~hold:(ps (-1.0))
      ~data:(stable ~from_ns:10. ~to_ns:19.5)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  (* data unstable at 19.5 < 20, but hold window ends at 19: the hold
     check passes; setup fails (needs stable 15.5..20). *)
  Alcotest.(check (list kind)) "setup only" [ Check.Setup_violation ] (kinds vs)

let test_two_edges_checked () =
  let ck =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 10., ps 15.); (ps 30., ps 35.) ]
  in
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.)
      ~hold:(ps 2.)
      ~data:(stable ~from_ns:5. ~to_ns:20.)
      ~ck
  in
  (* the 30 ns edge sees changing data: setup and hold both fail there *)
  Alcotest.(check int) "two violations" 2 (List.length vs)

let test_undefined_clock () =
  let vs =
    Check.check_setup_hold ~inst:"R" ~signal:"D" ~clock:"CK" ~setup:(ps 2.)
      ~hold:(ps 2.)
      ~data:(stable ~from_ns:5. ~to_ns:20.)
      ~ck:(Waveform.const ~period Tvalue.Unknown)
  in
  Alcotest.(check (list kind)) "undefined clock" [ Check.Undefined_clock ] (kinds vs)

(* ---- setup rise / hold fall ------------------------------------------------------- *)

let test_rise_fall_clean () =
  let vs =
    Check.check_setup_rise_hold_fall ~inst:"M" ~signal:"A" ~clock:"WE" ~setup:(ps 3.5)
      ~hold:(ps 1.0)
      ~data:(stable ~from_ns:15. ~to_ns:35.)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check (list kind)) "clean" [] (kinds vs)

let test_rise_fall_stable_while_high () =
  (* data glitches while the write pulse is high *)
  let data =
    Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable
      [ (ps 24., ps 26.) ]
  in
  let vs =
    Check.check_setup_rise_hold_fall ~inst:"M" ~signal:"A" ~clock:"WE" ~setup:(ps 3.5)
      ~hold:(ps 1.0) ~data
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check bool) "stable-while-true violated" true
    (List.mem Check.Stable_high_violation (kinds vs))

let test_rise_fall_hold_after_fall () =
  (* data changes 0.5 ns after the falling edge: hold is 1.0 ns *)
  let vs =
    Check.check_setup_rise_hold_fall ~inst:"M" ~signal:"A" ~clock:"WE" ~setup:(ps 3.5)
      ~hold:(ps 1.0)
      ~data:(stable ~from_ns:15. ~to_ns:30.5)
      ~ck:(pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check (list kind)) "hold after fall" [ Check.Hold_violation ] (kinds vs)

(* ---- minimum pulse width ------------------------------------------------------------ *)

let test_min_pulse_ok () =
  let vs =
    Check.check_min_pulse_width ~inst:"P" ~signal:"WE" ~high:(ps 4.) ~low:(ps 3.)
      (pulse ~from_ns:20. ~to_ns:30. ())
  in
  Alcotest.(check (list kind)) "clean" [] (kinds vs)

let test_min_pulse_high_violated () =
  let vs =
    Check.check_min_pulse_width ~inst:"P" ~signal:"WE" ~high:(ps 4.) ~low:0
      (pulse ~from_ns:20. ~to_ns:23. ())
  in
  match vs with
  | [ v ] ->
    Alcotest.check kind "high width" Check.Min_high_width v.Check.v_kind;
    Alcotest.(check (option int)) "actual 3 ns" (Some (ps 3.)) v.Check.v_actual
  | _ -> Alcotest.fail "expected one violation"

let test_min_pulse_low_violated () =
  (* low from 30 to 32 between two pulses *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 20., ps 30.); (ps 32., ps 40.) ]
  in
  let vs = Check.check_min_pulse_width ~inst:"P" ~signal:"WE" ~high:0 ~low:(ps 3.) w in
  Alcotest.(check (list kind)) "low runt" [ Check.Min_low_width ] (kinds vs)

let test_min_pulse_skew_separate () =
  (* §2.8: a common skew does not narrow the pulse *)
  let w = pulse ~skew:2. ~from_ns:20. ~to_ns:25. () in
  let vs = Check.check_min_pulse_width ~inst:"P" ~signal:"WE" ~high:(ps 4.5) ~low:0 w in
  Alcotest.(check (list kind)) "no false error" [] (kinds vs);
  let folded = Waveform.materialize w in
  let vs2 =
    Check.check_min_pulse_width ~inst:"P" ~signal:"WE" ~high:(ps 4.5) ~low:0 folded
  in
  Alcotest.(check (list kind)) "folded is pessimistic" [ Check.Min_high_width ] (kinds vs2)

(* ---- hazards -------------------------------------------------------------------------- *)

let test_hazard () =
  let clock = pulse ~from_ns:20. ~to_ns:30. () in
  let changing_ctl = stable ~from_ns:25. ~to_ns:10. in
  let vs =
    Check.check_stable_while ~inst:"G" ~signal:"ENABLE" ~clock:"CLOCK" ~gate_wf:clock
      changing_ctl
  in
  Alcotest.(check (list kind)) "hazard" [ Check.Hazard ] (kinds vs);
  let stable_ctl = stable ~from_ns:15. ~to_ns:35. in
  let vs2 =
    Check.check_stable_while ~inst:"G" ~signal:"ENABLE" ~clock:"CLOCK" ~gate_wf:clock
      stable_ctl
  in
  Alcotest.(check (list kind)) "no hazard" [] (kinds vs2)

(* ---- stable assertions ------------------------------------------------------------------ *)

let test_stable_assertion () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  let a =
    match Assertion.parse "S2-6" with Ok a -> a | Error e -> Alcotest.fail e
  in
  (* computed waveform stable 12.5..37.5 exactly meets the assertion *)
  let good = stable ~from_ns:12.5 ~to_ns:37.5 in
  Alcotest.(check (list kind)) "meets assertion" []
    (kinds (Check.check_stable_assertion ~signal:"X" ~tb a good));
  let bad = stable ~from_ns:20. ~to_ns:37.5 in
  Alcotest.(check (list kind)) "violates assertion" [ Check.Stable_assertion_violation ]
    (kinds (Check.check_stable_assertion ~signal:"X" ~tb a bad))

(* A range is taken modulo the cycle: on an 8-unit cycle [.S7-1] (and
   [.S15-1], whose stop lies more than a cycle back) is [.S7-9], stable
   from 43.75 ns through the wrap to 6.25 ns.  A buffer delaying an
   input stable 0-37.5 ns by 1-2 ns changes until 2 ns into the next
   cycle, so each form is violated once: 12.5 ns required at 43.75 ns. *)
let test_stable_assertion_wraps () =
  let verdicts spec =
    let src =
      Printf.sprintf
        "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/0.0;\n\
         BUF (DELAY=1.0/2.0) (IN0 .S0-6) -> X .%s;\n"
        spec
    in
    match Scald_sdl.Expander.load src with
    | Error m -> Alcotest.fail m
    | Ok e ->
      (Verifier.verify e.Scald_sdl.Expander.e_netlist).Verifier.r_violations
      |> List.map (fun (v : Check.t) -> (v.Check.v_kind, v.v_required, v.v_at))
  in
  let expected = [ (Check.Stable_assertion_violation, ps 12.5, Some (ps 43.75)) ] in
  List.iter
    (fun spec ->
      Alcotest.(check bool) (spec ^ " violated once, as .S7-9") true (verdicts spec = expected))
    [ "S7-9"; "S7-1"; "S15-1" ]

let test_clock_assertion_not_checked () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  let a = match Assertion.parse "P2-3" with Ok a -> a | Error e -> Alcotest.fail e in
  Alcotest.(check (list kind)) "clocks skip the stability check" []
    (kinds
       (Check.check_stable_assertion ~signal:"X" ~tb a (Waveform.const ~period Tvalue.Change)))

let suite =
  [
    Alcotest.test_case "setup/hold clean" `Quick test_setup_hold_clean;
    Alcotest.test_case "setup violated with margin" `Quick test_setup_violated;
    Alcotest.test_case "hold violated with margin" `Quick test_hold_violated;
    Alcotest.test_case "both when changing at edge" `Quick test_both_violated_when_changing_at_edge;
    Alcotest.test_case "clock skew widens window" `Quick test_clock_skew_widens_window;
    Alcotest.test_case "negative hold" `Quick test_negative_hold;
    Alcotest.test_case "two edges checked" `Quick test_two_edges_checked;
    Alcotest.test_case "undefined clock" `Quick test_undefined_clock;
    Alcotest.test_case "rise/fall clean" `Quick test_rise_fall_clean;
    Alcotest.test_case "rise/fall stable while high" `Quick test_rise_fall_stable_while_high;
    Alcotest.test_case "rise/fall hold after fall" `Quick test_rise_fall_hold_after_fall;
    Alcotest.test_case "min pulse ok" `Quick test_min_pulse_ok;
    Alcotest.test_case "min pulse high violated" `Quick test_min_pulse_high_violated;
    Alcotest.test_case "min pulse low violated" `Quick test_min_pulse_low_violated;
    Alcotest.test_case "min pulse skew separate" `Quick test_min_pulse_skew_separate;
    Alcotest.test_case "hazard" `Quick test_hazard;
    Alcotest.test_case "stable assertion" `Quick test_stable_assertion;
    Alcotest.test_case "clock assertion not checked" `Quick test_clock_assertion_not_checked;
    Alcotest.test_case "stable assertion across the wrap" `Quick test_stable_assertion_wraps;
  ]
