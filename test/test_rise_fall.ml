(* §4.2.2 extension: different rising and falling delays. *)

open Scald_core

let ps = Timebase.ps_of_ns
let period = ps 50.0
let tv = Alcotest.testable Tvalue.pp Tvalue.equal

let pulse ~from_ns ~to_ns =
  Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
    [ (ps from_ns, ps to_ns) ]

let test_delay_constructors () =
  let d = Delay.of_rise_fall_ns ~rise:(1.0, 2.0) ~fall:(3.0, 6.0) in
  (* the envelope covers both edges: consumers ignoring the refinement
     stay conservative *)
  Alcotest.(check int) "envelope min" (ps 1.0) d.Delay.dmin;
  Alcotest.(check int) "envelope max" (ps 6.0) d.Delay.dmax;
  Alcotest.(check bool) "refinement present" true (Delay.rise_fall d <> None)

let test_delay_add_composes_edges () =
  let d1 = Delay.of_rise_fall_ns ~rise:(1.0, 1.0) ~fall:(3.0, 3.0) in
  let d2 = Delay.of_rise_fall_ns ~rise:(2.0, 2.0) ~fall:(1.0, 1.0) in
  match Delay.rise_fall (Delay.add d1 d2) with
  | Some ((r1, r2), (f1, f2)) ->
    Alcotest.(check (pair int int)) "rise sums" (ps 3.0, ps 3.0) (r1, r2);
    Alcotest.(check (pair int int)) "fall sums" (ps 4.0, ps 4.0) (f1, f2)
  | None -> Alcotest.fail "refinement lost in add"

let test_pulse_stretches () =
  (* slow fall: a high pulse gets wider (late trailing edge) *)
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match
    Waveform.delay_rise_fall ~rise:(ps 2., ps 2.) ~fall:(ps 6., ps 6.) w
  with
  | Some d ->
    Alcotest.check tv "rises at 12" Tvalue.V1 (Waveform.value_at d (ps 13.));
    Alcotest.check tv "still high at 25" Tvalue.V1 (Waveform.value_at d (ps 25.));
    Alcotest.check tv "low at 27" Tvalue.V0 (Waveform.value_at d (ps 27.));
    (match Waveform.pulse_intervals Tvalue.V1 d with
    | [ (s, width) ] ->
      Alcotest.(check int) "starts at 12" (ps 12.) s;
      Alcotest.(check int) "width 14" (ps 14.) width
    | _ -> Alcotest.fail "expected one pulse")
  | None -> Alcotest.fail "clock waveform should be value-known"

let test_uncertain_edges_become_windows () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match
    Waveform.delay_rise_fall ~rise:(ps 1., ps 3.) ~fall:(ps 1., ps 3.) w
  with
  | Some d ->
    Alcotest.check tv "rise window" Tvalue.Rise (Waveform.value_at d (ps 12.));
    Alcotest.check tv "fall window" Tvalue.Fall (Waveform.value_at d (ps 22.))
  | None -> Alcotest.fail "should be value-known"

let test_rise_ends_as_fall_lands () =
  (* The delayed rise may finish as late as 20 ns, the instant the
     undelayed fall lands: from there on the level is the fall's. *)
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match Waveform.delay_rise_fall ~rise:(0, ps 10.) ~fall:(0, 0) w with
  | Some d ->
    Alcotest.(check (list (pair tv int)))
      "rise window, then low"
      [ (Tvalue.V0, ps 10.); (Tvalue.Rise, ps 10.); (Tvalue.V0, ps 30.) ]
      (Waveform.segments d)
  | None -> Alcotest.fail "clock waveform should be value-known"

let test_value_unknown_falls_back () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
      [ (0, ps 30.) ]
  in
  Alcotest.(check bool) "None for stable/changing signals" true
    (Waveform.delay_rise_fall ~rise:(ps 1., ps 1.) ~fall:(ps 2., ps 2.) w = None)

let test_inverter_chain_restores_width () =
  (* The classic nMOS case: two inverters in series with rise 1 ns and
     fall 3 ns.  Each stage shifts the pulse, but after an even number
     of inversions the width is restored exactly — which the envelope
     (symmetric worst-case) model cannot see. *)
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  let d_asym = Delay.of_rise_fall_ns ~rise:(1.0, 1.0) ~fall:(3.0, 3.0) in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let n1 = Netlist.signal nl "N1" in
  let n2 = Netlist.signal nl "N2" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = true; delay = d_asym })
       ~inputs:[ Netlist.conn ck ] ~output:(Some n1));
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = true; delay = d_asym })
       ~inputs:[ Netlist.conn n1 ] ~output:(Some n2));
  let ev = Eval.create nl in
  Eval.run ev;
  (* input pulse: high 12.5..18.75 (6.25 wide) *)
  (match Waveform.pulse_intervals Tvalue.V1 (Eval.value ev n1) with
  | [ (_, width) ] ->
    (* after one inversion the (low) phase width changed; the high phase
       of n1 is the complement pulse *)
    Alcotest.(check bool) "intermediate width differs" true (width <> ps 6.25)
  | _ -> Alcotest.fail "n1 pulse");
  match Waveform.pulse_intervals Tvalue.V1 (Eval.value ev n2) with
  | [ (s, width) ] ->
    Alcotest.(check int) "width restored after two inversions" (ps 6.25) width;
    (* both edges shifted by rise+fall = 4 ns *)
    Alcotest.(check int) "pulse shifted by 4 ns" (ps 16.5) s
  | _ -> Alcotest.fail "n2 pulse"

let test_envelope_is_pessimistic () =
  (* the same chain with the refinement stripped: the 2 ns spread per
     stage accumulates as skew and the guaranteed width shrinks *)
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  let d_env = Delay.of_ns 1.0 3.0 in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let n1 = Netlist.signal nl "N1" in
  let n2 = Netlist.signal nl "N2" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = true; delay = d_env })
       ~inputs:[ Netlist.conn ck ] ~output:(Some n1));
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = true; delay = d_env })
       ~inputs:[ Netlist.conn n1 ] ~output:(Some n2));
  let ev = Eval.create nl in
  Eval.run ev;
  let vs =
    Check.check_min_pulse_width ~inst:"MPW" ~signal:"N2" ~high:(ps 5.) ~low:0
      (Waveform.materialize (Eval.value ev n2))
  in
  Alcotest.(check bool) "envelope model flags a false runt" true (vs <> []);
  (* whereas the rise/fall-aware result keeps the full 6.25 ns *)
  let nl2 =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  let d_asym = Delay.of_rise_fall_ns ~rise:(1.0, 1.0) ~fall:(3.0, 3.0) in
  let ck2 = Netlist.signal nl2 "CK .P(0,0)2-3" in
  let m1 = Netlist.signal nl2 "M1" in
  let m2 = Netlist.signal nl2 "M2" in
  ignore
    (Netlist.add nl2
       (Primitive.Buf { invert = true; delay = d_asym })
       ~inputs:[ Netlist.conn ck2 ] ~output:(Some m1));
  ignore
    (Netlist.add nl2
       (Primitive.Buf { invert = true; delay = d_asym })
       ~inputs:[ Netlist.conn m1 ] ~output:(Some m2));
  let ev2 = Eval.create nl2 in
  Eval.run ev2;
  let vs2 =
    Check.check_min_pulse_width ~inst:"MPW" ~signal:"M2" ~high:(ps 5.) ~low:0
      (Eval.value ev2 m2)
  in
  Alcotest.(check (list string)) "rise/fall-aware is exact" []
    (List.map (fun (v : Check.t) -> Format.asprintf "%a" Check.pp v) vs2)

let test_sdl_rise_fall_props () =
  (* the default +-1 ns precision skew is folded into the edge windows
     when the per-edge delays apply, so the guaranteed high width is the
     nominal 6.25 ns minus one 2 ns window *)
  let src =
    "PERIOD 50.0;\nWIRE DELAY (CK .P2-3) = 0.0/0.0;\n\
     NOT (RISE=1.0/1.0, FALL=3.0/3.0) (CK .P2-3) -> N1;\n\
     NOT (RISE=1.0/1.0, FALL=3.0/3.0) (N1) -> N2;\nWIRE DELAY (N1) = 0.0/0.0;\n"
  in
  match Scald_sdl.Expander.load src with
  | Error e -> Alcotest.fail e
  | Ok e ->
    let nl = e.Scald_sdl.Expander.e_netlist in
    let ev = Eval.create nl in
    Eval.run ev;
    (match Netlist.find nl "N2" with
    | Some n2 -> (
      match Waveform.pulse_intervals Tvalue.V1 (Eval.value ev n2) with
      | [ (_, width) ] -> Alcotest.(check int) "guaranteed width" (ps 4.25) width
      | _ -> Alcotest.fail "expected one pulse")
    | None -> Alcotest.fail "N2 missing")

let suite =
  [
    Alcotest.test_case "delay constructors" `Quick test_delay_constructors;
    Alcotest.test_case "delay add composes edges" `Quick test_delay_add_composes_edges;
    Alcotest.test_case "pulse stretches" `Quick test_pulse_stretches;
    Alcotest.test_case "uncertain edges become windows" `Quick
      test_uncertain_edges_become_windows;
    Alcotest.test_case "rise ends as the fall lands" `Quick test_rise_ends_as_fall_lands;
    Alcotest.test_case "value-unknown falls back" `Quick test_value_unknown_falls_back;
    Alcotest.test_case "inverter chain restores width" `Quick
      test_inverter_chain_restores_width;
    Alcotest.test_case "envelope is pessimistic" `Quick test_envelope_is_pessimistic;
    Alcotest.test_case "sdl RISE/FALL props" `Quick test_sdl_rise_fall_props;
  ]
