(* §4.2.4 extension: probability-based analysis, and the §4.2.3 CORR
   advisor. *)

open Scald_core
module Dist = Prob_analysis.Dist

let make_nl () =
  Netlist.create
    (Timebase.make ~period_ns:100.0 ~clock_unit_ns:10.0)
    ~default_wire_delay:Delay.zero

let buf delay = Primitive.Buf { invert = false; delay }

(* a chain of n buffers from an asserted input to a checker sink *)
let chain n delay =
  let nl = make_nl () in
  let input = Netlist.signal nl "IN .S0-10" in
  let rec go i current =
    if i = n then current
    else begin
      let next = Netlist.signal nl (Printf.sprintf "N%d" i) in
      ignore (Netlist.add nl (buf delay) ~inputs:[ Netlist.conn current ] ~output:(Some next));
      go (i + 1) next
    end
  in
  let out = go 0 input in
  ignore
    (Netlist.add nl
       (Primitive.Setup_hold_check { setup = 0; hold = 0 })
       ~inputs:[ Netlist.conn out; Netlist.conn input ]
       ~output:None);
  (nl, input, out)

let test_dist_of_delay () =
  let d = Dist.of_delay (Delay.of_ns 1.0 4.0) in
  Alcotest.(check (float 1e-6)) "mean at midpoint" 2500. d.Dist.mean;
  Alcotest.(check (float 1e-6)) "sigma = range/6" 500. (sqrt d.Dist.variance)

let test_dist_add_uncorrelated () =
  let d = Dist.of_delay (Delay.of_ns 1.0 4.0) in
  let s = Dist.add d d in
  Alcotest.(check (float 1e-6)) "means add" 5000. s.Dist.mean;
  (* variances add: sigma grows by sqrt 2, not 2 *)
  Alcotest.(check (float 1e-3)) "sigma sqrt2" (500. *. sqrt 2.) (sqrt s.Dist.variance)

let test_dist_add_fully_correlated () =
  let d = Dist.of_delay (Delay.of_ns 1.0 4.0) in
  let s = Dist.add ~correlation:1.0 d d in
  Alcotest.(check (float 1e-3)) "sigma doubles" 1000. (sqrt s.Dist.variance)

let test_quantile () =
  let d = { Dist.mean = 1000.; variance = 10000. } in
  Alcotest.(check (float 1e-6)) "3 sigma" 1300. (Dist.quantile d ~z:3.

)

let test_uncorrelated_beats_minmax () =
  (* §1.4.1.1: "a real design usually could be made to run faster than
     [the min/max] system will predict" — for a 10-element chain the
     3-sigma quantile is well below the sum of maxima. *)
  let nl, _, _ = chain 10 (Delay.of_ns 1.0 4.0) in
  let r = Prob_analysis.analyze nl in
  let minmax = Prob_analysis.minmax_cycle_ns r in
  let prob = Prob_analysis.predicted_cycle_ns r ~z:3.0 in
  Alcotest.(check (float 1e-6)) "minmax = 10 * 4" 40.0 minmax;
  Alcotest.(check bool)
    (Printf.sprintf "3-sigma %.2f < minmax %.2f" prob minmax)
    true (prob < minmax);
  (* mean 2.5 each: 25 + 3 * 0.5 * sqrt 10 = 29.74 *)
  Alcotest.(check (float 0.01)) "analytic value" (25. +. (3. *. 0.5 *. sqrt 10.)) prob

let test_fully_correlated_equals_minmax () =
  (* §4.2.4: with components from one production run the correlated
     prediction converges to the min/max bound. *)
  let nl, _, _ = chain 10 (Delay.of_ns 1.0 4.0) in
  let r = Prob_analysis.analyze ~correlation:1.0 nl in
  let prob = Prob_analysis.predicted_cycle_ns r ~z:3.0 in
  Alcotest.(check (float 0.01)) "3-sigma = sum of maxima" 40.0 prob

let test_correlation_bounds () =
  match Prob_analysis.analyze ~correlation:1.5 (make_nl ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "correlation > 1 should be rejected"

(* NaN fails every comparison, so a range check written as two
   rejections would let it through. *)
let test_correlation_nan () =
  match Prob_analysis.analyze ~correlation:Float.nan (make_nl ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a NaN correlation should be rejected"

(* ---- CORR advisor ----------------------------------------------------------- *)

let test_advisor_flags_feedback () =
  let fb = Scald_cells.Circuits.correlation_example ~corr_delay_ns:0. in
  let advice = Path_analysis.Corr.advise fb.Scald_cells.Circuits.fb_netlist in
  match advice with
  | [ a ] ->
    Alcotest.(check string) "destination" "FEEDBACK REG" a.Path_analysis.Corr.a_register;
    (* clock spread: buffer 1.0/5.0 ns = 4 ns of uncertainty *)
    Alcotest.(check int) "clock spread 4 ns" 4_000 a.Path_analysis.Corr.a_clock_spread;
    Alcotest.(check int) "hold 1.5 ns" 1_500 a.Path_analysis.Corr.a_hold;
    (* min path: reg 1.5 + mux 1.2 = 2.7 -> required 4 + 1.5 - 2.7 = 2.8 *)
    Alcotest.(check int) "required delay" 2_800 a.Path_analysis.Corr.a_required_delay
  | l -> Alcotest.failf "expected one advice, got %d" (List.length l)

let test_advisor_satisfied_with_corr () =
  let fb = Scald_cells.Circuits.correlation_example ~corr_delay_ns:4.0 in
  Alcotest.(check int) "no advice needed" 0
    (List.length (Path_analysis.Corr.advise fb.Scald_cells.Circuits.fb_netlist))

let test_advisor_recommendation_suffices () =
  (* applying exactly the recommended delay removes the false error *)
  let fb0 = Scald_cells.Circuits.correlation_example ~corr_delay_ns:0. in
  match Path_analysis.Corr.advise fb0.Scald_cells.Circuits.fb_netlist with
  | [ a ] ->
    let ns = Timebase.ns_of_ps a.Path_analysis.Corr.a_required_delay in
    let fb1 = Scald_cells.Circuits.correlation_example ~corr_delay_ns:ns in
    let report = Verifier.verify fb1.Scald_cells.Circuits.fb_netlist in
    Alcotest.(check int) "false error suppressed" 0
      (List.length (Verifier.violations_of_kind Check.Hold_violation report))
  | _ -> Alcotest.fail "expected one advice"

let test_clock_spread () =
  let fb = Scald_cells.Circuits.correlation_example ~corr_delay_ns:0. in
  let nl = fb.Scald_cells.Circuits.fb_netlist in
  match Netlist.find nl "REG CK" with
  | Some id ->
    Alcotest.(check int) "buffered clock spread" 4_000 (Path_analysis.Corr.clock_spread nl id)
  | None -> Alcotest.fail "REG CK missing"

let suite =
  [
    Alcotest.test_case "dist of delay" `Quick test_dist_of_delay;
    Alcotest.test_case "dist add uncorrelated" `Quick test_dist_add_uncorrelated;
    Alcotest.test_case "dist add fully correlated" `Quick test_dist_add_fully_correlated;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "uncorrelated beats minmax" `Quick test_uncorrelated_beats_minmax;
    Alcotest.test_case "fully correlated equals minmax" `Quick
      test_fully_correlated_equals_minmax;
    Alcotest.test_case "correlation bounds" `Quick test_correlation_bounds;
    Alcotest.test_case "correlation NaN rejected" `Quick test_correlation_nan;
    Alcotest.test_case "advisor flags feedback" `Quick test_advisor_flags_feedback;
    Alcotest.test_case "advisor satisfied with CORR" `Quick test_advisor_satisfied_with_corr;
    Alcotest.test_case "advisor recommendation suffices" `Quick
      test_advisor_recommendation_suffices;
    Alcotest.test_case "clock spread" `Quick test_clock_spread;
  ]
