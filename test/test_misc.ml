(* Smoke and edge-case coverage for the remaining public surfaces. *)

open Scald_core

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_verifier_pp () =
  let c = Scald_cells.Circuits.register_file_example () in
  let report = Verifier.verify c.Scald_cells.Circuits.rf_netlist in
  let s = Format.asprintf "%a" Verifier.pp report in
  Alcotest.(check bool) "header" true (contains s "TIMING VERIFICATION REPORT");
  Alcotest.(check bool) "case line" true (contains s "case 1");
  Alcotest.(check bool) "queue stats rendered" true
    (contains s "queue high-water mark:");
  Alcotest.(check bool) "cross reference" true (contains s "ASSUMED STABLE")

let test_prob_pp () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  let a = Netlist.signal nl "A .S0-6" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 4.0 })
       ~inputs:[ Netlist.conn a ] ~output:(Some q));
  ignore
    (Netlist.add nl
       (Primitive.Setup_hold_check { setup = 0; hold = 0 })
       ~inputs:[ Netlist.conn q; Netlist.conn a ]
       ~output:None);
  let r = Prob_analysis.analyze nl in
  let s = Format.asprintf "%a" Prob_analysis.pp r in
  Alcotest.(check bool) "header with rho" true (contains s "correlation 0.00");
  Alcotest.(check bool) "mean +- sigma" true (contains s "+-")

let test_modular_pp () =
  let section name =
    let nl = Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25) in
    ignore (Netlist.signal nl "IFACE .S0-6");
    { Modular.s_name = name; s_netlist = nl }
  in
  let r = Modular.verify [ section "a"; section "b" ] in
  let s = Format.asprintf "%a" Modular.pp r in
  Alcotest.(check bool) "sections listed" true (contains s "section a");
  Alcotest.(check bool) "verdict" true (contains s "free of timing errors")

let test_wire_rule_pp () =
  let r = Wire_rule.loaded ~base:(Delay.of_ns 0.0 1.0) ~per_load:(Delay.of_ns 0.1 0.5) in
  Alcotest.(check string) "render" "0.0/1.0 + 0.1/0.5 per extra load"
    (Format.asprintf "%a" Wire_rule.pp r)

let test_corr_advice_pp () =
  let fb = Scald_cells.Circuits.correlation_example ~corr_delay_ns:0. in
  match Path_analysis.Corr.advise fb.Scald_cells.Circuits.fb_netlist with
  | [ a ] ->
    let s = Format.asprintf "%a" Path_analysis.Corr.pp_advice a in
    Alcotest.(check bool) "mentions CORR" true (contains s "CORR");
    Alcotest.(check bool) "mentions the amount" true (contains s "2.8")
  | _ -> Alcotest.fail "expected one advice"

let test_vcd_idents_unique () =
  (* identifier codes must stay distinct past the 94-character base *)
  let nl =
    Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
  in
  for i = 0 to 199 do
    ignore (Netlist.signal nl (Printf.sprintf "N%d .S0-6" i))
  done;
  let ev = Eval.create nl in
  Eval.run ev;
  let s = Vcd.to_string ev in
  (* every declaration line is distinct *)
  let decls =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "$var")
  in
  Alcotest.(check int) "200 declarations" 200 (List.length decls);
  Alcotest.(check int) "all distinct" 200 (List.length (List.sort_uniq compare decls))

let test_diagram_ruler () =
  let c = Scald_cells.Circuits.register_file_example () in
  let report = Verifier.verify c.Scald_cells.Circuits.rf_netlist in
  let s = Format.asprintf "%a" (fun ppf -> Timing_diagram.pp ~columns:64 ppf)
      report.Verifier.r_eval in
  (* the ruler row carries ns labels *)
  Alcotest.(check bool) "zero label" true (contains s "0");
  Alcotest.(check bool) "a mid-cycle label" true (contains s "25")

let test_slack_critical_filter () =
  let c = Scald_cells.Circuits.register_file_example () in
  let report = Verifier.verify c.Scald_cells.Circuits.rf_netlist in
  let ev = report.Verifier.r_eval in
  let negative = Slack.critical ev ~below_ns:0.0 in
  Alcotest.(check int) "only the violations" 2 (List.length negative);
  let all = Slack.compute ev in
  let everything = Slack.critical ev ~below_ns:1000.0 in
  Alcotest.(check int) "wide bound keeps all" (List.length all) (List.length everything)

let test_netgen_cli_shape () =
  (* the generator's SDL is what the CLI writes: sanity-check its head *)
  let d = Netgen.generate (Netgen.scaled ~chips:120 ()) in
  let sdl = Netgen.to_sdl d in
  Alcotest.(check bool) "period statement" true (contains sdl "PERIOD 50.0;");
  Alcotest.(check bool) "macro library" true (contains sdl "MACRO REG CHIP;");
  Alcotest.(check bool) "ground source" true (contains sdl "ZERO () -> GND;")

let test_eval_input_waveform_exposed () =
  (* the reporting hook sees the same post-wire post-complement data the
     checker used *)
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let d = Netlist.signal nl "D .S0-6" in
  let ck = Netlist.signal nl "CK .P2-3" in
  let chk =
    Netlist.add nl
      (Primitive.Setup_hold_check { setup = 2_500; hold = 1_500 })
      ~inputs:[ Netlist.conn d; Netlist.conn ck ]
      ~output:None
  in
  let ev = Eval.create nl in
  Eval.run ev;
  let seen = Eval.input_waveform ev 0 chk 0 in
  Alcotest.(check (pair int int)) "wire skew included" (0, 2_000) (Waveform.skew seen)

let suite =
  [
    Alcotest.test_case "verifier pp" `Quick test_verifier_pp;
    Alcotest.test_case "prob pp" `Quick test_prob_pp;
    Alcotest.test_case "modular pp" `Quick test_modular_pp;
    Alcotest.test_case "wire rule pp" `Quick test_wire_rule_pp;
    Alcotest.test_case "corr advice pp" `Quick test_corr_advice_pp;
    Alcotest.test_case "vcd idents unique" `Quick test_vcd_idents_unique;
    Alcotest.test_case "diagram ruler" `Quick test_diagram_ruler;
    Alcotest.test_case "slack critical filter" `Quick test_slack_critical_filter;
    Alcotest.test_case "netgen cli shape" `Quick test_netgen_cli_shape;
    Alcotest.test_case "eval input waveform" `Quick test_eval_input_waveform_exposed;
  ]
