(* Constraint-lint tests: every rule both firing and passing on minimal
   designs, the JSON lines, the dedup fix, and a golden snapshot of the
   s1_subset lint listing. *)

open Scald_core
module Lint = Scald_lint.Lint
module Rules = Scald_lint.Rules
module LR = Scald_lint.Lint_report

let load src =
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error msg -> Alcotest.failf "expander: %s" msg

let preamble = "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n"

let audit_src src = Lint.audit (load (preamble ^ src))

let fires id r = LR.by_rule id r <> []

let check_fires id src =
  Alcotest.(check bool) (id ^ " fires") true (fires id (audit_src src))

let check_passes id src =
  Alcotest.(check bool) (id ^ " passes") false (fires id (audit_src src))

(* ---- completeness rules --------------------------------------------------- *)

let test_c1 () =
  check_fires "C1" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK FREE);\n";
  check_passes "C1" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
  (* a clock derived through a gate still traces back to the assertion *)
  check_passes "C1"
    "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> CKG;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CKG);\n"

let test_c2 () =
  check_fires "C2" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D RAW, CK .P2-3);\n";
  check_passes "C2" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_c3 () =
  check_fires "C3" "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n";
  check_passes "C3"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_c4 () =
  check_fires "C4" "2 AND (DELAY=1.0/2.0) (CK .P2-3, EN .S0-8) -> G;\n";
  check_passes "C4" "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n";
  (* an explicit non-hazard directive is a waiver: noted, not warned *)
  let r = audit_src "2 AND (DELAY=1.0/2.0) (CK .P2-3 &Z, EN .S0-8) -> G;\n" in
  let c4 = LR.by_rule "C4" r in
  Alcotest.(check int) "waiver noted once" 1 (List.length c4);
  Alcotest.(check bool) "waiver is Info" true
    (List.for_all (fun f -> f.LR.f_severity = LR.Info) c4)

let test_c5 () =
  check_fires "C5" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
  (* skew specs are part of the assertion language, not the textual HDL:
     build the explicit-skew clock through the netlist API *)
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  ignore (Netlist.signal nl "CK .P(-1.0,1.0)2-3");
  Alcotest.(check bool) "C5 passes" false (fires "C5" (Lint.audit nl))

(* ---- consistency rules ----------------------------------------------------- *)

let test_k1 () =
  check_fires "K1"
    "WIRE DELAY (D .S0-4) = 0.0/60.0;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
  check_passes "K1"
    "WIRE DELAY (D .S0-4) = 0.0/6.0;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_k2 () =
  (* infeasible set-up + hold *)
  check_fires "K2" "SETUP HOLD CHK (SETUP=30.0, HOLD=25.0) (D .S0-4, CK .P2-3);\n";
  (* infeasible minimum pulse widths *)
  check_fires "K2" "MIN PULSE WIDTH (WIDTH=30.0/30.0) (CK .P2-3);\n";
  (* one-level data path that eats the whole period before set-up *)
  check_fires "K2"
    "1 CHG (DELAY=10.0/48.0) (D .S0-4) -> X;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n";
  check_passes "K2" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_k3 () =
  check_fires "K3" "2 AND (DELAY=1.0/2.0) (CK .P2-3 &HZZW, EN .S0-8) -> G;\n";
  check_passes "K3" "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n";
  (* two letters are fine when a second level of gating consumes them *)
  check_passes "K3"
    "2 AND (DELAY=1.0/2.0) (CK .P2-3 &HZ, EN .S0-8) -> G1;\n\
     2 AND (DELAY=1.0/2.0) (G1, EN2 .S0-8) -> G2;\n"

let test_k4 () =
  check_fires "K4" "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n";
  (* feedback through a register is legitimate *)
  check_passes "K4"
    "REG (DELAY=1.5/4.5) (LOOP, CK .P2-3) -> Q;\n\
     2 OR (DELAY=1.0/2.0) (Q, D .S0-4) -> LOOP;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n"

let test_k5 () =
  (* (a) conflicting spellings split one signal into two nets *)
  check_fires "K5"
    "1 CHG (DELAY=1.0/2.0) (D) -> X;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
  (* (b) a .S signal used as an edge-sensitive clock *)
  check_fires "K5" "REG (DELAY=1.5/4.5) (D .S0-4, EN .S0-8) -> Q;\n";
  (* (c) a low-active clock entering the clock input uncomplemented *)
  check_fires "K5" "REG (DELAY=1.5/4.5) (D .S0-4, CKL .P2-3 L) -> Q;\n";
  check_passes "K5" "REG (DELAY=1.5/4.5) (D .S0-4, - CKL .P2-3 L) -> Q;\n"

let test_k6 () =
  check_fires "K6" "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X;\n";
  check_passes "K6"
    "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (X, CK .P2-3);\n"

(* ---- signal-class (Flow-backed) rules -------------------------------------- *)

let test_c6 () =
  (* data launched by CK A, captured by CK B: an unconstrained crossing *)
  check_fires "C6"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK A .P5-6) -> QA;\n\
     REG (DELAY=1.5/4.5) (QA, CK B .P2-3) -> QX;\n";
  (* same clock on both registers: no crossing *)
  check_passes "C6"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK A .P5-6) -> QA;\n\
     REG (DELAY=1.5/4.5) (QA, CK A .P5-6) -> QX;\n";
  (* primary data (empty domain set) is the ordinary synchronous case *)
  check_passes "C6" "REG (DELAY=1.5/4.5) (D .S0-4, CK A .P5-6) -> QA;\n"

let test_c7 () =
  check_fires "C7"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK A .P5-6) -> QA;\n\
     REG (DELAY=1.5/4.5) (E .S0-4, CK B .P2-3) -> QB;\n\
     2 AND (DELAY=1.0/2.0) (QA, QB) -> MIX;\n";
  (* inputs sharing a domain (one clock) converge legitimately *)
  check_passes "C7"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK A .P5-6) -> QA;\n\
     REG (DELAY=1.5/4.5) (E .S0-4, CK A .P5-6) -> QB;\n\
     2 AND (DELAY=1.0/2.0) (QA, QB) -> MIX;\n"

let test_k7 () =
  (* the gate control is launched by the very clock it gates; the &H
     directive waives C4 but the race itself remains K7's business *)
  check_fires "K7"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK .P2-3) -> Q;\n\
     2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, Q) -> G;\n";
  (* gating by an unrelated stable enable is the sanctioned shape *)
  check_passes "K7" "2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, EN .S0-8) -> G;\n";
  (* data from another domain is a crossing (C6/C7), not this race *)
  check_passes "K7"
    "REG (DELAY=1.5/4.5) (D .S0-4, CK B .P5-6) -> Q;\n\
     2 AND (DELAY=1.0/2.0) (CK .P2-3 &H, Q) -> G;\n"

(* ---- arrival-window (Window-backed) rules ----------------------------------- *)

let test_w1 () =
  (* a stable cone can never violate its assertion: vacuous *)
  check_fires "W1" "1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X .S0-8;\n";
  (* transitions land inside the asserted window: not proven (W5's case) *)
  check_passes "W1" "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X .S0-8;\n"

let test_w2 () =
  (* both inputs asserted and the windows clear the check at every corner *)
  check_fires "W2" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n";
  (* proven only via the stable assumption on RAW: W4's business, not W2's *)
  check_passes "W2" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D RAW, CK .P2-3);\n"

let test_w3 () =
  (* the asserted data window straddles the clock pulse: always violated *)
  check_fires "W3" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S2-3, CK .P2-3);\n";
  check_passes "W3" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_w4 () =
  (* no assertion anywhere in the checker input's cone *)
  check_fires "W4" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D RAW, CK .P2-3);\n";
  (* combinational feedback widens the window to unbounded *)
  check_fires "W4"
    "2 OR (DELAY=1.0/2.0) (LOOP, D .S0-4) -> LOOP;\n\
     SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (LOOP, CK .P2-3);\n";
  check_passes "W4" "SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D .S0-4, CK .P2-3);\n"

let test_w5 () =
  (* every possible transition of X falls inside its asserted-stable span *)
  check_fires "W5" "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X .S0-8;\n";
  check_passes "W5" "1 CHG (DELAY=1.0/2.0) (EN .S0-8) -> X .S0-8;\n";
  (* X moves within [26, 52) ns; an asserted span from 25 ns through the
     wrap holds it, whether the range is written unwrapped or wrapped *)
  check_fires "W5" "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X .S4-11;\n";
  check_fires "W5" "1 CHG (DELAY=1.0/2.0) (D .S0-4) -> X .S4-3;\n"

(* ---- catalogue ------------------------------------------------------------- *)

let test_catalogue () =
  Alcotest.(check int) "nineteen rules" 19 (List.length Rules.all);
  let ids = List.map (fun (r : Rules.rule) -> r.Rules.id) Rules.all in
  Alcotest.(check (list string)) "ids"
    [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6"; "C7";
      "K1"; "K2"; "K3"; "K4"; "K5"; "K6"; "K7";
      "W1"; "W2"; "W3"; "W4"; "W5" ]
    ids;
  (match Rules.find "k4" with
  | Some r -> Alcotest.(check string) "find is case-insensitive" "K4" r.Rules.id
  | None -> Alcotest.fail "Rules.find k4 = None");
  Alcotest.(check bool) "unknown id" true (Rules.find "Z9" = None)

(* ---- the shipped examples -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_underconstrained_example () =
  let r = Lint.audit (load (read_file "../examples/underconstrained.sdl")) in
  let ids = LR.rule_ids r in
  (* every structural rule fires; the CDC rules C6/C7/K7 need a second
     clock domain and are exercised by examples/cdc.sdl instead, and the
     remaining window rules W1/W2/W5 by examples/vacuous.sdl *)
  Alcotest.(check (list string)) "structural rules fire"
    [ "C1"; "C2"; "C3"; "C4"; "C5"; "K1"; "K2"; "K3"; "K4"; "K5"; "K6";
      "W3"; "W4" ]
    ids;
  Alcotest.(check bool) "has lint errors" false (LR.clean r)

let test_cdc_example () =
  let r = Lint.audit (load (read_file "../examples/cdc.sdl")) in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " fires on cdc.sdl") true (fires id r))
    [ "C6"; "C7"; "K7" ];
  Alcotest.(check int) "no lint errors" 0 (LR.count LR.Error r)

let test_cdc_golden () =
  let r = Lint.audit (load (read_file "../examples/cdc.sdl")) in
  let actual = Format.asprintf "%a" LR.pp r in
  let golden = read_file "golden/cdc_lint.txt" in
  Alcotest.(check string) "cdc lint listing snapshot" golden actual

let test_s1_subset_clean () =
  let r = Lint.audit (load (read_file "../examples/s1_subset.sdl")) in
  Alcotest.(check int) "no lint errors" 0 (LR.count LR.Error r);
  Alcotest.(check bool) "clean" true (LR.clean r)

let test_s1_subset_golden () =
  let r = Lint.audit (load (read_file "../examples/s1_subset.sdl")) in
  let actual = Format.asprintf "%a" LR.pp r in
  let golden = read_file "golden/s1_subset_lint.txt" in
  Alcotest.(check string) "lint listing snapshot" golden actual

let test_vacuous_each_w_once () =
  let r = Lint.audit (load (read_file "../examples/vacuous.sdl")) in
  List.iter
    (fun id ->
      Alcotest.(check int) (id ^ " fires exactly once") 1
        (List.length (LR.by_rule id r)))
    [ "W1"; "W2"; "W3"; "W4"; "W5" ]

let test_vacuous_golden () =
  let r = Lint.audit (load (read_file "../examples/vacuous.sdl")) in
  let actual = Format.asprintf "%a" LR.pp r in
  let golden = read_file "golden/vacuous_lint.txt" in
  Alcotest.(check string) "vacuous lint listing snapshot" golden actual

(* ---- JSON lines ------------------------------------------------------------- *)

module Json = Scald_core.Json

let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

(* A JSON line decodes, with the repository's JSON parser, to an object
   holding exactly the finding's six fields. *)
let check_json_line (f : LR.finding) =
  let line = LR.finding_to_json f in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  let kind =
    match f.LR.f_locus with LR.Net _ -> "net" | LR.Inst _ -> "inst" | LR.Design -> "design"
  in
  let expected =
    Json.Obj
      [
        ("rule", Json.Str f.LR.f_rule);
        ("severity", Json.Str (LR.severity_name f.LR.f_severity));
        ("locus_kind", Json.Str kind);
        ("locus", Json.Str (LR.locus_name f.LR.f_locus));
        ("message", Json.Str f.LR.f_message);
        ("hint", Json.Str f.LR.f_hint);
      ]
  in
  match Json.parse line with
  | Ok j -> Alcotest.check json ("fields of " ^ line) expected j
  | Error e -> Alcotest.failf "parse failed on %s: %s" line e

let test_json_roundtrip () =
  let r = Lint.audit (load (read_file "../examples/underconstrained.sdl")) in
  Alcotest.(check bool) "findings present" true (r.LR.findings <> []);
  List.iter check_json_line r.LR.findings

let test_json_escaping () =
  check_json_line
    { LR.f_rule = "K9";
      f_severity = LR.Warning;
      f_locus = LR.Inst "A \"B\"\\C";
      f_message = "line1\nline2\ttab";
      f_hint = "ctrl\001char" }

(* ---- dedup regression -------------------------------------------------------- *)

let violation ?(detail = "") ?(actual = None) () =
  { Check.v_kind = Check.Setup_violation;
    v_inst = "CHK.1";
    v_signal = "D";
    v_clock = Some "CK";
    v_required = 2_500;
    v_actual = actual;
    v_at = Some 10_000;
    v_detail = detail }

let test_dedup () =
  (* exact duplicates collapse, first occurrence kept *)
  let v = violation ~detail:"d" () in
  Alcotest.(check int) "duplicates collapse" 1
    (List.length (Verifier.dedup_violations [ v; v; v ]));
  (* violations differing only in v_detail are distinct findings *)
  let a = violation ~detail:"case 1" () in
  let b = violation ~detail:"case 2" () in
  Alcotest.(check int) "distinct details survive" 2
    (List.length (Verifier.dedup_violations [ a; b ]));
  (* ... and so are ones differing only in the measured margin *)
  let c = violation ~actual:(Some 1_000) () in
  let d = violation ~actual:(Some 2_000) () in
  Alcotest.(check int) "distinct margins survive" 2
    (List.length (Verifier.dedup_violations [ c; d ]));
  Alcotest.(check int) "mixed" 3
    (List.length (Verifier.dedup_violations [ a; b; a; c; c ]))

(* An audit reads the netlist as it is now: editing it in place and
   auditing again gives what a fresh netlist with the same edit gives,
   not the first audit's analyses. *)
let test_reaudit_after_edit () =
  let src =
    preamble
    ^ "2 AND (DELAY=1.0/2.0) (IN A .S0-4, IN B .S0-4) -> D;\n\
       SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D, CK .P2-3);\n"
  in
  let rules r = List.sort_uniq compare (List.map (fun f -> f.LR.f_rule) r.LR.findings) in
  let slow nl =
    let d = Option.get (Netlist.find nl "D") in
    Netlist.set_wire_delay nl d (Delay.of_ns 0.0 12.0);
    nl
  in
  let nl = load src in
  Alcotest.(check (list string)) "first audit" [ "C5"; "W2" ] (rules (Lint.audit nl));
  let edited = rules (Lint.audit (slow nl)) in
  Alcotest.(check (list string)) "fresh netlist with the edit" [ "C5" ]
    (rules (Lint.audit (slow (load src))));
  Alcotest.(check (list string)) "re-audit after the edit" [ "C5" ] edited

let suite =
  [
    Alcotest.test_case "C1 clock reaches edge inputs" `Quick test_c1;
    Alcotest.test_case "C2 primary inputs asserted" `Quick test_c2;
    Alcotest.test_case "C3 data inputs checked" `Quick test_c3;
    Alcotest.test_case "C4 gated clocks carry directives" `Quick test_c4;
    Alcotest.test_case "C5 default skew noted" `Quick test_c5;
    Alcotest.test_case "K1 delay sanity" `Quick test_k1;
    Alcotest.test_case "K2 constraint feasibility" `Quick test_k2;
    Alcotest.test_case "K3 directive length" `Quick test_k3;
    Alcotest.test_case "K4 combinational cycles" `Quick test_k4;
    Alcotest.test_case "K5 assertion consistency" `Quick test_k5;
    Alcotest.test_case "K6 dead logic" `Quick test_k6;
    Alcotest.test_case "C6 clock-domain crossings" `Quick test_c6;
    Alcotest.test_case "C7 domain convergence" `Quick test_c7;
    Alcotest.test_case "K7 same-domain clock gating" `Quick test_k7;
    Alcotest.test_case "W1 vacuous stable assertions" `Quick test_w1;
    Alcotest.test_case "W2 provably satisfied checkers" `Quick test_w2;
    Alcotest.test_case "W3 guaranteed violations" `Quick test_w3;
    Alcotest.test_case "W4 unbounded or unconstrained windows" `Quick test_w4;
    Alcotest.test_case "W5 window/assertion contradictions" `Quick test_w5;
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
    Alcotest.test_case "underconstrained example fires all rules" `Quick
      test_underconstrained_example;
    Alcotest.test_case "cdc example fires the CDC rules" `Quick test_cdc_example;
    Alcotest.test_case "cdc lint listing snapshot" `Quick test_cdc_golden;
    Alcotest.test_case "s1_subset has no lint errors" `Quick test_s1_subset_clean;
    Alcotest.test_case "s1_subset lint listing snapshot" `Quick test_s1_subset_golden;
    Alcotest.test_case "vacuous example fires each W rule once" `Quick
      test_vacuous_each_w_once;
    Alcotest.test_case "vacuous lint listing snapshot" `Quick test_vacuous_golden;
    Alcotest.test_case "JSON round-trip on real findings" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    Alcotest.test_case "dedup keeps distinct violations" `Quick test_dedup;
    Alcotest.test_case "re-audit after an in-place edit" `Quick test_reaudit_after_edit;
  ]
