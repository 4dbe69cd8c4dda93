open Scald_core

let tv = Alcotest.testable Tvalue.pp Tvalue.equal

let test_parse_two_cases () =
  (* the thesis's §2.7.1 specification *)
  let cases = Case_analysis.parse_exn "CONTROL SIGNAL = 0;\nCONTROL SIGNAL = 1;\n" in
  match cases with
  | [ [ (n1, v1) ]; [ (n2, v2) ] ] ->
    Alcotest.(check string) "name" "CONTROL SIGNAL" n1;
    Alcotest.(check string) "name" "CONTROL SIGNAL" n2;
    Alcotest.check tv "case 1" Tvalue.V0 v1;
    Alcotest.check tv "case 2" Tvalue.V1 v2
  | _ -> Alcotest.fail "expected two one-signal cases"

let test_parse_multi_assignment_case () =
  let cases = Case_analysis.parse_exn "A = 0, B = 1;\nA = 1, B = 0;" in
  Alcotest.(check int) "two cases" 2 (List.length cases);
  Alcotest.(check int) "two assignments each" 2 (List.length (List.hd cases))

let test_parse_empty_and_whitespace () =
  Alcotest.(check int) "empty" 0 (List.length (Case_analysis.parse_exn ""));
  Alcotest.(check int) "blank groups" 1 (List.length (Case_analysis.parse_exn ";;A = 1;;"))

let test_parse_errors () =
  let fails s =
    match Case_analysis.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" s
  in
  fails "A = 2;";
  fails "A;";
  fails "= 0;";
  (* the message names the line of the bad assignment *)
  let fails_at line s =
    let prefix = Printf.sprintf "line %d: " line in
    match Case_analysis.parse s with
    | Error e ->
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "%S: expected a %S prefix, got %S" s prefix e
    | Ok _ -> Alcotest.failf "expected %S to fail" s
  in
  fails_at 1 "FOO = 7;";
  fails_at 3 "A = 0;\nA = 1;\nB = 2;\n";
  fails_at 2 "A = 0,\n  B;\n";
  fails_at 4 "A = 0;\n\n\n   = 1;";
  fails_at 2 "A = 0;\nB = 1, B = 0;"

let test_parse_duplicate_assignment () =
  (* "A = 0, A = 1" within one group: last write would silently win in
     Eval.run, so the parser must reject it with the signal name. *)
  (match Case_analysis.parse "A = 0, A = 1;" with
  | Error e ->
    Alcotest.(check bool) "message names the signal" true
      (let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       contains e "duplicate" && contains e "A")
  | Ok _ -> Alcotest.fail "duplicate assignment within a case must be rejected");
  (* even with the same value twice *)
  (match Case_analysis.parse "B = 1, B = 1;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repeated assignment within a case must be rejected");
  (* but the same signal across two cases is the normal §2.7 idiom *)
  match Case_analysis.parse "A = 0;\nA = 1;" with
  | Ok cs -> Alcotest.(check int) "two cases" 2 (List.length cs)
  | Error e -> Alcotest.failf "cross-case reuse must parse: %s" e

let test_resolve_reports_all_unknowns () =
  let nl = Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25) in
  ignore (Netlist.signal nl "KNOWN .S0-8");
  match
    Case_analysis.resolve nl
      [ ("MISSING ONE", Tvalue.V0); ("KNOWN .S0-8", Tvalue.V1); ("MISSING TWO", Tvalue.V1) ]
  with
  | exception Invalid_argument msg ->
    let contains needle =
      let nh = String.length msg and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub msg i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "first unknown named" true (contains "MISSING ONE");
    Alcotest.(check bool) "second unknown named" true (contains "MISSING TWO")
  | _ -> Alcotest.fail "unknown signals should fail"

(* Parsed against a netlist, a case text names every signal the design
   lacks at its line, all at once; without one it parses as before. *)
let test_parse_names_unknown_lines () =
  let nl = Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25) in
  ignore (Netlist.signal nl "A .S0-4");
  ignore (Netlist.signal nl "B .S0-4");
  let parse text = Case_analysis.parse ~netlist:nl text in
  let err = Alcotest.(result reject string) in
  Alcotest.check err "one unknown" (Error {|line 1: unknown signal "A"|}) (parse "A = 1;");
  Alcotest.check err "every unknown, each at its line"
    (Error {|line 2: unknown signal "X"; line 4: unknown signals "Y", "Z"|})
    (parse "A .S0-4 = 1;\nX = 0, B .S0-4 = 1;\n\n  Y = 1,\t Z = 0;\nA .S0-4 = 0;\n");
  Alcotest.check err "a name repeated on one line once"
    (Error {|line 1: unknown signal "X"|}) (parse "X = 0; X = 1;");
  Alcotest.check err "syntax errors first" (Error {|line 2: case value must be 0 or 1, got "2"|})
    (parse "X = 0;\nA .S0-4 = 2;");
  (match parse "A .S0-4 = 1, B .S0-4 = 0;\nA .S0-4 = 0;" with
  | Ok cs -> Alcotest.(check int) "known signals parse" 2 (List.length cs)
  | Error e -> Alcotest.fail e);
  (* each line is counted once, however many lines name unknowns *)
  let n = 50_000 in
  let t0 = Sys.time () in
  (match parse (String.concat "" (List.init n (Printf.sprintf "X%d = 0;\n"))) with
  | Error e ->
    Alcotest.(check bool) "the last line named" true
      (String.ends_with ~suffix:(Printf.sprintf {|line %d: unknown signal "X%d"|} n (n - 1)) e)
  | Ok _ -> Alcotest.fail "unknown signals parse");
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "linear in the text (%.3fs)" elapsed) true (elapsed < 1.0);
  match Case_analysis.parse "A = 1;" with
  | Ok [ [ ("A", _) ] ] -> ()
  | _ -> Alcotest.fail "without a netlist every name parses"

let test_complete_dedupes_names () =
  (* complete ["A"; "A"] must not emit the contradictory A=0,A=1 case *)
  let cases = Case_analysis.complete_exn [ "A"; "A" ] in
  Alcotest.(check int) "2^1 cases after dedupe" 2 (List.length cases);
  List.iter
    (fun case -> Alcotest.(check int) "one assignment per case" 1 (List.length case))
    cases

let test_complete_limit () =
  let names n = List.init n (Printf.sprintf "C%d") in
  (match Case_analysis.complete (names (Case_analysis.max_controls + 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "17 controls must be rejected");
  (* duplicates don't count against the limit *)
  (match Case_analysis.complete (names Case_analysis.max_controls @ [ "C0"; "C1" ]) with
  | Ok cs ->
    Alcotest.(check int) "2^16 cases" (1 lsl Case_analysis.max_controls) (List.length cs)
  | Error e -> Alcotest.failf "16 distinct controls must be accepted: %s" e);
  match Case_analysis.complete_exn (names 17) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "complete_exn must raise past the limit"

let test_complete () =
  let cases = Case_analysis.complete_exn [ "A"; "B" ] in
  Alcotest.(check int) "2^2 cases" 4 (List.length cases);
  let distinct = List.sort_uniq compare cases in
  Alcotest.(check int) "all distinct" 4 (List.length distinct)

let test_resolve () =
  let nl = Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25) in
  let id = Netlist.signal nl "CTL .S0-8" in
  let resolved = Case_analysis.resolve nl [ ("CTL .S0-8", Tvalue.V1) ] in
  Alcotest.(check (list (pair int (Alcotest.testable Tvalue.pp Tvalue.equal))))
    "resolved" [ (id, Tvalue.V1) ] resolved;
  match Case_analysis.resolve nl [ ("MISSING", Tvalue.V0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown signal should fail"

(* End-to-end: the Figure 2-6 circuit. *)
let test_bypass_delays () =
  let bp = Scald_cells.Circuits.bypass_example () in
  let nl = bp.Scald_cells.Circuits.bp_netlist in
  let r0 = Verifier.verify nl in
  Alcotest.(check (float 0.01)) "40 ns without cases" 40.0
    (Scald_cells.Circuits.bypass_path_ns r0 bp);
  let cases =
    Case_analysis.parse_exn
      (Printf.sprintf "%s = 0;%s = 1;" bp.Scald_cells.Circuits.bp_control
         bp.Scald_cells.Circuits.bp_control)
  in
  let r1 = Verifier.verify ~cases nl in
  Alcotest.(check (float 0.01)) "30 ns with cases" 30.0
    (Scald_cells.Circuits.bypass_path_ns r1 bp)

let suite =
  [
    Alcotest.test_case "parse two cases" `Quick test_parse_two_cases;
    Alcotest.test_case "parse multi assignment" `Quick test_parse_multi_assignment_case;
    Alcotest.test_case "parse empty" `Quick test_parse_empty_and_whitespace;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse duplicate assignment" `Quick test_parse_duplicate_assignment;
    Alcotest.test_case "resolve reports all unknowns" `Quick test_resolve_reports_all_unknowns;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "complete dedupes names" `Quick test_complete_dedupes_names;
    Alcotest.test_case "complete control limit" `Quick test_complete_limit;
    Alcotest.test_case "resolve" `Quick test_resolve;
    Alcotest.test_case "bypass delays 40 vs 30" `Quick test_bypass_delays;
    Alcotest.test_case "parse names unknown signals at their lines" `Quick
      test_parse_names_unknown_lines;
  ]
