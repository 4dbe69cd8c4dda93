open Scald_core
module Lexer = Scald_sdl.Lexer
module Parser = Scald_sdl.Parser
module Expander = Scald_sdl.Expander
module Ast = Scald_sdl.Ast

(* ---- lexer -------------------------------------------------------------- *)

let toks src =
  match Lexer.tokenize src with
  | Ok l -> List.map (fun x -> x.Lexer.tok) l
  | Error e -> Alcotest.fail e

let test_lexer_basic () =
  match toks "REG (DELAY=1.5/4.5) (I, CK) -> Q;" with
  | [ Lexer.Word "REG"; Lexer.Lparen; Lexer.Word "DELAY"; Lexer.Equals;
      Lexer.Word "1.5/4.5"; Lexer.Rparen; Lexer.Lparen; Lexer.Word "I"; Lexer.Comma;
      Lexer.Word "CK"; Lexer.Rparen; Lexer.Arrow; Lexer.Word "Q"; Lexer.Semi; Lexer.Eof ]
    -> ()
  | l -> Alcotest.failf "unexpected tokens (%d)" (List.length l)

let test_lexer_assertion_words () =
  (* ".P2-3" lexes as one word: the '-' is glued *)
  match toks "CK .P2-3 L" with
  | [ Lexer.Word "CK"; Lexer.Word ".P2-3"; Lexer.Word "L"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "assertion should stay in word form"

let test_lexer_complement_and_directive () =
  match toks "- WE &HZ" with
  | [ Lexer.Minus; Lexer.Word "WE"; Lexer.Amp "HZ"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "complement / directive tokens"

let test_lexer_scopes () =
  match toks "I /P, L /M" with
  | [ Lexer.Word "I"; Lexer.Scope_p; Lexer.Comma; Lexer.Word "L"; Lexer.Scope_m; Lexer.Eof ]
    -> ()
  | _ -> Alcotest.fail "scope tokens"

let test_lexer_comment () =
  match toks "A -- a comment\nB" with
  | [ Lexer.Word "A"; Lexer.Word "B"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "comments stripped"

let test_lexer_negative_number () =
  match toks "HOLD=-1.0" with
  | [ Lexer.Word "HOLD"; Lexer.Equals; Lexer.Word "-1.0"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "negative number glued"

(* ---- parser ---------------------------------------------------------------- *)

let parse_ok src =
  match Parser.parse src with Ok d -> d | Error e -> Alcotest.failf "parse: %s" e

let test_parse_settings () =
  match parse_ok "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;" with
  | [ Ast.Period p; Ast.Clock_unit u; Ast.Default_wire (a, b) ] ->
    Alcotest.(check (float 1e-9)) "period" 50.0 p;
    Alcotest.(check (float 1e-9)) "unit" 6.25 u;
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "wire" (0.0, 2.0) (a, b)
  | _ -> Alcotest.fail "settings"

let test_parse_instance () =
  match parse_ok "PERIOD 50.0;\n2 AND (DELAY=1.0/2.9) (- CK .P2-3 L &H, - WRITE .S0-6 L) -> WRITE EN;" with
  | [ Ast.Period _; Ast.Top_instance i ] ->
    Alcotest.(check string) "head" "2 AND" i.Ast.i_head;
    Alcotest.(check int) "two args" 2 (List.length i.Ast.i_args);
    let a = List.hd i.Ast.i_args in
    Alcotest.(check bool) "complement" true a.Ast.complement;
    Alcotest.(check string) "name keeps assertion" "CK .P2-3 L" a.Ast.name;
    Alcotest.(check (option string)) "directive" (Some "H") a.Ast.directive;
    (match i.Ast.i_outs with
    | [ o ] -> Alcotest.(check string) "output" "WRITE EN" o.Ast.name
    | _ -> Alcotest.fail "one output")
  | _ -> Alcotest.fail "instance"

let test_parse_multirange_comma () =
  (* a comma inside ".C2-3,5-6" does not split the argument list *)
  match parse_ok "PERIOD 50.0;\n1 CHG (DELAY=1/1) (X .C2-3,5-6) -> Y;" with
  | [ Ast.Period _; Ast.Top_instance i ] ->
    Alcotest.(check int) "one arg" 1 (List.length i.Ast.i_args);
    Alcotest.(check string) "full assertion" "X .C2-3,5-6" (List.hd i.Ast.i_args).Ast.name
  | _ -> Alcotest.fail "multirange"

let test_parse_macro () =
  let src =
    "MACRO REG 10176;\nPARAMETER I /P, CK /P, Q /P;\nBODY\n\
     REG (DELAY=1.5/4.5) (I /P, CK /P) -> Q /P;\nEND;"
  in
  match parse_ok src with
  | [ Ast.Macro m ] ->
    Alcotest.(check string) "name" "REG 10176" m.Ast.m_name;
    Alcotest.(check int) "params" 3 (List.length m.Ast.m_params);
    Alcotest.(check int) "body" 1 (List.length m.Ast.m_body)
  | _ -> Alcotest.fail "macro"

let test_parse_wire_and_width () =
  match parse_ok "PERIOD 50.0;\nWIRE DELAY (ADR<0:3>) = 0.0/6.0;\nWIDTH (RAM OUT) = 32;" with
  | [ Ast.Period _; Ast.Wire_delay (s, (a, b)); Ast.Width_decl (w, n) ] ->
    Alcotest.(check string) "signal" "ADR<0:3>" s.Ast.name;
    Alcotest.(check (pair (float 1e-9) (float 1e-9))) "range" (0.0, 6.0) (a, b);
    Alcotest.(check string) "width signal" "RAM OUT" w.Ast.name;
    Alcotest.(check int) "width" 32 n
  | _ -> Alcotest.fail "wire/width"

let test_parse_errors () =
  let fails src =
    match Parser.parse src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected %S to fail" src
  in
  fails "PERIOD;";
  fails "MACRO X; BODY";  (* unterminated *)
  fails "2 AND (A, B) Q;" (* missing arrow and semi *)

(* ---- expander ------------------------------------------------------------------ *)

let expand_ok src =
  match Expander.load src with
  | Ok e -> e
  | Error e -> Alcotest.failf "expand: %s" e

let test_expand_simple () =
  let e =
    expand_ok
      "PERIOD 50.0;\n2 OR (DELAY=1.0/2.9) (A .S0-6, B .S0-6) -> Q;"
  in
  let nl = e.Expander.e_netlist in
  Alcotest.(check int) "one primitive" 1 (Netlist.n_insts nl);
  Alcotest.(check int) "three signals" 3 (Netlist.n_nets nl);
  Alcotest.(check int) "summary primitives" 1 e.Expander.e_summary.Expander.s_primitives

let test_expand_macro_binding () =
  let src =
    "PERIOD 50.0;\n\
     MACRO BUF CHIP;\nPARAMETER I /P, Q /P;\nBODY\n\
     BUF (DELAY=1.0/2.0) (I /P) -> Q /P;\nEND;\n\
     BUF CHIP (X .S0-6) -> Y;\n"
  in
  let e = expand_ok src in
  let nl = e.Expander.e_netlist in
  (* the formal parameters resolve to the caller's signals: no extra nets *)
  Alcotest.(check bool) "X exists" true (Netlist.find nl "X .S0-6" <> None);
  Alcotest.(check bool) "Y exists" true (Netlist.find nl "Y" <> None);
  Alcotest.(check int) "exactly the caller's nets" 2 (Netlist.n_nets nl);
  Alcotest.(check int) "one macro expanded" 1 e.Expander.e_summary.Expander.s_macros_expanded;
  Alcotest.(check bool) "synonyms recorded" true
    (e.Expander.e_summary.Expander.s_synonyms >= 2)

let test_expand_size_parameter () =
  let src =
    "PERIOD 50.0;\n\
     MACRO W CHIP;\nPARAMETER I<0:SIZE-1> /P, Q<0:SIZE-1> /P;\nBODY\n\
     BUF (DELAY=1.0/2.0) (I<0:SIZE-1> /P) -> Q<0:SIZE-1> /P;\nEND;\n\
     W CHIP (SIZE=32) (DATA<0:31>) -> OUT<0:31>;\n"
  in
  let e = expand_ok src in
  let nl = e.Expander.e_netlist in
  match Netlist.find nl "OUT<0:31>" with
  | Some id -> Alcotest.(check int) "width 32" 32 (Netlist.net nl id).Netlist.n_width
  | None -> Alcotest.fail "vector output missing"

let test_expand_locals_unique () =
  let src =
    "PERIOD 50.0;\n\
     MACRO D CHIP;\nPARAMETER I /P, Q /P;\nBODY\n\
     BUF (DELAY=1.0/1.0) (I /P) -> T /M;\n\
     BUF (DELAY=1.0/1.0) (T /M) -> Q /P;\nEND;\n\
     D CHIP (A .S0-6) -> B;\nD CHIP (B) -> C;\n"
  in
  let e = expand_ok src in
  let nl = e.Expander.e_netlist in
  (* two expansions, each with its own local T: 4 buffers, and the two
     T's are distinct nets *)
  Alcotest.(check int) "four primitives" 4 (Netlist.n_insts nl);
  Alcotest.(check int) "A B C + two locals" 5 (Netlist.n_nets nl)

let test_expand_complement_composition () =
  let src =
    "PERIOD 50.0;\n\
     MACRO N CHIP;\nPARAMETER I /P, Q /P;\nBODY\n\
     BUF (DELAY=0.0/0.0) (- I /P) -> Q /P;\nEND;\n\
     N CHIP (- X .C2-3) -> Y;\nWIRE DELAY (X .C2-3) = 0.0/0.0;\n"
  in
  let e = expand_ok src in
  let nl = e.Expander.e_netlist in
  let ev = Eval.create nl in
  Eval.run ev;
  (* double complement: Y follows X *)
  match Netlist.find nl "Y" with
  | Some y ->
    let v = Waveform.value_at (Eval.value ev y) (Timebase.ps_of_ns 15.) in
    Alcotest.(check char) "double complement cancels" '1' (Tvalue.to_char v)
  | None -> Alcotest.fail "Y missing"

let test_expand_nested_macros () =
  let src =
    "PERIOD 50.0;\n\
     MACRO INNER;\nPARAMETER I /P, Q /P;\nBODY\n\
     BUF (DELAY=1.0/1.0) (I /P) -> Q /P;\nEND;\n\
     MACRO OUTER;\nPARAMETER I /P, Q /P;\nBODY\n\
     INNER (I /P) -> M /M;\nINNER (M /M) -> Q /P;\nEND;\n\
     OUTER (A .S0-6) -> B;\n"
  in
  let e = expand_ok src in
  Alcotest.(check int) "two primitives" 2 (Netlist.n_insts e.Expander.e_netlist);
  Alcotest.(check int) "three macro expansions" 3
    e.Expander.e_summary.Expander.s_macros_expanded

let test_expand_recursive_macro_rejected () =
  let src =
    "PERIOD 50.0;\n\
     MACRO LOOP;\nPARAMETER I /P, Q /P;\nBODY\nLOOP (I /P) -> Q /P;\nEND;\n\
     LOOP (A .S0-6) -> B;\n"
  in
  match Expander.load src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "recursive macro should be rejected"

let test_expand_errors () =
  let fails src =
    match Expander.load src with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure"
  in
  fails "2 OR (DELAY=1/1) (A, B) -> Q;" (* no PERIOD *);
  fails "PERIOD 50.0;\nFROB (A) -> B;" (* unknown head *);
  fails "PERIOD 50.0;\n2 OR (A, B) -> Q;" (* missing DELAY *);
  fails "PERIOD 50.0;\nMACRO M;\nPARAMETER I /P, Q /P;\nBODY\nBUF (DELAY=1/1) (I /P) -> Q /P;\nEND;\nM (A) -> B -> C;";
  (* each of these names the line of the statement at fault, through
     both entry points where the design parses *)
  let check line src how = function
    | Ok _ -> Alcotest.failf "%s: expected %S to fail" how src
    | Error e ->
      let prefix = Printf.sprintf "line %d: " line in
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "%s: %S: expected a %S prefix, got %S" how src prefix e
  in
  let fails_at line src =
    check line src "load" (Expander.load src);
    check line src "parse + expand" (Result.bind (Parser.parse src) Expander.expand)
  in
  let buf_macro delay =
    Printf.sprintf "MACRO M;\nPARAMETER I /P, Q /P;\nBODY\nBUF (DELAY=%s) (I /P) -> Q /P;\nEND;\n"
      delay
  in
  fails_at 2 "PERIOD 50.0;\n2 OR (DELAY=5/1) (A, B) -> Q;";
  fails_at 5 ("PERIOD 50.0;\n" ^ buf_macro "5/1" ^ "M (A) -> B;");
  fails_at 2 "PERIOD 50.0;\nBUF (DELAY=1/2) (A &QQ) -> Q;";
  fails_at 3 "PERIOD 50.0;\nBUF (DELAY=1/2) (A) -> Q;\nWIRE DELAY (Q) = 3/1;";
  fails_at 2 "PERIOD 50.0;\nDEFAULT WIRE DELAY 3/1;\nBUF (DELAY=1/2) (A) -> Q;";
  fails_at 2 "PERIOD 50.0;\nWIRE RULE 0/1 PER LOAD 3/1;\nBUF (DELAY=1/2) (A) -> Q;";
  List.iter
    (fun w ->
      fails_at 3 (Printf.sprintf "PERIOD 50.0;\nBUF (DELAY=1/2) (A) -> Q;\nWIDTH (Q) = %s;" w))
    [ "-3"; "0"; "2.7"; "99999999999999999999" ];
  (* times beyond Timebase.max_ns and corner factors beyond
     Corner.max_scale are rejected at their line instead of wrapping *)
  let and_chk period setup =
    Printf.sprintf
      "PERIOD %s;\n2 AND (DELAY=1/2) (A .S0-6, B .S0-6) -> D;\n\
       SETUP HOLD CHK (SETUP=%s, HOLD=1.5) (D, CK .P2-3);"
      period setup
  in
  fails_at 3 (and_chk "50.0" "1e16");
  fails_at 1 (and_chk "1e30" "1");
  fails_at 2 "PERIOD 50.0;\nCORNERS typ, x=1e308;\nBUF (DELAY=1/2) (A) -> Q;";
  fails_at 2 "PERIOD 50.0;\nWIRE DELAY (A) = 0/1e16;\nBUF (DELAY=1/2) (A) -> Q;";
  (* two errors: the one earlier in the text is reported — a duplicate
     MACRO at line 7 before a parse error at line 13, which a parse of
     the whole text meets first *)
  let two = "PERIOD 50.0;\n" ^ buf_macro "1/1" ^ buf_macro "1/1" ^ "M (A) -> B;\n2 AND (A, B Q;\n" in
  check 7 two "load" (Expander.load two);
  check 13 two "parse" (Parser.parse two)

let test_expand_zero_one () =
  let e = expand_ok "PERIOD 50.0;\nZERO () -> GND;\nONE () -> VCC;" in
  let nl = e.Expander.e_netlist in
  let ev = Eval.create nl in
  Eval.run ev;
  let v net = Waveform.value_at (Eval.value ev net) 0 in
  Alcotest.(check char) "gnd" '0'
    (Tvalue.to_char (v (Option.get (Netlist.find nl "GND"))));
  Alcotest.(check char) "vcc" '1'
    (Tvalue.to_char (v (Option.get (Netlist.find nl "VCC"))))

(* ---- end-to-end: the SDL register-file example matches the API one ------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_register_file_sdl_matches_api () =
  let src = read_file "../examples/register_file.sdl" in
  let e = expand_ok src in
  let report = Verifier.verify e.Expander.e_netlist in
  let api = Scald_cells.Circuits.register_file_example () in
  let api_report = Verifier.verify api.Scald_cells.Circuits.rf_netlist in
  let summarize r =
    List.map
      (fun (v : Check.t) ->
        (Check.kind_name v.Check.v_kind, v.Check.v_signal, v.Check.v_required,
         v.Check.v_actual, v.Check.v_at))
      r.Verifier.r_violations
    |> List.sort compare
  in
  Alcotest.(check int) "same violation count"
    (List.length api_report.Verifier.r_violations)
    (List.length report.Verifier.r_violations);
  Alcotest.(check bool) "identical violations" true
    (summarize report = summarize api_report)

let test_wire_rule_statement () =
  let src =
    "PERIOD 50.0;\nWIRE RULE 0.0/1.0 PER LOAD 0.0/0.5;\n\
     2 OR (DELAY=1.0/2.0) (A .S0-6, B .S0-6) -> Q;\n\
     2 OR (DELAY=1.0/2.0) (A .S0-6, Q) -> Q2;\n"
  in
  let e = expand_ok src in
  let nl = e.Expander.e_netlist in
  (* A has two loads: base plus one increment *)
  (match (Netlist.net nl (Option.get (Netlist.find nl "A .S0-6"))).Netlist.n_wire_delay with
  | Some d ->
    Alcotest.(check bool) "A loaded" true (Delay.equal d (Delay.of_ns 0.0 1.5))
  | None -> Alcotest.fail "rule not applied to A");
  match (Netlist.net nl (Option.get (Netlist.find nl "Q"))).Netlist.n_wire_delay with
  | Some d -> Alcotest.(check bool) "Q one load" true (Delay.equal d (Delay.of_ns 0.0 1.0))
  | None -> Alcotest.fail "rule not applied to Q"

let test_s1_subset_clean () =
  (* the full three-stage pipeline design: nested macros, directives,
     vectors, CORR elements — expands and verifies clean under both
     bypass cases *)
  let src = read_file "../examples/s1_subset.sdl" in
  let e = expand_ok src in
  let cases = Case_analysis.parse_exn (read_file "../examples/s1_subset.cases") in
  let report = Verifier.verify ~cases e.Expander.e_netlist in
  Alcotest.(check bool) "converged" true report.Verifier.r_converged;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun (v : Check.t) -> Format.asprintf "%a" Check.pp v)
       report.Verifier.r_violations);
  Alcotest.(check int) "two cases" 2 (List.length report.Verifier.r_cases);
  (* nested PIPE REG macros: REG CHIP inside PIPE REG resolved two
     levels of parameters *)
  Alcotest.(check bool) "nested expansion produced registers" true
    (let regs = ref 0 in
     Netlist.iter_insts e.Expander.e_netlist (fun i ->
         match i.Netlist.i_prim with
         | Primitive.Reg _ -> incr regs
         | _ -> ());
     !regs >= 6);
  (* the advisor is satisfied: every feedback path carries its CORR *)
  Alcotest.(check int) "no corr advice" 0
    (List.length (Path_analysis.Corr.advise e.Expander.e_netlist))

(* ---- one expander, two entry points ------------------------------------------------- *)

(* A macro used before its MACRO statement, and a PERIOD (and default
   wire delay) after the first instance: Pass 1 reads every declaration
   before Pass 2 expands anything. *)
let forward_macro_src =
  "PERIOD 50.0;\n\
   CLOCK UNIT 6.25;\n\
   PIPE (D IN .S0-6, CK .P2-3) -> Q OUT;\n\
   WIRE DELAY (Q OUT) = 0.0/3.0;\n\
   MACRO PIPE;\n\
   PARAMETER I /P, CK /P, Q /P;\n\
   BODY\n\
   BUF (DELAY=1.0/2.0) (I /P) -> T /M;\n\
   REG (DELAY=1.5/4.5) (T /M, CK /P) -> Q /P;\n\
   SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (T /M, CK /P);\n\
   END;\n"

let late_period_src =
  "CLOCK UNIT 6.25;\n\
   2 AND (DELAY=1.0/3.0) (A .S0-6, B .S0-6) -> G;\n\
   REG (DELAY=1.5/4.5) (G, CK .P2-3) -> Q;\n\
   SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (G, CK .P2-3);\n\
   WIDTH (G) = 8;\n\
   PERIOD 50.0;\n\
   DEFAULT WIRE DELAY 0.0/1.0;\n"

(* Netlist digests ({!Scald_incr.Fingerprint.digest}: structure and every
   parameter) and summary lines captured from the expander as it stood
   before Pass 1 became a declaration read; the last two designs took
   that expander's fallback from streaming to the AST walk. *)
let pinned =
  [
    ( "examples/cdc.sdl", "f96ded4fd7a1e853f8d2f61bd9ece5f2",
      "macro expansions: 0  primitives: 11  signals: 10  synonyms resolved: 0" );
    ( "examples/register_file.sdl", "98fde400c02520c083a04a081c419410",
      "macro expansions: 2  primitives: 10  signals: 12  synonyms resolved: 8" );
    ( "examples/s1_subset.sdl", "ecd511808e2d267d59cc7d1ca7b0487e",
      "macro expansions: 24  primitives: 37  signals: 37  synonyms resolved: 73" );
    ( "examples/underconstrained.sdl", "39016ffa52a7710959d5a9340d6a8e7b",
      "macro expansions: 0  primitives: 8  signals: 13  synonyms resolved: 0" );
    ( "examples/vacuous.sdl", "fa08033f1b382ca0aa5d0dabebae2b58",
      "macro expansions: 0  primitives: 5  signals: 10  synonyms resolved: 0" );
    ( "netgen 400 chips", "64369f89d6ac635b39795e039e521786",
      "macro expansions: 375  primitives: 502  signals: 409  synonyms resolved: 1147" );
    ( "forward macro", "be80148c7fbefb8283a412a34f0eae4b",
      "macro expansions: 1  primitives: 3  signals: 4  synonyms resolved: 3" );
    ( "late period", "c1896a5321aaff56c394443b16150857",
      "macro expansions: 0  primitives: 3  signals: 5  synonyms resolved: 0" );
  ]

let test_load_matches_expand () =
  (* the source entry point (no AST) and the parsed-design entry point
     build the pinned netlist and summary on every design *)
  let source = function
    | "netgen 400 chips" -> Netgen.to_sdl (Netgen.generate (Netgen.scaled ~chips:400 ()))
    | "forward macro" -> forward_macro_src
    | "late period" -> late_period_src
    | path -> read_file ("../" ^ path)
  in
  List.iter
    (fun (name, digest, summary) ->
      let src = source name in
      let check how = function
        | Error e -> Alcotest.failf "%s: %s: %s" name how e
        | Ok e ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s digest" name how)
            digest
            (Scald_incr.Fingerprint.digest e.Expander.e_netlist);
          Alcotest.(check string)
            (Printf.sprintf "%s: %s summary" name how)
            summary
            (Format.asprintf "%a" Expander.pp_summary e.Expander.e_summary)
      in
      check "load" (Expander.load src);
      check "expand" (Result.bind (Parser.parse src) Expander.expand))
    pinned

(* ---- xref ------------------------------------------------------------------------- *)

let test_xref () =
  let e =
    expand_ok "PERIOD 50.0;\n2 OR (DELAY=1.0/2.9) (A .S0-6, B) -> Q;"
  in
  let nl = e.Expander.e_netlist in
  let entries = Scald_sdl.Xref.build nl in
  Alcotest.(check int) "three entries" 3 (List.length entries);
  let q = List.find (fun x -> x.Scald_sdl.Xref.x_signal = "Q") entries in
  Alcotest.(check bool) "Q has a driver" true (q.Scald_sdl.Xref.x_defined_by <> None);
  let unass = Scald_sdl.Xref.unasserted nl in
  Alcotest.(check (list string)) "B unasserted" [ "B" ]
    (List.map (fun x -> x.Scald_sdl.Xref.x_signal) unass)

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer assertion words" `Quick test_lexer_assertion_words;
    Alcotest.test_case "lexer complement/directive" `Quick test_lexer_complement_and_directive;
    Alcotest.test_case "lexer scopes" `Quick test_lexer_scopes;
    Alcotest.test_case "lexer comment" `Quick test_lexer_comment;
    Alcotest.test_case "lexer negative number" `Quick test_lexer_negative_number;
    Alcotest.test_case "parse settings" `Quick test_parse_settings;
    Alcotest.test_case "parse instance" `Quick test_parse_instance;
    Alcotest.test_case "parse multirange comma" `Quick test_parse_multirange_comma;
    Alcotest.test_case "parse macro" `Quick test_parse_macro;
    Alcotest.test_case "parse wire and width" `Quick test_parse_wire_and_width;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "expand simple" `Quick test_expand_simple;
    Alcotest.test_case "expand macro binding" `Quick test_expand_macro_binding;
    Alcotest.test_case "expand size parameter" `Quick test_expand_size_parameter;
    Alcotest.test_case "expand locals unique" `Quick test_expand_locals_unique;
    Alcotest.test_case "expand complement composition" `Quick test_expand_complement_composition;
    Alcotest.test_case "expand nested macros" `Quick test_expand_nested_macros;
    Alcotest.test_case "expand recursive rejected" `Quick test_expand_recursive_macro_rejected;
    Alcotest.test_case "expand errors" `Quick test_expand_errors;
    Alcotest.test_case "expand zero/one" `Quick test_expand_zero_one;
    Alcotest.test_case "register_file.sdl matches API" `Quick test_register_file_sdl_matches_api;
    Alcotest.test_case "wire rule statement" `Quick test_wire_rule_statement;
    Alcotest.test_case "s1_subset.sdl clean" `Quick test_s1_subset_clean;
    Alcotest.test_case "load matches expand" `Quick test_load_matches_expand;
    Alcotest.test_case "xref" `Quick test_xref;
  ]
