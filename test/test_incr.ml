(* The incremental verification service (doc/SERVICE.md): the JSON
   codec, the content digests, the edit vocabulary, the
   session delta engine — whose re-verify must be bit-identical in
   verdicts to a cold run of the edited design — the session store's
   warm/adopt/cold decisions, and the serve protocol loop. *)

open Scald_core
open Scald_incr
module Json = Scald_core.Json

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let assertion spec =
  match Assertion.parse spec with Ok a -> a | Error e -> Alcotest.fail e

(* ---- Json ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\tz");
        ("n", Json.Num 3.5);
        ("i", Json.of_int 42);
        ("neg", Json.Num (-0.25));
        ("t", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.fail e

let test_json_parse () =
  (match Json.parse {| {"a": [1, 2.5, -3e1], "b": "\u0041\n", "c": null} |} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option string)) "unicode escape" (Some "A\n")
      (Option.bind (Json.member "b" v) Json.str);
    (match Option.bind (Json.member "a" v) Json.list with
    | Some [ Json.Num a; Json.Num b; Json.Num c ] ->
      Alcotest.(check bool) "numbers" true (a = 1.0 && b = 2.5 && c = -30.0)
    | _ -> Alcotest.fail "expected a 3-number array");
    Alcotest.(check (option int)) "int accessor" (Some 1)
      (Option.bind (Json.member "a" v) (fun l ->
           Option.bind (Json.list l) (fun l -> Json.int (List.hd l)))));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Json.parse "not json"));
  Alcotest.(check bool) "trailing junk rejected" true
    (Result.is_error (Json.parse "{} x"));
  Alcotest.(check bool) "unterminated string rejected" true
    (Result.is_error (Json.parse "\"abc"))

let test_json_int_printing () =
  Alcotest.(check string) "integral floats print as integers" "{\"n\":7}"
    (Json.to_string (Json.Obj [ ("n", Json.Num 7.0) ]));
  Alcotest.(check string) "fractional floats keep their fraction" "{\"n\":7.25}"
    (Json.to_string (Json.Obj [ ("n", Json.Num 7.25) ]))

let test_json_lines () =
  Alcotest.(check string) "one member per line, each compact"
    "{\n  \"a\":1,\n  \"b\":{\"c\":[0.5,\"x\"]}\n}\n"
    (Json.to_lines
       (Json.Obj
          [
            ("a", Json.of_int 1);
            ("b", Json.Obj [ ("c", Json.List [ Json.Num 0.5; Json.Str "x" ]) ]);
          ]));
  Alcotest.(check string) "one element per line" "[\n  1,\n  {}\n]\n"
    (Json.to_lines (Json.List [ Json.of_int 1; Json.Obj [] ]));
  Alcotest.(check string) "empty" "[]\n" (Json.to_lines (Json.List []));
  Alcotest.(check string) "scalar" "\"s\"\n" (Json.to_lines (Json.Str "s"))

let test_json_edge_cases () =
  (match Json.parse {| "a\"b\\c\/d" |} with
  | Ok (Json.Str s) -> Alcotest.(check string) "escape soup" "a\"b\\c/d" s
  | _ -> Alcotest.fail "escaped string");
  List.iter
    (fun (src, expect) ->
      match Json.parse src with
      | Ok (Json.Num n) -> Alcotest.(check (float 1e-12)) src expect n
      | _ -> Alcotest.failf "number %s" src)
    [ ("1e3", 1000.0); ("1.5e-2", 0.015); ("-3E+2", -300.0); ("0.0625", 0.0625) ];
  (* deep nesting parses and round-trips without blowing the stack *)
  let depth = 200 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  (match Json.parse deep with
  | Ok v -> Alcotest.(check string) "deep round-trip" deep (Json.to_string v)
  | Error e -> Alcotest.failf "deep nesting rejected: %s" e);
  (* truncation anywhere is an error, never an exception *)
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "truncated %S rejected" src)
        true
        (Result.is_error (Json.parse src)))
    [ "{\"a\":"; "[1,"; "\"ab"; "{\"a\""; "tru"; "nul"; "1e"; "-"; "[\"x\", "; "{" ];
  (* only the integers a float holds exactly decode as ints: nothing
     wraps, so every accepted number round-trips *)
  List.iter
    (fun (src, expect) ->
      Alcotest.(check (option int)) ("int " ^ src) expect
        (Option.bind (Result.to_option (Json.parse src)) Json.int))
    [
      ("1e19", None);
      ("4611686018427387904", None);
      ("-9223372036854775808", None);
      ("9007199254740992", Some 9007199254740992);
      ("-9007199254740992", Some (-9007199254740992));
    ]

let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        (* integral Num only: to_string prints integral floats as
           integers, so fractional values would round-trip through a
           different (equal-value) representation *)
        map (fun i -> Json.Num (float_of_int i)) (int_range (-1000000) 1000000);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 8));
      ]
  in
  let rec node depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun l -> Json.List l) (list_size (int_range 0 4) (node (depth - 1)))
          );
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair (string_size ~gen:printable (int_range 0 6)) (node (depth - 1))))
          );
        ]
  in
  QCheck.make ~print:Json.to_string (node 3)

let json_roundtrip_property =
  prop ~count:200 "printed JSON parses back to the same value" gen_json (fun j ->
      Json.parse (Json.to_string j) = Ok j && Json.parse (Json.to_lines j) = Ok j)

(* ---- a small deterministic circuit ----------------------------------------- *)

(* IN0/IN1 -> U0 (AND) -> U1 (BUF) -> DATA, registered by U2 on CK with
   a setup/hold checker U3: upstream delay edits move DATA's settling
   time and flip the setup verdict, exercising violation (un)caching. *)
let build_circuit ?(u0_max = 3.0) ?(data_wire = None) ?(u3_setup = 8.0) () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 1.0)
  in
  let in0 = Netlist.signal nl "IN0 .S0-6" in
  let in1 = Netlist.signal nl "IN1 .S0-6" in
  let ck = Netlist.signal nl "CK .P2-3" in
  let g0 = Netlist.signal nl "G0" in
  let data = Netlist.signal nl "DATA" in
  let q = Netlist.signal nl "Q" in
  (match data_wire with
  | None -> ()
  | Some d -> Netlist.set_wire_delay_opt nl data (Some d));
  ignore
    (Netlist.add nl ~name:"U0"
       (Primitive.Gate
          { fn = Primitive.And; n_inputs = 2; invert = false; delay = Delay.of_ns 1.0 u0_max })
       ~inputs:[ Netlist.conn in0; Netlist.conn in1 ]
       ~output:(Some g0));
  ignore
    (Netlist.add nl ~name:"U1"
       (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn g0 ] ~output:(Some data));
  ignore
    (Netlist.add nl ~name:"U2"
       (Primitive.Reg { delay = Delay.of_ns 1.5 4.5; has_set_reset = false })
       ~inputs:[ Netlist.conn data; Netlist.conn ck ]
       ~output:(Some q));
  ignore
    (Netlist.add nl ~name:"U3"
       (Primitive.Setup_hold_check
          { setup = Timebase.ps_of_ns u3_setup; hold = Timebase.ps_of_ns 1.0 })
       ~inputs:[ Netlist.conn data; Netlist.conn ck ]
       ~output:None);
  nl

(* Verdict equality covers every corner's list, not just the reference
   corner's [r_violations]. *)
let verdicts_equal (a : Verifier.report) (b : Verifier.report) =
  a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2
       (fun (x : Verifier.case_result) (y : Verifier.case_result) ->
         x.Verifier.cr_case = y.Verifier.cr_case
         && x.Verifier.cr_violations = y.Verifier.cr_violations
         && x.Verifier.cr_converged = y.Verifier.cr_converged)
       a.Verifier.r_cases b.Verifier.r_cases
  && List.map (fun (c : Verifier.corner_result) -> c.Verifier.co_violations)
       a.Verifier.r_corners
     = List.map (fun (c : Verifier.corner_result) -> c.Verifier.co_violations)
         b.Verifier.r_corners

(* What [scald_tv -q] prints: the reference listing, then the
   multi-corner summary on a multi-corner design. *)
let cold_listing (r : Verifier.report) =
  Format.asprintf "@.%a@.%a" Report.pp_violations r.Verifier.r_violations
    Verifier.pp_corner_listing r

(* ---- Fingerprint ------------------------------------------------------------ *)

let test_fingerprint_digest () =
  let a = build_circuit () and b = build_circuit () in
  Alcotest.(check string) "digest is deterministic" (Fingerprint.digest a)
    (Fingerprint.digest b);
  let c = build_circuit ~u0_max:3.5 () in
  Alcotest.(check bool) "parameter change moves the digest" true
    (Fingerprint.digest a <> Fingerprint.digest c);
  Alcotest.(check string) "but not the skeleton" (Fingerprint.skeleton a)
    (Fingerprint.skeleton c)

(* The digest is two-level: one hash per block of
   [Fingerprint.block_chunks] chunks, then one over the block hashes.
   On a netgen design spanning many blocks, change every net's chunk,
   every instance's and the trailer's, one at a time, through
   [refresh]: each change must move the digest and its revert bring
   back the original, and on both sides of every block boundary and
   throughout the last, partial block the maintained digest must equal
   a cold one. *)
let test_fingerprint_blocks () =
  let nl =
    (Netgen.to_netlist (Netgen.generate (Netgen.scaled ~chips:200 ())))
      .Scald_sdl.Expander.e_netlist
  in
  (* [| header; nets; instance count; instances; trailer |] *)
  let n_chunks = Netlist.n_nets nl + Netlist.n_insts nl + 3 in
  let block = Fingerprint.block_chunks in
  Alcotest.(check bool) "the design spans many blocks" true (n_chunks > 4 * block);
  Alcotest.(check bool) "its last block is partial" true (n_chunks mod block <> 0);
  let c = Fingerprint.content nl in
  let d0 = Fingerprint.content_digest c in
  Alcotest.(check string) "maintained = cold" (Fingerprint.digest nl) d0;
  let last_block = n_chunks / block * block in
  let step k ~nets ~insts change revert =
    change ();
    Fingerprint.refresh c nl ~nets ~insts;
    let d = Fingerprint.content_digest c in
    if d = d0 then Alcotest.failf "chunk %d: the change kept the digest" k;
    if k mod block = 0 || k mod block = block - 1 || k >= last_block then
      Alcotest.(check string) (Printf.sprintf "chunk %d: maintained = cold" k)
        (Fingerprint.digest nl) d;
    revert ();
    Fingerprint.refresh c nl ~nets ~insts;
    if Fingerprint.content_digest c <> d0 then
      Alcotest.failf "chunk %d: the revert lost the digest" k
  in
  let bump d = Delay.add d (Delay.of_ns 0.1 0.1) in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id and old = n.Netlist.n_wire_delay in
      step (1 + id) ~nets:[ id ] ~insts:[]
        (fun () ->
          Netlist.set_wire_delay_opt nl id
            (Some (bump (Option.value old ~default:Delay.zero))))
        (fun () -> Netlist.set_wire_delay_opt nl id old));
  Netlist.iter_insts nl (fun i ->
      let id = i.Netlist.i_id and old = i.Netlist.i_prim in
      let k = Netlist.n_nets nl + 2 + id in
      match Primitive.element_delay old with
      | Some d ->
        step k ~nets:[] ~insts:[ id ]
          (fun () -> Netlist.set_element_delay nl id (bump d))
          (fun () -> Netlist.set_element_delay nl id d)
      | None ->
        let edited =
          match old with
          | Primitive.Setup_hold_check m ->
            Primitive.Setup_hold_check { m with setup = m.setup + 1 }
          | Primitive.Setup_rise_hold_fall_check m ->
            Primitive.Setup_rise_hold_fall_check { m with hold = m.hold + 1 }
          | Primitive.Min_pulse_width m ->
            Primitive.Min_pulse_width { m with high = m.high + 1 }
          | Primitive.Const v -> Primitive.Const (List.find (( <> ) v) Tvalue.all)
          | _ -> Alcotest.fail "a primitive with neither a delay nor a parameter"
        in
        step k ~nets:[] ~insts:[ id ]
          (fun () -> Netlist.replace_prim nl id edited)
          (fun () -> Netlist.replace_prim nl id old));
  let corners = Netlist.corners nl in
  step (n_chunks - 1) ~nets:[] ~insts:[]
    (fun () -> Netlist.set_corners nl (Corner.of_spec "typ,slow"))
    (fun () -> Netlist.set_corners nl corners)

(* ---- Edit ------------------------------------------------------------------- *)

let test_edit_apply_and_diff () =
  let base = build_circuit () in
  let edited = build_circuit ~u0_max:3.5 ~data_wire:(Some (Delay.of_ns 0.5 9.0)) () in
  Netlist.set_assertion edited
    (Option.get (Netlist.find edited "DATA"))
    (Some (assertion "S2-6"));
  let edits = Edit.diff base edited in
  Alcotest.(check int) "diff finds the three edits" 3 (List.length edits);
  List.iter (fun e -> ignore (Edit.apply base e)) edits;
  Alcotest.(check string) "replaying the diff reaches the edited digest"
    (Fingerprint.digest edited) (Fingerprint.digest base)

let test_edit_check () =
  let nl = build_circuit () in
  let bad e msg =
    match Edit.check nl e with
    | Ok () -> Alcotest.fail ("accepted: " ^ msg)
    | Error _ -> ()
  in
  Alcotest.(check bool) "valid edit accepted" true
    (Edit.check nl (Edit.Wire_delay { signal = "DATA"; delay = None }) = Ok ());
  bad (Edit.Wire_delay { signal = "NOPE"; delay = None }) "unknown signal";
  bad (Edit.Element_delay { inst = "U9"; delay = Delay.zero }) "unknown instance";
  bad (Edit.Element_delay { inst = "U3"; delay = Delay.zero }) "delay on a checker";
  bad (Edit.Directive { inst = "U1"; input = 5; directive = [] }) "input out of range";
  (* an assertion time beyond Timebase.max_ns under the design's 6.25 ns
     clock unit is rejected, quoting the assertion; the bound passes *)
  let asserting spec =
    Edit.Assertion { signal = "IN0 .S0-6"; assertion = Some (assertion spec) }
  in
  List.iter
    (fun spec ->
      match Edit.check nl (asserting spec) with
      | Ok () -> Alcotest.failf "accepted .%s" spec
      | Error m ->
        Alcotest.(check bool) ("error quotes ." ^ spec) true
          (Test_obs.contains m ("." ^ spec)))
    [ "S1-9999999999"; "S1-160000001" ];
  bad (asserting "S1-99999999999999999999") "assertion time beyond the int range";
  Alcotest.(check bool) "assertion at the bound accepted" true
    (Edit.check nl (asserting "S1-160000000") = Ok ());
  Alcotest.(check bool) "nothing was mutated" true
    (Fingerprint.digest nl = Fingerprint.digest (build_circuit ()))

let test_edit_of_json () =
  let decode s =
    match Json.parse s with
    | Error e -> Alcotest.fail e
    | Ok j -> Edit.of_json j
  in
  (match decode {| {"edit":"wire_delay","signal":"A","min_ns":0.5,"max_ns":3} |} with
  | Ok (Edit.Wire_delay { signal = "A"; delay = Some d }) ->
    Alcotest.(check bool) "delay decoded" true (Delay.equal d (Delay.of_ns 0.5 3.0))
  | _ -> Alcotest.fail "wire_delay decode");
  (match decode {| {"edit":"wire_delay","signal":"A","delay":null} |} with
  | Ok (Edit.Wire_delay { delay = None; _ }) -> ()
  | _ -> Alcotest.fail "wire_delay null decode");
  (match decode {| {"edit":"assertion","signal":"CK","assertion":"P2-3"} |} with
  | Ok (Edit.Assertion { assertion = Some _; _ }) -> ()
  | _ -> Alcotest.fail "assertion decode");
  (match decode {| {"edit":"directive","inst":"U1","input":0,"directive":"H"} |} with
  | Ok (Edit.Directive { input = 0; directive = _ :: _; _ }) -> ()
  | _ -> Alcotest.fail "directive decode");
  (match decode {| {"edit":"cases","text":"IN0 .S0-6 = 0;\nIN0 .S0-6 = 1;\n"} |} with
  | Ok (Edit.Cases [ _; _ ]) -> ()
  | _ -> Alcotest.fail "cases decode");
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error (decode {| {"edit":"rename","signal":"A"} |}));
  Alcotest.(check bool) "missing field rejected" true
    (Result.is_error (decode {| {"edit":"wire_delay"} |}));
  (* out-of-range numbers are rejected, never wrapped *)
  Alcotest.(check bool) "delay beyond the time bound rejected" true
    (Result.is_error
       (decode {| {"edit":"wire_delay","signal":"A","min_ns":0,"max_ns":1e16} |}));
  Alcotest.(check bool) "assertion width beyond the time bound rejected" true
    (Result.is_error
       (decode {| {"edit":"assertion","signal":"A","assertion":"S2+99999999999999999"} |}));
  match decode {| {"edit":"corners","spec":"typ,x=1e308"} |} with
  | Error m ->
    Alcotest.(check bool) ("corner error quotes the spec: " ^ m) true
      (String.ends_with ~suffix:{|(corner spec "typ,x=1e308")|} m)
  | Ok _ -> Alcotest.fail "corners x=1e308 accepted"

(* ---- Session ----------------------------------------------------------------- *)

let edited_cold ?(cases = []) ?(jobs = 1) edits =
  let nl = build_circuit () in
  List.iter (fun e -> ignore (Edit.apply nl e)) edits;
  Verifier.verify ~cases ~jobs nl

let test_session_reverify_equals_cold () =
  let edits =
    [
      Edit.Wire_delay { signal = "DATA"; delay = Some (Delay.of_ns 0.5 9.0) };
      Edit.Element_delay { inst = "U0"; delay = Delay.of_ns 1.0 3.5 };
    ]
  in
  let s = Session.load (build_circuit ()) in
  Alcotest.(check bool) "the edit flips the verdict" true
    ((Session.report s).Verifier.r_violations <> (edited_cold edits).Verifier.r_violations);
  List.iter (Session.stage s) edits;
  Alcotest.(check int) "both edits staged" 2 (Session.pending s);
  let report, st = Session.reverify s in
  let cold = edited_cold edits in
  Alcotest.(check bool) "verdicts equal the cold run" true (verdicts_equal report cold);
  Alcotest.(check string) "listing byte-identical" (cold_listing cold) (Session.listing s);
  Alcotest.(check string) "digest tracks the edits"
    (Fingerprint.digest
       (let nl = build_circuit () in
        List.iter (fun e -> ignore (Edit.apply nl e)) edits;
        nl))
    (Session.digest s);
  Alcotest.(check int) "nothing pending afterwards" 0 (Session.pending s);
  Alcotest.(check bool) "clock's cone was reused" true (st.Session.st_reused_nets > 0);
  (* both reporting instances sit in the edits' cone — U0 was edited
     itself, U3 reads DATA — so every verdict is re-derived and none
     kept; the non-reporting BUF and REG never count *)
  Alcotest.(check int) "no verdict outside the cone to reuse" 0
    st.Session.st_warm_hits;
  Alcotest.(check bool) "the dirty cone was re-verified" true
    (st.Session.st_dirtied_nets > 0 && st.Session.st_evaluations > 0)

let test_session_assertion_and_revert () =
  let s = Session.load (build_circuit ()) in
  let original = Session.listing s in
  (* retarget the clock assertion, then put it back: the session must
     land exactly where it started, through the reassert path both ways *)
  Session.stage s
    (Edit.Assertion { signal = "CK .P2-3"; assertion = Some (assertion "P4-5") });
  let report, _ = Session.reverify s in
  let cold =
    edited_cold
      [ Edit.Assertion { signal = "CK .P2-3"; assertion = Some (assertion "P4-5") } ]
  in
  Alcotest.(check bool) "retargeted assertion equals cold" true
    (verdicts_equal report cold);
  Session.stage s
    (Edit.Assertion { signal = "CK .P2-3"; assertion = Some (assertion "P2-3") });
  let report', _ = Session.reverify s in
  Alcotest.(check bool) "revert restores the original verdicts" true
    (verdicts_equal report' (Session.report (Session.load (build_circuit ()))));
  Alcotest.(check string) "and the original listing" original (Session.listing s);
  Alcotest.(check string) "and the original digest" (Session.id s) (Session.digest s);
  (* a stable assertion given to, then taken from, a driven net: the
     net starts and stops reporting without its waveform moving *)
  let stable = Edit.Assertion { signal = "DATA"; assertion = Some (assertion "S0-1") } in
  Session.stage s stable;
  let report, _ = Session.reverify s in
  let cold = edited_cold [ stable ] in
  Alcotest.(check bool) "the new assertion is violated" true
    (Verifier.violations_of_kind Check.Stable_assertion_violation cold <> []);
  Alcotest.(check bool) "added assertion equals cold" true (verdicts_equal report cold);
  Session.stage s (Edit.Assertion { signal = "DATA"; assertion = None });
  ignore (Session.reverify s);
  Alcotest.(check string) "removing it restores the original listing" original
    (Session.listing s)

let test_session_noop_reverify () =
  let s = Session.load (build_circuit ()) in
  let before = Session.listing s in
  let report, st = Session.reverify s in
  Alcotest.(check string) "verdicts unchanged" before (cold_listing report);
  Alcotest.(check int) "no net dirtied" 0 st.Session.st_dirtied_nets;
  Alcotest.(check int) "no evaluation ran" 0 st.Session.st_evaluations;
  Alcotest.(check bool) "every verdict reused" true (st.Session.st_warm_hits > 0)

(* A wire-delay edit that gives a driven net the delay it already has
   moves that net's stamp and nothing else: its fanout re-derives the
   same waveforms, so no event fires and only the one net is dirtied. *)
let test_session_counts_moved_nets () =
  let nl = build_circuit () in
  let g0 = Option.get (Netlist.find nl "G0") in
  let same = Netlist.wire_delay nl (Netlist.net nl g0) in
  let s = Session.load nl in
  let before = Session.listing s in
  Session.stage s (Edit.Wire_delay { signal = "G0"; delay = Some same });
  let _, st = Session.reverify s in
  Alcotest.(check string) "verdicts unchanged" before (Session.listing s);
  Alcotest.(check int) "only the edited net moved" 1 st.Session.st_dirtied_nets;
  Alcotest.(check int) "no event" 0 st.Session.st_events;
  Alcotest.(check int) "every other net reused" (Netlist.n_nets nl - 1)
    st.Session.st_reused_nets

let test_session_cases_swap () =
  let cases0 = Case_analysis.complete_exn [ "IN0 .S0-6" ] in
  let cases1 = Case_analysis.complete_exn [ "IN0 .S0-6"; "IN1 .S0-6" ] in
  let s = Session.load ~cases:cases0 (build_circuit ()) in
  Session.stage s (Edit.Cases cases1);
  let report, _ = Session.reverify s in
  let cold = Verifier.verify ~cases:cases1 (build_circuit ()) in
  Alcotest.(check bool) "case-group swap equals cold" true (verdicts_equal report cold);
  Alcotest.(check int) "four cases ran" 4 (List.length report.Verifier.r_cases);
  (* swap back down: the old case nets must be re-swept too *)
  Session.stage s (Edit.Cases cases0);
  let report', _ = Session.reverify s in
  Alcotest.(check bool) "swap back equals cold" true
    (verdicts_equal report' (Verifier.verify ~cases:cases0 (build_circuit ())))

let test_session_corners_edit () =
  let corners = Corner.of_spec "typ,slow,hot=1.4/1.2" in
  let s = Session.load (build_circuit ()) in
  let base_digest = Session.digest s in
  Session.stage s (Edit.Corners corners);
  let report, _ = Session.reverify s in
  let cold = edited_cold [ Edit.Corners corners ] in
  Alcotest.(check bool) "corners edit equals cold" true (verdicts_equal report cold);
  Alcotest.(check int) "three corner verdicts" 3
    (List.length report.Verifier.r_corners);
  List.iter2
    (fun (a : Verifier.corner_result) (b : Verifier.corner_result) ->
      Alcotest.(check string) "corner order preserved"
        b.Verifier.co_corner.Corner.name a.Verifier.co_corner.Corner.name;
      Alcotest.(check bool)
        (a.Verifier.co_corner.Corner.name ^ " lane verdicts equal cold") true
        (a.Verifier.co_violations = b.Verifier.co_violations))
    report.Verifier.r_corners cold.Verifier.r_corners;
  (* the table is a replayable parameter (doc/CORNERS.md): the digest
     moves with it, the skeleton doesn't *)
  let edited = build_circuit () in
  ignore (Edit.apply edited (Edit.Corners corners));
  Alcotest.(check bool) "corner table moves the digest" true
    (Session.digest s <> base_digest);
  Alcotest.(check string) "digest tracks the edit" (Fingerprint.digest edited)
    (Session.digest s);
  Alcotest.(check string) "but not the skeleton"
    (Fingerprint.skeleton (build_circuit ()))
    (Fingerprint.skeleton edited);
  (* shrinking back to the single-corner default re-creates the lanes
     and lands exactly where the session started *)
  Session.stage s (Edit.Corners Corner.default);
  let report', _ = Session.reverify s in
  Alcotest.(check bool) "revert equals a fresh single-corner load" true
    (verdicts_equal report' (Session.report (Session.load (build_circuit ()))));
  (match report'.Verifier.r_corners with
  | [ c ] ->
    Alcotest.(check string) "only the reference corner left" "typ"
      c.Verifier.co_corner.Corner.name
  | cs ->
    Alcotest.failf "expected a single corner entry, got %d" (List.length cs));
  Alcotest.(check string) "and the original digest" base_digest (Session.digest s)

(* A checker-margin edit moves no input stamp: the session must have the
   checker re-derived on every corner lane, not just the reference's,
   or the slow corner keeps reporting the old margin. *)
let test_session_margin_edit_all_corners () =
  let build () =
    let nl = build_circuit ~u3_setup:2.0 () in
    Netlist.set_corners nl (Corner.of_spec "typ,slow");
    nl
  in
  let edit =
    Edit.Replace_prim
      {
        inst = "U3";
        prim =
          Primitive.Setup_hold_check
            { setup = Timebase.ps_of_ns 3.0; hold = Timebase.ps_of_ns 1.0 };
      }
  in
  let s = Session.load (build ()) in
  Session.stage s edit;
  let report, _ = Session.reverify s in
  let cold =
    let nl = build () in
    ignore (Edit.apply nl edit);
    Verifier.verify nl
  in
  Alcotest.(check bool) "verdicts equal the cold run" true (verdicts_equal report cold);
  List.iter2
    (fun (a : Verifier.corner_result) (b : Verifier.corner_result) ->
      Alcotest.(check bool)
        (a.Verifier.co_corner.Corner.name ^ " corner equals the cold run")
        true
        (a.Verifier.co_violations = b.Verifier.co_violations))
    report.Verifier.r_corners cold.Verifier.r_corners;
  let slow = List.nth report.Verifier.r_corners 1 in
  match
    List.find_opt
      (fun (v : Check.t) -> v.Check.v_kind = Check.Setup_violation)
      slow.Verifier.co_violations
  with
  | Some v ->
    Alcotest.(check int) "slow corner reports the edited setup margin" 3000
      v.Check.v_required
  | None -> Alcotest.fail "slow corner lost its setup violation"

(* IN .S0-4 -> BUF -> D ; SETUP HOLD CHK (D, CK .P2-3).  At the default
   delays the checker is statically proven clean by the arrival-window
   analysis (doc/WINDOWS.md). *)
let build_window_circuit ?(d_wire = None) () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let inp = Netlist.signal nl "IN .S0-4" in
  let ck = Netlist.signal nl "CK .P2-3" in
  let d = Netlist.signal nl "D" in
  (match d_wire with None -> () | Some w -> Netlist.set_wire_delay_opt nl d (Some w));
  ignore
    (Netlist.add nl ~name:"U0"
       (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn inp ] ~output:(Some d));
  ignore
    (Netlist.add nl ~name:"CHK"
       (Primitive.Setup_hold_check
          { setup = Timebase.ps_of_ns 2.5; hold = Timebase.ps_of_ns 1.5 })
       ~inputs:[ Netlist.conn d; Netlist.conn ck ]
       ~output:None);
  nl

let test_session_proven_checker_tracks_edits () =
  let s = Session.load (build_window_circuit ()) in
  let r0 = Session.report s in
  Alcotest.(check int) "no violations while proven" 0
    (List.length r0.Verifier.r_violations);
  (* a wire-delay edit inside the checker's cone withdraws the proof:
     the checker reports exactly what a cold run on the edited netlist
     reports *)
  let slow = Delay.of_ns 0.0 12.0 in
  Session.stage s (Edit.Wire_delay { signal = "D"; delay = Some slow });
  let report, _ = Session.reverify s in
  let cold =
    Verifier.verify ~jobs:1 (build_window_circuit ~d_wire:(Some slow) ())
  in
  Alcotest.(check bool) "the edit surfaces real violations" true
    (cold.Verifier.r_violations <> []);
  Alcotest.(check bool) "edited checker equals the cold run" true
    (verdicts_equal report cold);
  (* reverting the delay restores the proof and the clean verdict *)
  Session.stage s (Edit.Wire_delay { signal = "D"; delay = None });
  let report', _ = Session.reverify s in
  Alcotest.(check bool) "revert restores the proven-clean verdict" true
    (verdicts_equal report'
       (Session.report (Session.load (build_window_circuit ()))))

let test_session_counters_carry () =
  let s = Session.load (build_circuit ()) in
  Session.stage s (Edit.Wire_delay { signal = "DATA"; delay = Some (Delay.of_ns 0.5 9.0) });
  let r1, st1 = Session.reverify s in
  (* one snapshot per report: the carried one is the cumulative one,
     and every view of the report reads it *)
  Alcotest.(check bool) "carried snapshot equals the cumulative counters" true
    (r1.Verifier.r_counters = Session.cumulative s);
  Alcotest.(check bool) "r_obs is the snapshot's view" true
    (r1.Verifier.r_obs = Verifier.obs_of_counters (Session.cumulative s));
  let cum1 = Eval.counter (Session.cumulative s) "evaluations" in
  Alcotest.(check int) "r_evaluations reads the carried snapshot" cum1
    r1.Verifier.r_evaluations;
  Alcotest.(check bool) "cumulative includes the cold run" true
    (cum1 > st1.Session.st_evaluations);
  Session.stage s (Edit.Wire_delay { signal = "DATA"; delay = None });
  let r2, st2 = Session.reverify ~carry_counters:false s in
  Alcotest.(check bool) "carry_counters:false reports this request alone" true
    (r2.Verifier.r_obs.Verifier.os_queued
    < (Verifier.obs_of_counters (Session.cumulative s)).Verifier.os_queued);
  Alcotest.(check int) "uncarried r_events is this request's" st2.Session.st_events
    r2.Verifier.r_events;
  Alcotest.(check bool) "cumulative keeps growing regardless" true
    (Eval.counter (Session.cumulative s) "evaluations"
    = cum1 + st2.Session.st_evaluations)

(* The maintained content follows edits through a feedback component —
   s1_subset's loop — and a revert brings back the loaded design's
   digest. *)
let test_session_digest_feedback () =
  let load () =
    let src = In_channel.with_open_bin "../examples/s1_subset.sdl" In_channel.input_all in
    match Result.bind (Scald_sdl.Parser.parse src) Scald_sdl.Expander.expand with
    | Ok e -> e.Scald_sdl.Expander.e_netlist
    | Error m -> Alcotest.fail m
  in
  let s = Session.load (load ()) in
  let nl = Session.netlist s in
  let sched = Sched.compute nl in
  let loop = List.filter (fun id -> Sched.cyclic_slot sched id >= 0) (List.init (Netlist.n_insts nl) Fun.id) in
  let member =
    Netlist.inst nl
      (List.find
         (fun id ->
           Edit.check nl
             (Edit.Element_delay { inst = (Netlist.inst nl id).i_name; delay = Delay.zero })
           = Ok ())
         loop)
  in
  let step edits =
    List.iter (Session.stage s) edits;
    ignore (Session.reverify s);
    Alcotest.(check string) "digest equals a full recompute" (Fingerprint.digest nl)
      (Session.digest s)
  in
  let out = Netlist.net nl (Option.get member.i_output) in
  step
    [
      Edit.Element_delay { inst = member.i_name; delay = Delay.of_ns 1.0 7.0 };
      Edit.Wire_delay { signal = out.n_name; delay = Some (Delay.of_ns 0.5 4.0) };
    ];
  Alcotest.(check bool) "the edit moved the digest" true (Session.digest s <> Session.id s);
  step (Edit.diff nl (load ()));
  Alcotest.(check string) "the revert restores the loaded digest" (Session.id s)
    (Session.digest s)

(* ---- Store -------------------------------------------------------------------- *)

let test_store_warm_adopt_cold () =
  let st = Store.create () in
  (* the store counts nothing: tally the outcomes it returns *)
  let outcomes = ref [] in
  let load nl =
    let o = Store.load st nl in
    outcomes := o :: !outcomes;
    o
  in
  let tally p = List.length (List.filter p !outcomes) in
  let s0 =
    match load (build_circuit ()) with
    | Store.Cold s -> s
    | _ -> Alcotest.fail "first load must be cold"
  in
  (match load (build_circuit ()) with
  | Store.Warm s -> Alcotest.(check string) "warm hit on the same design" (Session.id s0) (Session.id s)
  | _ -> Alcotest.fail "identical design must load warm");
  (match load (build_circuit ~u0_max:3.5 ()) with
  | Store.Adopted (s, staged) ->
    Alcotest.(check string) "adopted the structural twin" (Session.id s0) (Session.id s);
    Alcotest.(check int) "the parameter diff was staged" 1 staged;
    let report, _ = Session.reverify s in
    Alcotest.(check bool) "adopted re-verify equals cold" true
      (verdicts_equal report (edited_cold [ Edit.Element_delay { inst = "U0"; delay = Delay.of_ns 1.0 3.5 } ]));
    (* the session now IS the tweaked design: re-submitting it is warm *)
    (match load (build_circuit ~u0_max:3.5 ()) with
    | Store.Warm _ -> ()
    | _ -> Alcotest.fail "edited-into design must load warm")
  | _ -> Alcotest.fail "structural twin must be adopted");
  (match load (Netlist.create (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25) ~default_wire_delay:Delay.zero) with
  | Store.Cold _ -> ()
  | _ -> Alcotest.fail "a different structure must load cold");
  Alcotest.(check string) "the cold session's skeleton is the design's"
    (Fingerprint.skeleton (build_circuit ())) (Session.skeleton s0);
  Alcotest.(check int) "two sessions live" 2 (Store.n_sessions st);
  Alcotest.(check int) "five loads" 5 (tally (fun _ -> true));
  Alcotest.(check int) "two warm" 2 (tally (function Store.Warm _ -> true | _ -> false));
  Alcotest.(check int) "one adopted" 1
    (tally (function Store.Adopted _ -> true | _ -> false));
  Alcotest.(check bool) "find by handle" true
    (Store.find st (Session.id s0) <> None);
  Alcotest.(check bool) "find by unknown handle" true (Store.find st "xyz" = None)

(* ---- Serve -------------------------------------------------------------------- *)

let inline_source =
  "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/1.0;\n\
   1 CHG (DELAY=1.0/3.0) (A .S0-6) -> B;\n\
   REG (DELAY=1.5/4.5) (B, CK .P2-3) -> Q;\n\
   SETUP HOLD CHK (SETUP=8.0, HOLD=1.0) (B, CK .P2-3);\n"

(* The CI "Serve proven-checker smoke" design. *)
let proven_checker_source =
  "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/2.0;\n\
   2 AND (DELAY=1.0/2.0) (IN A .S0-4, IN B .S0-4) -> D;\n\
   SETUP HOLD CHK (SETUP=2.5, HOLD=1.5) (D, CK .P2-3);\n"

let serve_req t line =
  let resp, cont = Serve.handle_line t line in
  match Json.parse resp with
  | Ok j -> (j, cont)
  | Error e -> Alcotest.fail (Printf.sprintf "unparseable response %s: %s" resp e)

let jbool key j = Option.bind (Json.member key j) Json.bool
let jint key j = Option.bind (Json.member key j) Json.int
let jstr key j = Option.bind (Json.member key j) Json.str

(* Every instance of a macro body line is named head.line, so names
   repeat across calls: on CI's 300-chip netgen design 14 instances are
   "2 OR.9".  An edit naming one of them is rejected instead of editing
   the first; a load that differs from a live session on such an
   instance loads cold; a unique name still edits and adopts. *)
let test_shared_instance_names () =
  let source =
    Netgen.to_sdl (Netgen.generate (Netgen.scaled ~seed:4 ~broken_registers:2 ~chips:300 ()))
  in
  let expand () =
    match Scald_sdl.Expander.load source with
    | Ok e -> e.Scald_sdl.Expander.e_netlist
    | Error m -> Alcotest.fail m
  in
  let nl = expand () in
  let shared = "2 OR.9" in
  let ids = Netlist.insts_named nl shared in
  Alcotest.(check int) "14 instances share the name" 14 (List.length ids);
  let msg = "instance \"2 OR.9\" names 14 instances" in
  let first = Netlist.inst nl (List.hd ids) in
  List.iter
    (fun e ->
      Alcotest.(check (result unit string)) "check rejects it" (Error msg) (Edit.check nl e);
      match Edit.apply nl e with
      | _ -> Alcotest.fail "apply edited a shared name"
      | exception Invalid_argument m ->
        Alcotest.(check string) "apply rejects it" ("Edit.apply: " ^ msg) m)
    [
      Edit.Element_delay { inst = shared; delay = Delay.of_ns 1.0 9.0 };
      Edit.Directive { inst = shared; input = 0; directive = [ Directive.H ] };
      Edit.Replace_prim { inst = shared; prim = first.i_prim };
    ];
  Alcotest.(check bool) "the first instance kept its delay" true
    ((Netlist.inst nl (List.hd ids)).i_prim == first.i_prim);
  (* through serve: the delta names the name and stages nothing *)
  let t = Serve.create () in
  let load, _ =
    serve_req t (Json.to_string (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str source) ]))
  in
  Alcotest.(check (option bool)) "load ok" (Some true) (jbool "ok" load);
  let delta, _ =
    serve_req t
      {| {"op":"delta","edits":[{"edit":"element_delay","inst":"2 OR.9","min_ns":1,"max_ns":9}]} |}
  in
  Alcotest.(check (option bool)) "delta rejected" (Some false) (jbool "ok" delta);
  Alcotest.(check (option string)) "naming the shared name" (Some msg) (jstr "error" delta);
  let v, _ = serve_req t {| {"op":"verify"} |} in
  Alcotest.(check (option bool)) "nothing staged" (Some false) (jbool "fresh" v);
  (* a unique name (the one top-level primitive, GND's ZERO) still
     edits; a design differing there is adopted, one differing on the
     third "2 OR.9" loads cold *)
  let gnd =
    List.find
      (fun id -> match (Netlist.inst nl id).i_prim with Primitive.Const _ -> true | _ -> false)
      (List.init (Netlist.n_insts nl) Fun.id)
  in
  let one = Primitive.Const Tvalue.V1 in
  let gnd_name = (Netlist.inst nl gnd).i_name in
  Alcotest.(check (list int)) "GND's source has a name of its own" [ gnd ]
    (Netlist.insts_named nl gnd_name);
  Alcotest.(check (result unit string)) "a unique name checks" (Ok ())
    (Edit.check nl (Edit.Replace_prim { inst = gnd_name; prim = one }));
  let tweaked edit =
    let nl = expand () in
    edit nl;
    nl
  in
  let slower_or nl = Netlist.set_element_delay nl (List.nth ids 2) (Delay.of_ns 1.0 9.0) in
  let st = Store.create () in
  ignore (Store.load st (expand ()));
  (match Store.load st (tweaked slower_or) with
  | Store.Cold s ->
    Alcotest.(check bool) "the cold session verifies the tweaked design" true
      (verdicts_equal (Session.report s) (Session.report (Session.load (tweaked slower_or))))
  | Store.Warm _ | Store.Adopted _ -> Alcotest.fail "a shared-name difference must load cold");
  let st = Store.create () in
  ignore (Store.load st (expand ()));
  match Store.load st (tweaked (fun nl -> Netlist.replace_prim nl gnd one)) with
  | Store.Adopted (_, staged) -> Alcotest.(check int) "one edit staged" 1 staged
  | Store.Warm _ | Store.Cold _ -> Alcotest.fail "a unique-name difference must be adopted"

let test_serve_protocol () =
  let t = Serve.create () in
  (match Json.parse (Json.to_string (Serve.hello ())) with
  | Ok h ->
    Alcotest.(check (option string)) "hello names the protocol" (Some Version.protocol)
      (jstr "protocol" h)
  | Error e -> Alcotest.fail e);
  let bad, cont = serve_req t "this is not json" in
  Alcotest.(check (option bool)) "bad JSON answered, not fatal" (Some false)
    (jbool "ok" bad);
  Alcotest.(check bool) "loop continues" true cont;
  let unknown, _ = serve_req t {| {"op":"frobnicate"} |} in
  Alcotest.(check (option bool)) "unknown op rejected" (Some false) (jbool "ok" unknown);
  let noload, _ = serve_req t {| {"op":"verify"} |} in
  Alcotest.(check (option bool)) "verify before load rejected" (Some false)
    (jbool "ok" noload);
  let load, _ =
    serve_req t
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str inline_source) ]))
  in
  Alcotest.(check (option bool)) "load ok" (Some true) (jbool "ok" load);
  Alcotest.(check (option string)) "cold" (Some "cold") (jstr "mode" load);
  let session = Option.get (jstr "session" load) in
  (* atomicity: a delta with one bad edit stages nothing *)
  let bad_delta, _ =
    serve_req t
      {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9},{"edit":"wire_delay","signal":"NOPE","min_ns":0,"max_ns":1}]} |}
  in
  Alcotest.(check (option bool)) "bad delta rejected" (Some false) (jbool "ok" bad_delta);
  let v0, _ = serve_req t {| {"op":"verify"} |} in
  Alcotest.(check (option bool)) "nothing staged by the rejected delta" (Some false)
    (jbool "fresh" v0);
  let delta, _ =
    serve_req t {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9}]} |}
  in
  Alcotest.(check (option int)) "edit staged" (Some 1) (jint "staged" delta);
  let v1, _ = serve_req t (Printf.sprintf {| {"op":"verify","session":"%s"} |} session) in
  Alcotest.(check (option bool)) "fresh re-verify ran" (Some true) (jbool "fresh" v1);
  Alcotest.(check bool) "some nets reused" true (Option.get (jint "reused_nets" v1) > 0);
  Alcotest.(check bool) "some nets dirtied" true (Option.get (jint "dirtied_nets" v1) > 0);
  let stats, _ = serve_req t {| {"op":"stats"} |} in
  Alcotest.(check (option int)) "one session" (Some 1) (jint "sessions" stats);
  Alcotest.(check (option int)) "requests counted" (Some 9) (jint "requests" stats);
  (* Malformed requests against two live sessions: an out-of-range
     input index, and optional fields of the wrong type.  Each must fail
     and name its field, stage nothing and leave both sessions as they
     were. *)
  let load2, _ =
    serve_req t
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str proven_checker_source) ]))
  in
  Alcotest.(check (option string)) "second session loaded" (Some "cold") (jstr "mode" load2);
  let snapshot () =
    List.map
      (fun s ->
        (Session.id s, Session.digest s, Session.pending s, (Session.stats s).Session.st_requests))
      (Store.sessions (Serve.store t))
  in
  let rejected ~field line =
    let before = snapshot () in
    let r, _ = serve_req t line in
    Alcotest.(check (option bool)) (line ^ " rejected") (Some false) (jbool "ok" r);
    Alcotest.(check bool) (line ^ " names " ^ field) true
      (Test_obs.contains (Option.value ~default:"" (jstr "error" r)) field);
    Alcotest.(check bool) (line ^ " changes no session") true (before = snapshot ())
  in
  rejected ~field:"input"
    {| {"op":"delta","edits":[{"edit":"directive","inst":"2 AND.4","input":1e19,"directive":"Z"}]} |};
  rejected ~field:"input"
    {| {"op":"delta","edits":[{"edit":"directive","inst":"2 AND.4","input":18446744073709551616,"directive":"Z"}]} |};
  rejected ~field:"session"
    {| {"op":"delta","session":7,"edits":[{"edit":"wire_delay","signal":"D","min_ns":0,"max_ns":12}]} |};
  let staged, _ =
    serve_req t {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"D","min_ns":0,"max_ns":12}]} |}
  in
  Alcotest.(check (option int)) "a well-formed edit stages" (Some 1) (jint "staged" staged);
  rejected ~field:"session" {| {"op":"verify","session":7} |};
  rejected ~field:"listing" {| {"op":"verify","listing":3} |};
  rejected ~field:"carry_counters" {| {"op":"verify","carry_counters":"no"} |};
  rejected ~field:"cases_file"
    (Json.to_string
       (Json.Obj
          [
            ("op", Json.Str "load");
            ("file", Json.Str "../examples/s1_subset.sdl");
            ("cases_file", Json.Num 5.);
          ]));
  rejected ~field:"file"
    (Json.to_string
       (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str inline_source); ("file", Json.Num 5.) ]));
  rejected ~field:"source"
    (Json.to_string
       (Json.Obj
          [ ("op", Json.Str "load"); ("file", Json.Str "../examples/s1_subset.sdl"); ("source", Json.Bool true) ]));
  let v2, _ = serve_req t {| {"op":"verify"} |} in
  Alcotest.(check (option bool)) "the staged edit survives to a good verify" (Some true)
    (jbool "fresh" v2);
  (* A load whose case group names a signal the design lacks fails as a
     load, on a design that is live with other cases: no session is
     adopted onto it or changed. *)
  let s1, _ =
    serve_req t
      {| {"op":"load","file":"../examples/s1_subset.sdl","cases_file":"../examples/s1_subset.cases"} |}
  in
  Alcotest.(check (option string)) "s1_subset loaded" (Some "cold") (jstr "mode" s1);
  let live () =
    List.map
      (fun s ->
        ( (Session.id s, Session.digest s, Session.pending s, List.length (Session.cases s)),
          Session.report s ))
      (Store.sessions (Serve.store t))
  in
  let before = live () in
  let bad_cases, _ =
    serve_req t
      {| {"op":"load","file":"../examples/s1_subset.sdl","cases":"NO SUCH SIGNAL = 0;"} |}
  in
  Alcotest.(check (option bool)) "unknown case signal rejected" (Some false)
    (jbool "ok" bad_cases);
  Alcotest.(check (option string)) "answered as a load" (Some "load") (jstr "op" bad_cases);
  Alcotest.(check bool) "the error names the signal" true
    (Test_obs.contains (Option.value ~default:"" (jstr "error" bad_cases)) "NO SUCH SIGNAL");
  (* a directory as the design or the cases file: the error names it,
     once, and loads nothing *)
  List.iter
    (fun line ->
      let r, _ = serve_req t line in
      Alcotest.(check (option string)) (line ^ ": names the directory once")
        (Some "../examples: Is a directory") (jstr "error" r))
    [
      {| {"op":"load","file":"../examples"} |};
      {| {"op":"load","file":"../examples/s1_subset.sdl","cases_file":"../examples"} |};
    ];
  let after = live () in
  Alcotest.(check bool) "no session changed" true
    (List.length before = List.length after
    && List.for_all2 (fun (k, r) (k', r') -> k = k' && r == r') before after);
  let bye, cont = serve_req t {| {"op":"shutdown"} |} in
  Alcotest.(check (option bool)) "shutdown ok" (Some true) (jbool "ok" bye);
  Alcotest.(check bool) "loop ends" false cont

(* A case group naming signals the design lacks names each at its line,
   all at once, whether it comes inline, from a file or in a [cases]
   edit; a rejected edit stages nothing. *)
let test_serve_case_lines () =
  let t = Serve.create () in
  let source = "PERIOD 50.0;\n2 OR (DELAY=1.0/2.0) (A .S0-4, B .S0-4) -> Q;\n" in
  let text = "A .S0-4 = 1;\nX = 0, B .S0-4 = 1;\nA .S0-4 = 0;\nY = 1, Z = 0;\n" in
  let expected = {|line 2: unknown signal "X"; line 4: unknown signals "Y", "Z"|} in
  let path = Filename.temp_file "serve_cases" ".cases" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let load cases =
    Json.to_string (Json.Obj ([ ("op", Json.Str "load"); ("source", Json.Str source) ] @ cases))
  in
  let error what line want =
    let r, _ = serve_req t line in
    Alcotest.(check (option string)) what (Some want) (jstr "error" r)
  in
  error "inline, one line" (load [ ("cases", Json.Str "A = 1;") ]) {|line 1: unknown signal "A"|};
  error "inline" (load [ ("cases", Json.Str text) ]) expected;
  error "from a file" (load [ ("cases_file", Json.Str path) ]) expected;
  Sys.remove path;
  let r, _ = serve_req t (load []) in
  Alcotest.(check (option bool)) "loads without cases" (Some true) (jbool "ok" r);
  error "a cases edit"
    (Json.to_string
       (Json.Obj
          [
            ("op", Json.Str "delta");
            ("edits", Json.List [ Json.Obj [ ("edit", Json.Str "cases"); ("text", Json.Str text) ] ]);
          ]))
    expected;
  match Store.latest (Serve.store t) with
  | Some s -> Alcotest.(check int) "nothing staged" 0 (Session.pending s)
  | None -> Alcotest.fail "no session"

let test_serve_matches_cli_listing () =
  (* the serve-mode listing file must be byte-identical to what the CLI
     prints for the equivalent cold design *)
  let t = Serve.create () in
  ignore
    (serve_req t
       (Json.to_string
          (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str inline_source) ])));
  ignore
    (serve_req t {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0.0,"max_ns":9.0}]} |});
  let path = Filename.temp_file "scald_serve" ".txt" in
  let v, _ =
    serve_req t
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "verify"); ("listing", Json.Str path) ]))
  in
  Alcotest.(check (option bool)) "verify ok" (Some true) (jbool "ok" v);
  let ic = open_in_bin path in
  let listing = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let cold =
    match Scald_sdl.Parser.parse inline_source with
    | Error e -> Alcotest.fail e
    | Ok ast -> (
      match Scald_sdl.Expander.expand ast with
      | Error e -> Alcotest.fail e
      | Ok { Scald_sdl.Expander.e_netlist = nl; _ } ->
        Netlist.set_wire_delay_opt nl
          (Option.get (Netlist.find nl "B"))
          (Some (Delay.of_ns 0.0 9.0));
        Verifier.verify nl)
  in
  Alcotest.(check bool) "the edit produced violations" true
    (cold.Verifier.r_violations <> []);
  Alcotest.(check string) "serve listing equals the cold CLI listing"
    (cold_listing cold) listing

(* ---- serve telemetry ----------------------------------------------------------- *)

(* each reading advances the clock by [step] seconds, so every span and
   request duration is a pure function of the request sequence *)
let ticking_clock step =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := !t +. step;
    v

let telemetry_script =
  [
    Json.to_string
      (Json.Obj [ ("op", Json.Str "load"); ("source", Json.Str inline_source) ]);
    {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9}]} |};
    {| {"op":"verify"} |};
    {| {"op":"verify"} |};
  ]

let test_serve_health () =
  let t = Serve.create () in
  List.iter (fun line -> ignore (serve_req t line)) telemetry_script;
  let h, cont = serve_req t {| {"op":"health"} |} in
  Alcotest.(check bool) "loop continues" true cont;
  Alcotest.(check (option bool)) "ok" (Some true) (jbool "ok" h);
  Alcotest.(check (option string)) "op" (Some "health") (jstr "op" h);
  Alcotest.(check (option int)) "requests" (Some 5) (jint "requests" h);
  Alcotest.(check (option int)) "errors" (Some 0) (jint "errors" h);
  Alcotest.(check (option int)) "sessions" (Some 1) (jint "sessions" h);
  Alcotest.(check bool) "uptime present" true (jint "uptime_us" h <> None);
  Alcotest.(check bool) "slow counter present" true (jint "slow_requests" h <> None);
  Alcotest.(check bool) "hit rate present" true
    (Option.bind (Json.member "cache_hit_rate" h) Json.num <> None);
  Alcotest.(check bool) "bytes per primitive present" true
    (Option.bind (Json.member "bytes_per_primitive" h) Json.num <> None);
  (match Json.member "mem" h with
  | Some mem ->
    Alcotest.(check bool) "live heap words" true (Option.get (jint "heap_words" mem) > 0);
    Alcotest.(check bool) "rss non-negative" true (Option.get (jint "peak_rss_kb" mem) >= 0);
    List.iter
      (fun k ->
        Alcotest.(check bool) (k ^ " present") true (Json.member k mem <> None))
      [ "minor_words"; "promoted_words"; "major_words"; "compactions" ]
  | None -> Alcotest.fail "no mem object");
  match Json.member "latency_us" h with
  | Some lat ->
    (* the script ran 1 load, 1 delta, 2 verifies; health itself is
       timed after its response is built *)
    Alcotest.(check (option int)) "load count" (Some 1)
      (Option.bind (Json.member "load" lat) (jint "count"));
    Alcotest.(check (option int)) "verify count" (Some 2)
      (Option.bind (Json.member "verify" lat) (jint "count"));
    Alcotest.(check bool) "health not yet timed" true (Json.member "health" lat = None);
    List.iter
      (fun q ->
        Alcotest.(check bool) (q ^ " present") true
          (Option.bind (Json.member "verify" lat) (fun v -> Json.member q v) <> None))
      [ "p50_us"; "p90_us"; "p99_us"; "max_us" ]
  | None -> Alcotest.fail "no latency_us object"

let test_serve_deterministic_quantiles () =
  let run_script () =
    let t =
      Serve.create ~obs:(Scald_obs.Obs.create ~clock:(ticking_clock 1e-4) ()) ()
    in
    List.iter (fun line -> ignore (serve_req t line)) telemetry_script;
    let stats, _ = serve_req t {| {"op":"stats"} |} in
    stats
  in
  let a = run_script () and b = run_script () in
  let lat j = Option.get (Json.member "latency_us" j) in
  Alcotest.(check bool) "identical runs, identical quantiles" true (lat a = lat b);
  Alcotest.(check string) "identical serialization" (Json.to_string (lat a))
    (Json.to_string (lat b));
  (* a single observation reports itself at every quantile *)
  match Json.member "load" (lat a) with
  | Some load ->
    let f q = Option.bind (Json.member q load) Json.num in
    Alcotest.(check bool) "one load" true (jint "count" load = Some 1);
    Alcotest.(check bool) "p50 = p99 = max for a single sample" true
      (f "p50_us" = f "p99_us" && f "p99_us" = f "max_us" && f "max_us" <> None)
  | None -> Alcotest.fail "no load latency"

let test_serve_lanes_and_slow () =
  let t =
    Serve.create
      ~obs:(Scald_obs.Obs.create ~clock:(ticking_clock 1e-4) ())
      ~slow_ms:0.0 ()
  in
  List.iter (fun line -> ignore (serve_req t line)) telemetry_script;
  ignore (serve_req t {| {"op":"stats"} |});
  (* load/delta/verify produce spans, so each got a named trace lane;
     stats does not *)
  Alcotest.(check (list (pair int string))) "one lane per span-producing request"
    [ (1, "r1:load"); (2, "r2:delta"); (3, "r3:verify"); (4, "r4:verify") ]
    (Serve.lanes t);
  let stats, _ = serve_req t {| {"op":"stats"} |} in
  (* with a 0ms threshold and a strictly ticking clock, every finished
     request is slow (the latest stats request is not yet counted) *)
  Alcotest.(check (option int)) "all requests slow" (Some 5) (jint "slow_requests" stats);
  (* each flag that reads the request timing telemetry off skips is
     refused, [run]'s --trace before it reads input or writes a file *)
  List.iter
    (fun (flag, start) ->
      Alcotest.check_raises ("telemetry off refuses " ^ flag)
        (Invalid_argument (flag ^ " needs the per-request timing that --no-telemetry turns off"))
        start)
    [
      ("--slow-ms", fun () -> ignore (Serve.create ~telemetry:false ~slow_ms:0.0 ()));
      ("--log", fun () -> ignore (Serve.create ~telemetry:false ~log:stderr ()));
      ("--prom", fun () -> ignore (Serve.create ~telemetry:false ~prom:"unwritten.prom" ()));
      ( "--trace",
        fun () -> ignore (Serve.run ~telemetry:false ~trace:"unwritten.json" stdin stdout) );
    ];
  let no_telem = Serve.create ~telemetry:false () in
  List.iter (fun line -> ignore (serve_req no_telem line)) telemetry_script;
  Alcotest.(check (list (pair int string))) "telemetry off: no lanes" []
    (Serve.lanes no_telem);
  let stats, _ = serve_req no_telem {| {"op":"stats"} |} in
  Alcotest.(check (option int)) "telemetry off: nothing timed" (Some 0)
    (jint "slow_requests" stats);
  match Json.member "latency_us" stats with
  | Some (Json.Obj []) -> ()
  | _ -> Alcotest.fail "telemetry off: latency_us must be empty"

(* --prom rewrites its file at most once per 250 ms of the service
   clock, and on every stats and health: a request inside the interval
   leaves the file as it was, the first one past it rewrites it.  The
   end of [Serve.run] writes it once more, so the file counts every
   request. *)
let test_serve_prom_interval () =
  let now = ref 0.0 in
  let obs = Scald_obs.Obs.create ~clock:(fun () -> !now) () in
  let prom = Filename.temp_file "serve" ".prom" in
  Sys.remove prom;
  let read () = In_channel.with_open_bin prom In_channel.input_all in
  let t = Serve.create ~obs ~prom () in
  let at s line =
    now := s;
    ignore (serve_req t line)
  in
  at 0.0 (List.hd telemetry_script);
  Alcotest.(check bool) "the first request writes the file" true (Sys.file_exists prom);
  let first = read () in
  at 0.1 (List.nth telemetry_script 1);
  at 0.2499 {| {"op":"verify"} |};
  Alcotest.(check string) "requests inside the interval leave it" first (read ());
  at 0.25 {| {"op":"verify"} |};
  let past = read () in
  Alcotest.(check bool) "the first past it rewrites it" true (past <> first);
  at 0.251 {| {"op":"health"} |};
  let health = read () in
  Alcotest.(check bool) "health rewrites it" true (health <> past);
  at 0.252 {| {"op":"stats"} |};
  let stats = read () in
  Alcotest.(check bool) "stats rewrites it" true (stats <> health);
  at 0.3 {| {"op":"verify"} |};
  Alcotest.(check string) "and restarts the interval" stats (read ());
  Sys.remove prom;
  let requests = Filename.temp_file "serve" ".jsonl" in
  Out_channel.with_open_bin requests (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) telemetry_script);
  let ic = open_in_bin requests in
  let oc = open_out_bin Filename.null in
  ignore (Serve.run ~prom ic oc);
  close_in ic;
  close_out oc;
  Sys.remove requests;
  let verifies = read () in
  Sys.remove prom;
  Alcotest.(check bool) "the end of run writes every request" true
    (List.mem {|scald_requests_total{op="verify"} 2|} (String.split_on_char '\n' verifies))

(* A service that writes no trace keeps no per-request history: after
   many edit/verify cycles its profiler holds no span and names no
   lane, yet its metrics file's phases_s are the per-name sums of the
   spans a traced twin on the same clock kept — the twin whose lanes
   and spans a trace file shows. *)
let test_serve_keeps_no_spans_without_trace () =
  let cycles = 20 in
  let script =
    List.hd telemetry_script
    :: List.concat
         (List.init cycles (fun i ->
              [
                (if i mod 2 = 0 then
                   {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9}]} |}
                 else {| {"op":"delta","edits":[{"edit":"wire_delay","signal":"B","delay":null}]} |});
                {| {"op":"verify"} |};
              ]))
  in
  let serve keep_spans =
    let obs = Scald_obs.Obs.create ~clock:(ticking_clock 1e-4) ~keep_spans () in
    let t = Serve.create ~obs () in
    List.iter (fun line -> ignore (serve_req t line)) script;
    (t, Scald_obs.Obs.profiler obs)
  in
  let plain, plain_prof = serve false and traced, traced_prof = serve true in
  Alcotest.(check int) "no span kept" 0 (List.length (Scald_obs.Span.spans plain_prof));
  Alcotest.(check (list (pair int string))) "no lane named" [] (Serve.lanes plain);
  Alcotest.(check (list (pair int string))) "default service keeps no lane" []
    (let t = Serve.create () in
     List.iter (fun line -> ignore (serve_req t line)) script;
     Serve.lanes t);
  let spans = Scald_obs.Span.spans traced_prof in
  Alcotest.(check bool) "the traced twin keeps the spans" true (spans <> []);
  Alcotest.(check (list (pair int string))) "one lane per request, from its req span"
    (List.mapi
       (fun i line ->
         let op = Option.get (jstr "op" (Result.get_ok (Json.parse line))) in
         (i + 1, Printf.sprintf "r%d:%s" (i + 1) op))
       script)
    (Serve.lanes traced);
  let phases t =
    let path = Filename.temp_file "serve_metrics" ".json" in
    Alcotest.(check bool) "metrics written" true (Serve.write_metrics t path);
    let m = Result.get_ok (Json.parse (In_channel.with_open_bin path In_channel.input_all)) in
    Sys.remove path;
    match Json.member "phases_s" m with
    | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, Option.get (Json.num v))) kvs
    | _ -> Alcotest.fail "no phases_s"
  in
  let name (s : Scald_obs.Span.span) = s.Scald_obs.Span.s_name in
  let sum_s k =
    List.fold_left (fun acc s -> if name s = k then acc +. s.s_dur_us else acc) 0. spans
    /. 1e6
  in
  Alcotest.(check (list (pair string (float 1e-9)))) "phases_s = per-name span sums"
    (List.map (fun k -> (k, sum_s k)) (List.sort_uniq compare (List.map name spans)))
    (List.sort compare (phases plain));
  Alcotest.(check (list (pair string (float 1e-9)))) "traced or not, the same phases_s"
    (phases traced) (phases plain)

(* The service's counters add up: over a random script of loads (cold,
   warm, adopted and one that fails), wire-delay deltas (one naming an
   unknown signal), verifies with and without carried counters, stats,
   health, a non-JSON line and an unknown op, a closing [stats] counts
   exactly what the responses before it show, and the metrics file
   agrees with it on every [incr_*] key and keeps the evaluator's laws. *)
let serve_counter_lines =
  let load ?cases src =
    Json.to_string
      (Json.Obj
         (("op", Json.Str "load")
         :: ("source", Json.Str src)
         :: Option.to_list (Option.map (fun c -> ("cases", Json.Str c)) cases)))
  in
  let retuned =
    (* the inline design with one delay changed: adopted *)
    "PERIOD 50.0;\nCLOCK UNIT 6.25;\nDEFAULT WIRE DELAY 0.0/1.0;\n\
     1 CHG (DELAY=1.0/3.5) (A .S0-6) -> B;\n\
     REG (DELAY=1.5/4.5) (B, CK .P2-3) -> Q;\n\
     SETUP HOLD CHK (SETUP=8.0, HOLD=1.0) (B, CK .P2-3);\n"
  in
  (* weighted so that most scripts load, stage and verify *)
  [
    (3, load inline_source);
    (3, load retuned);
    (3, load proven_checker_source);
    (1, load ~cases:"NO SUCH SIGNAL = 0;" inline_source);
    (4, {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"CK","min_ns":0,"max_ns":3}]}|});
    (2, {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9}]}|});
    (1, {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"NOPE","min_ns":0,"max_ns":1}]}|});
    (4, {|{"op":"verify"}|});
    (2, {|{"op":"verify","carry_counters":false}|});
    (1, {|{"op":"stats"}|});
    (1, {|{"op":"health"}|});
    (1, "not json");
    (1, {|{"op":"frobnicate"}|});
  ]

let serve_counters_property =
  let gen = QCheck.Gen.(list_size (int_range 1 14) (frequencyl serve_counter_lines)) in
  prop ~count:25 "serve counters add up"
    (QCheck.make ~print:QCheck.Print.(list Fun.id) gen)
    (fun script ->
      let t = Serve.create ~obs:(Scald_obs.Obs.create ~clock:(ticking_clock 1e-4) ()) () in
      let resps = List.map (fun line -> fst (serve_req t line)) script in
      let stats, _ = serve_req t {|{"op":"stats"}|} in
      let count p = List.length (List.filter p resps) in
      let ok_op op r = jbool "ok" r = Some true && jstr "op" r = Some op in
      let sum key =
        List.fold_left
          (fun acc r -> if ok_op "verify" r then acc + Option.get (jint key r) else acc)
          0 resps
      in
      let expect key v = Alcotest.(check (option int)) key (Some v) (jint key stats) in
      expect "requests" (List.length script + 1);
      expect "errors" (count (fun r -> jbool "ok" r = Some false));
      expect "loads" (count (ok_op "load"));
      expect "warm_loads" (count (fun r -> ok_op "load" r && jstr "mode" r = Some "warm"));
      expect "adopted_loads"
        (count (fun r -> ok_op "load" r && jstr "mode" r = Some "adopted"));
      List.iter (fun key -> expect key (sum key)) [ "reused_nets"; "dirtied_nets"; "warm_hits" ];
      let latency = Option.get (Json.member "latency_us" stats) in
      List.iter
        (fun op ->
          let lines =
            List.length
              (List.filter
                 (fun line ->
                   match Json.parse line with
                   | Ok j -> jstr "op" j = Some op
                   | Error _ -> false)
                 script)
          in
          Alcotest.(check (option int)) ("latency count of " ^ op)
            (if lines = 0 then None else Some lines)
            (Option.bind (Json.member op latency) (jint "count")))
        [ "load"; "delta"; "verify"; "stats"; "health" ];
      let path = Filename.temp_file "serve_counters" ".json" in
      (if Serve.write_metrics t path then begin
         let m =
           Result.get_ok (Json.parse (In_channel.with_open_bin path In_channel.input_all))
         in
         Sys.remove path;
         let key k = Option.get (jint k m) in
         (match m with
         | Json.Obj kvs ->
           List.iter
             (fun (k, v) ->
               if String.starts_with ~prefix:"incr_" k then
                 Alcotest.(check (option int)) k
                   (jint (String.sub k 5 (String.length k - 5)) stats)
                   (Json.int v))
             kvs
         | _ -> Alcotest.fail "metrics is not an object");
         Alcotest.(check int) "events_queued = evaluations + events_coalesced"
           (key "events_queued")
           (key "evaluations" + key "events_coalesced");
         let by_kind =
           match Json.member "evals_by_kind" m with
           | Some (Json.Obj kvs) -> List.filter_map (fun (_, v) -> Json.int v) kvs
           | _ -> Alcotest.fail "no evals_by_kind"
         in
         Alcotest.(check int) "evals_by_kind sums to evaluations" (key "evaluations")
           (List.fold_left ( + ) 0 by_kind)
       end
       else begin
         Sys.remove path;
         Alcotest.(check (option int)) "no metrics without a session" (Some 0)
           (jint "sessions" stats)
       end);
      true)

(* ---- the bit-identity property ------------------------------------------------ *)

(* Random acyclic gate networks (always convergent) feeding the
   registered/checked output stage, beside a clock gate enabled through
   a grounded input, on a random corner table, plus a short random edit
   sequence with a revert to the loaded design in it: after each edit is
   staged on a live session and re-verified, the session must give the
   same verdicts — on every corner — and listing as a cold verify of an
   identically edited fresh build, with sequential and parallel case
   evaluation; its maintained digest must equal a from-scratch
   recompute; and its [st_dirtied_nets] must lie between the nets whose
   lane-0 waveform changed across the request and the forward closure
   ([cone_oracle]) of the edit's seeds and of every old and new case
   net, with [st_reused_nets] the rest of the design. *)

type recipe = {
  rc_n_inputs : int;
  rc_gates : (int * int * int) list;
  rc_corners : string;  (* corner-table spec, "" for the single default *)
  rc_edits : (int * int * int) list;  (* kind selector, operand selectors *)
  rc_revert_at : int;  (* the revert is staged after this many edits *)
}

let gen_recipe =
  let open QCheck.Gen in
  let gen =
    let* rc_n_inputs = int_range 2 4 in
    let* n_gates = int_range 2 10 in
    let* rc_gates =
      list_repeat n_gates (triple (int_range 0 4) (int_range 0 1000) (int_range 0 1000))
    in
    let* lanes = int_range 0 2 in
    let scale = map (fun s -> float_of_int s /. 100.) (int_range 50 200) in
    let* scales = list_repeat lanes (pair scale scale) in
    let rc_corners =
      if scales = [] then ""
      else
        ((1.0, 1.0) :: scales)
        |> List.mapi (fun i (d, w) -> Printf.sprintf "c%d=%.2f/%.2f" i d w)
        |> String.concat ","
    in
    let* n_edits = int_range 1 2 in
    let* rc_edits =
      list_repeat n_edits (triple (int_range 0 8) (int_range 0 1000) (int_range 0 40))
    in
    let* rc_revert_at = int_range 1 n_edits in
    return { rc_n_inputs; rc_gates; rc_corners; rc_edits; rc_revert_at }
  in
  QCheck.make
    ~print:(fun r ->
      Printf.sprintf "%d inputs, %d gates, corners %S, edits [%s], revert after %d"
        r.rc_n_inputs (List.length r.rc_gates) r.rc_corners
        (String.concat "; "
           (List.map (fun (k, a, b) -> Printf.sprintf "(%d,%d,%d)" k a b) r.rc_edits))
        r.rc_revert_at)
    gen

let input_name i = Printf.sprintf "IN%d .S0-6" i

let build_recipe r =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let inputs = List.init r.rc_n_inputs (fun i -> Netlist.signal nl (input_name i)) in
  let ck = Netlist.signal nl "CK .P2-3" in
  let nodes = ref (Array.of_list inputs) in
  List.iteri
    (fun i (fn_sel, a, b) ->
      let pool = !nodes in
      let pick x = pool.(x mod Array.length pool) in
      let fn =
        match fn_sel with
        | 0 -> Primitive.And
        | 1 -> Primitive.Or
        | 2 -> Primitive.Xor
        | _ -> Primitive.Chg
      in
      let out = Netlist.signal nl (Printf.sprintf "G%d" i) in
      ignore
        (Netlist.add nl ~name:(Printf.sprintf "U%d" i)
           (Primitive.Gate
              { fn; n_inputs = 2; invert = fn_sel = 4; delay = Delay.of_ns 1.0 3.0 })
           ~inputs:[ Netlist.conn (pick a); Netlist.conn (pick b) ]
           ~output:(Some out));
      nodes := Array.append pool [| out |])
    r.rc_gates;
  let last = !nodes.(Array.length !nodes - 1) in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl ~name:"UREG"
       (Primitive.Reg { delay = Delay.of_ns 1.5 4.5; has_set_reset = false })
       ~inputs:[ Netlist.conn last; Netlist.conn ck ]
       ~output:(Some q));
  ignore
    (Netlist.add nl ~name:"UCHK"
       (Primitive.Setup_hold_check
          { setup = Timebase.ps_of_ns 6.0; hold = Timebase.ps_of_ns 1.0 })
       ~inputs:[ Netlist.conn last; Netlist.conn ck ]
       ~output:None);
  (* A ZERO source has no inputs, so no edit's fanout closure reaches
     it; the clock gate's &A hazard check sees its value through the
     enable. *)
  let gnd = Netlist.signal nl "GND" in
  ignore
    (Netlist.add nl ~name:"UGND" (Primitive.Const Tvalue.V0) ~inputs:[] ~output:(Some gnd));
  ignore
    (Netlist.add nl ~name:"UGCK"
       (Primitive.Gate
          { fn = Primitive.And; n_inputs = 2; invert = false; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn ~directive:[ Directive.A ] ck; Netlist.conn ~invert:true gnd ]
       ~output:(Some (Netlist.signal nl "GCK")));
  if r.rc_corners <> "" then Netlist.set_corners nl (Corner.of_spec r.rc_corners);
  nl

let recipe_edit r (kind, a, b) =
  let n_gates = List.length r.rc_gates in
  let gate_net = Printf.sprintf "G%d" (a mod n_gates) in
  let gate = Printf.sprintf "U%d" (a mod n_gates) in
  match kind with
  | 0 -> Edit.Wire_delay { signal = gate_net; delay = Some (Delay.of_ns 0.5 (1.0 +. float_of_int b)) }
  | 1 -> Edit.Wire_delay { signal = gate_net; delay = None }
  | 2 -> Edit.Element_delay { inst = gate; delay = Delay.of_ns 1.0 (2.0 +. float_of_int (b mod 9)) }
  | 3 -> Edit.Assertion { signal = input_name (a mod r.rc_n_inputs); assertion = Some (assertion "S1-7") }
  | 4 -> Edit.Assertion { signal = input_name (a mod r.rc_n_inputs); assertion = None }
  | 5 -> Edit.Cases (Case_analysis.complete_exn [ input_name (a mod r.rc_n_inputs) ])
  | 6 ->
    (* checker-margin edit: moves no input stamp *)
    Edit.Replace_prim
      {
        inst = "UCHK";
        prim =
          Primitive.Setup_hold_check
            {
              setup = Timebase.ps_of_ns (float_of_int (b mod 12));
              hold = Timebase.ps_of_ns (float_of_int (a mod 3));
            };
      }
  | 7 ->
    let directive = List.nth [ []; [ Directive.W ]; [ Directive.Z ]; [ Directive.H ] ] (b mod 4) in
    Edit.Directive { inst = gate; input = a mod 2; directive }
  | _ ->
    Edit.Corners
      (if b mod 3 = 0 then Corner.default
       else Corner.of_spec (Printf.sprintf "c0=1.00/1.00,c1=1.%02d/1.10" b))

let recipe_cases () = Case_analysis.complete_exn [ input_name 0 ]

(* The nets a request may move: the forward closure, over the instance
   graph, of [from_nets] and of the outputs of [from_insts].  A
   re-asserted or case-mapped net that is driven is recomputed by its
   driver, so the driver belongs in [from_insts]. *)
let cone_oracle nl ~from_nets ~from_insts =
  let inst_seen = Array.make (max 1 (Netlist.n_insts nl)) false in
  let net_seen = Array.make (max 1 (Netlist.n_nets nl)) false in
  let q = Queue.create () in
  let add id =
    if not inst_seen.(id) then begin
      inst_seen.(id) <- true;
      Queue.add id q
    end
  in
  List.iter
    (fun nid ->
      net_seen.(nid) <- true;
      Netlist.iter_fanout (Netlist.net nl nid) add)
    from_nets;
  List.iter add from_insts;
  while not (Queue.is_empty q) do
    match (Netlist.inst nl (Queue.take q)).i_output with
    | None -> ()
    | Some o ->
      if not net_seen.(o) then begin
        net_seen.(o) <- true;
        Netlist.iter_fanout (Netlist.net nl o) add
      end
  done;
  Array.fold_left (fun n seen -> if seen then n + 1 else n) 0 net_seen

(* [cone_oracle]'s bound for one request: [edits] applied to a copy of
   the design as it stands before them. *)
let request_cone r ~history ~old_cases ~new_cases edits =
  let nl = build_recipe r in
  List.iter (fun e -> ignore (Edit.apply nl e)) history;
  let applied = List.map (Edit.apply nl) edits in
  let case_nets cases =
    List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases
  in
  let reinit =
    List.concat_map (fun a -> a.Edit.a_reinit_nets) applied
    @ case_nets old_cases @ case_nets new_cases
  in
  cone_oracle nl
    ~from_nets:(List.concat_map (fun a -> a.Edit.a_touched_nets) applied @ reinit)
    ~from_insts:
      (List.concat_map (fun a -> a.Edit.a_touched_insts) applied
      @ List.filter_map (fun id -> (Netlist.net nl id).n_driver) reinit)

let bit_identity_property =
  prop ~count:40 "incremental re-verify is bit-identical to a cold run" gen_recipe
    (fun r ->
      let cases0 = recipe_cases () in
      let s = Session.load ~cases:cases0 (build_recipe r) in
      let steps =
        List.concat
          (List.mapi
             (fun i e ->
               if i + 1 = r.rc_revert_at then [ Some (recipe_edit r e); None ]
               else [ Some (recipe_edit r e) ])
             r.rc_edits)
      in
      let history = ref [] and cases = ref cases0 in
      List.for_all
        (fun step ->
          let edits =
            match step with
            | Some e -> [ e ]
            | None -> Edit.diff (Session.netlist s) (build_recipe r) @ [ Edit.Cases cases0 ]
          in
          let old_cases = !cases in
          List.iter (Session.stage s) edits;
          List.iter (function Edit.Cases cs -> cases := cs | _ -> ()) edits;
          let cone =
            request_cone r ~history:!history ~old_cases ~new_cases:!cases edits
          in
          history := !history @ edits;
          let n_nets = Netlist.n_nets (Session.netlist s) in
          let lane0 (rep : Verifier.report) =
            Array.init n_nets (fun id -> Eval.value rep.Verifier.r_eval id)
          in
          let before = lane0 (Session.report s) in
          let report, st = Session.reverify ~carry_counters:false s in
          let after = lane0 report in
          let changed = ref 0 in
          Array.iteri
            (fun id wf -> if not (Waveform.equal wf after.(id)) then incr changed)
            before;
          let incr_listing = Session.listing s in
          st.Session.st_dirtied_nets <= cone
          && st.Session.st_dirtied_nets >= !changed
          && st.Session.st_reused_nets + st.Session.st_dirtied_nets = n_nets
          && Session.digest s = Fingerprint.digest (Session.netlist s)
          && (step <> None || Session.digest s = Session.id s)
          && List.for_all
               (fun jobs ->
                 let nl = build_recipe r in
                 List.iter (fun e -> ignore (Edit.apply nl e)) !history;
                 let cold = Verifier.verify ~cases:!cases ~jobs nl in
                 verdicts_equal report cold && incr_listing = cold_listing cold)
               [ 1; 4 ])
        steps)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json int printing" `Quick test_json_int_printing;
    Alcotest.test_case "json line layout" `Quick test_json_lines;
    Alcotest.test_case "json edge cases" `Quick test_json_edge_cases;
    json_roundtrip_property;
    Alcotest.test_case "fingerprint digest/skeleton" `Quick test_fingerprint_digest;
    Alcotest.test_case "fingerprint digest across many blocks" `Quick test_fingerprint_blocks;
    Alcotest.test_case "edit apply and diff" `Quick test_edit_apply_and_diff;
    Alcotest.test_case "edit check rejects without mutating" `Quick test_edit_check;
    Alcotest.test_case "edit of_json" `Quick test_edit_of_json;
    Alcotest.test_case "session re-verify equals cold" `Quick
      test_session_reverify_equals_cold;
    Alcotest.test_case "session assertion edit and revert" `Quick
      test_session_assertion_and_revert;
    Alcotest.test_case "session no-op re-verify" `Quick test_session_noop_reverify;
    Alcotest.test_case "session counts the nets it moved" `Quick
      test_session_counts_moved_nets;
    Alcotest.test_case "session case-group swap" `Quick test_session_cases_swap;
    Alcotest.test_case "session corners edit and revert" `Quick
      test_session_corners_edit;
    Alcotest.test_case "session margin edit reaches every corner" `Quick
      test_session_margin_edit_all_corners;
    Alcotest.test_case "session proven checker tracks edits" `Quick
      test_session_proven_checker_tracks_edits;
    Alcotest.test_case "session counters carry" `Quick test_session_counters_carry;
    Alcotest.test_case "session digest through a feedback loop" `Quick
      test_session_digest_feedback;
    Alcotest.test_case "store warm/adopt/cold" `Quick test_store_warm_adopt_cold;
    Alcotest.test_case "edits reject a shared instance name" `Quick
      test_shared_instance_names;
    Alcotest.test_case "serve protocol" `Quick test_serve_protocol;
    Alcotest.test_case "serve listing equals CLI" `Quick test_serve_matches_cli_listing;
    Alcotest.test_case "serve names unknown case signals at their lines" `Quick
      test_serve_case_lines;
    Alcotest.test_case "serve health" `Quick test_serve_health;
    Alcotest.test_case "serve deterministic quantiles" `Quick
      test_serve_deterministic_quantiles;
    Alcotest.test_case "serve lanes and slow requests" `Quick
      test_serve_lanes_and_slow;
    Alcotest.test_case "serve --prom rewrites at most every 250 ms" `Quick
      test_serve_prom_interval;
    Alcotest.test_case "serve keeps no spans without a trace" `Quick
      test_serve_keeps_no_spans_without_trace;
    serve_counters_property;
    bit_identity_property;
  ]
