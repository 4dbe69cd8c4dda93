open Scald_core

(* Small-circuit harness: 50 ns cycle, 6.25 ns clock units, zero default
   wire delay so the numbers below are exact. *)

let ps = Timebase.ps_of_ns

let tv = Alcotest.testable Tvalue.pp Tvalue.equal

let make_nl () =
  Netlist.create
    (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
    ~default_wire_delay:Delay.zero

let gate fn n ?(invert = false) ?(delay = Delay.zero) () =
  Primitive.Gate { fn; n_inputs = n; invert; delay }

let run nl =
  let ev = Eval.create nl in
  Eval.run ev;
  ev

let value_at ev net t = Waveform.value_at (Waveform.materialize (Eval.value ev net)) t

(* ---- gates ---------------------------------------------------------------- *)

let test_and_clock_with_high () =
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let one = Netlist.signal nl "ONE" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V1) ~inputs:[] ~output:(Some one));
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.And 2 ())
       ~inputs:[ Netlist.conn ck; Netlist.conn one ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "pulse passes" Tvalue.V1 (value_at ev q (ps 15.));
  Alcotest.check tv "low outside" Tvalue.V0 (value_at ev q (ps 5.))

let test_or_stable_with_clock () =
  (* Worst-case combination: a stable control ORed with a clock is the
     clock where the clock is 1 and Stable does not dominate. *)
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let s = Netlist.signal nl "CTL .S0-8" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.Or 2 ())
       ~inputs:[ Netlist.conn ck; Netlist.conn s ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "high dominates" Tvalue.V1 (value_at ev q (ps 15.));
  Alcotest.check tv "stable elsewhere" Tvalue.Stable (value_at ev q (ps 40.))

let test_gate_delay_and_skew () =
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.of_ns 5.0 10.0 })
       ~inputs:[ Netlist.conn ck ] ~output:(Some q));
  let ev = run nl in
  let wf = Eval.value ev q in
  (* value list delayed by dmin, spread in the skew (Figure 2-8) *)
  Alcotest.check tv "nominal shifted" Tvalue.V1
    (Waveform.value_at wf (ps 18.));
  Alcotest.(check (pair int int)) "skew" (0, ps 5.) (Waveform.skew wf)

let test_inverter () =
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = true; delay = Delay.zero })
       ~inputs:[ Netlist.conn ck ] ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "inverted high" Tvalue.V0 (value_at ev q (ps 15.));
  Alcotest.check tv "inverted low" Tvalue.V1 (value_at ev q (ps 5.))

let test_input_complement () =
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn ~invert:true ck ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "complemented input" Tvalue.V0 (value_at ev q (ps 15.))

let test_chg_gate () =
  let nl = make_nl () in
  let a = Netlist.signal nl "A .S2-6" in
  let b = Netlist.signal nl "B .S0-8" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.Chg 2 ())
       ~inputs:[ Netlist.conn a; Netlist.conn b ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "changing when a changes" Tvalue.Change (value_at ev q (ps 5.));
  Alcotest.check tv "stable when both stable" Tvalue.Stable (value_at ev q (ps 20.))

let test_undriven_inputs_stable () =
  (* Undriven signals with no assertions are taken to be always stable
     (§2.5). *)
  let nl = make_nl () in
  let a = Netlist.signal nl "NOWHERE" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.Chg 1 ()) ~inputs:[ Netlist.conn a ] ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "stable" Tvalue.Stable (value_at ev q 0)

(* ---- wire delay --------------------------------------------------------------- *)

let test_wire_delay_applied () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn ck ] ~output:(Some q));
  let ev = run nl in
  Alcotest.(check (pair int int)) "wire spread as skew" (0, ps 2.)
    (Waveform.skew (Eval.value ev q))

let test_directive_w_zeroes_wire () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn ~directive:[ Directive.W ] ck ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.(check (pair int int)) "no skew" (0, 0) (Waveform.skew (Eval.value ev q))

let test_directive_z_zeroes_gate () =
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.of_ns 3.0 7.0 })
       ~inputs:[ Netlist.conn ~directive:[ Directive.Z ] ck ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "no gate delay: edge still at 12.5" Tvalue.V1 (value_at ev q (ps 13.));
  Alcotest.(check (pair int int)) "no spread" (0, 0) (Waveform.skew (Eval.value ev q))

let test_directive_h_assumes_enabling () =
  (* &H on the clock input of a gated clock: the control is assumed to
     enable the gate, so the output follows the clock alone (§2.6). *)
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let ctl = Netlist.signal nl "CTL .S0-8" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.And 2 ())
       ~inputs:[ Netlist.conn ~directive:[ Directive.H ] ck; Netlist.conn ctl ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "clock passes" Tvalue.V1 (value_at ev q (ps 15.));
  Alcotest.check tv "solid zero outside" Tvalue.V0 (value_at ev q (ps 40.))

let test_eval_string_propagates () =
  (* "&HZ": the first gate consumes H, the second consumes Z (§2.8). *)
  let nl = make_nl () in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let ctl = Netlist.signal nl "CTL .S0-8" in
  let mid = Netlist.signal nl "MID" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (gate Primitive.And 2 ~delay:(Delay.of_ns 1.0 2.0) ())
       ~inputs:
         [ Netlist.conn ~directive:[ Directive.H; Directive.Z ] ck; Netlist.conn ctl ]
       ~output:(Some mid));
  ignore
    (Netlist.add nl
       (Primitive.Buf { invert = false; delay = Delay.of_ns 3.0 8.0 })
       ~inputs:[ Netlist.conn mid ] ~output:(Some q));
  let ev = run nl in
  (* H zeroes the first gate's delay; the carried Z zeroes the second's. *)
  Alcotest.check tv "both levels zero-delay" Tvalue.V1 (value_at ev q (ps 13.));
  Alcotest.(check (pair int int)) "no accumulated spread" (0, 0)
    (Waveform.skew (Eval.value ev q))

(* ---- multiplexer ----------------------------------------------------------------- *)

let test_mux_constant_select () =
  let nl = make_nl () in
  let a = Netlist.signal nl "A .S0-8" in
  let b = Netlist.signal nl "B .S2-6" in
  let zero = Netlist.signal nl "GND" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V0) ~inputs:[] ~output:(Some zero));
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Mux2 { delay = Delay.zero; select_extra = Delay.zero })
       ~inputs:[ Netlist.conn a; Netlist.conn b; Netlist.conn zero ]
       ~output:(Some q));
  let ev = run nl in
  (* select = 0 picks A, which is stable all cycle *)
  Alcotest.check tv "picks a" Tvalue.Stable (value_at ev q (ps 5.))

let test_mux_select_edges_change_output () =
  (* Both data inputs stable (at unknown values): select transitions
     still make the output change. *)
  let nl = make_nl () in
  let a = Netlist.signal nl "A .S0-8" in
  let b = Netlist.signal nl "B .S0-8" in
  let sel = Netlist.signal nl "CK .P(0,0)0-4" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Mux2 { delay = Delay.of_ns 1.0 3.0; select_extra = Delay.zero })
       ~inputs:[ Netlist.conn a; Netlist.conn b; Netlist.conn sel ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "changing after select edge at 25" Tvalue.Change
    (value_at ev q (ps 27.));
  Alcotest.check tv "stable between edges" Tvalue.Stable (value_at ev q (ps 15.))

(* ---- registers ---------------------------------------------------------------------- *)

let test_reg_basic () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S0-6" in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 3.8; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn ck ]
       ~output:(Some q));
  let ev = run nl in
  (* clocked at 12.5: changing [13.5, 16.3], stable elsewhere *)
  Alcotest.check tv "stable before" Tvalue.Stable (value_at ev q (ps 10.));
  Alcotest.check tv "changing after edge" Tvalue.Change (value_at ev q (ps 15.));
  Alcotest.check tv "stable after" Tvalue.Stable (value_at ev q (ps 20.))

let test_reg_samples_constant () =
  (* If the data input is a constant 0/1 during the clock edge, the
     output takes that value (§2.4.3). *)
  let nl = make_nl () in
  let d = Netlist.signal nl "ONE" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V1) ~inputs:[] ~output:(Some d));
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn ck ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "takes sampled value" Tvalue.V1 (value_at ev q (ps 30.))

let test_reg_unknown_clock () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S0-6" in
  let ck = Netlist.signal nl "CKX" in
  (* drive the clock from an undefined source: a buffer of an undefined
     driven net *)
  let u = Netlist.signal nl "U" in
  ignore
    (Netlist.add nl (gate Primitive.Xor 2 ())
       ~inputs:[ Netlist.conn u; Netlist.conn u ]
       ~output:(Some ck));
  ignore
    (Netlist.add nl (gate Primitive.Xor 2 ())
       ~inputs:[ Netlist.conn d; Netlist.conn d ]
       ~output:(Some u));
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn ck ]
       ~output:(Some q));
  let ev = run nl in
  ignore ev;
  (* the XOR of a stable-with-changing region is C/S, so the clock is
     never a clean edge: the register must not invent one *)
  Alcotest.(check bool) "no crash" true true

let test_reg_never_clocked () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S0-6" in
  let gnd = Netlist.signal nl "GND" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V0) ~inputs:[] ~output:(Some gnd));
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn gnd ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "holds stable" Tvalue.Stable (value_at ev q (ps 25.))

let test_reg_set_reset () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S0-6" in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  let one = Netlist.signal nl "VCC" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V1) ~inputs:[] ~output:(Some one));
  let gnd = Netlist.signal nl "GND" in
  ignore (Netlist.add nl (Primitive.Const Tvalue.V0) ~inputs:[] ~output:(Some gnd));
  let q_set = Netlist.signal nl "QS" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = true })
       ~inputs:[ Netlist.conn d; Netlist.conn ck; Netlist.conn one; Netlist.conn gnd ]
       ~output:(Some q_set));
  let q_both = Netlist.signal nl "QB" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = true })
       ~inputs:[ Netlist.conn d; Netlist.conn ck; Netlist.conn one; Netlist.conn one ]
       ~output:(Some q_both));
  let q_off = Netlist.signal nl "QO" in
  ignore
    (Netlist.add nl
       (Primitive.Reg { delay = Delay.of_ns 1.0 2.0; has_set_reset = true })
       ~inputs:[ Netlist.conn d; Netlist.conn ck; Netlist.conn gnd; Netlist.conn gnd ]
       ~output:(Some q_off));
  let ev = run nl in
  Alcotest.check tv "set forces 1" Tvalue.V1 (value_at ev q_set (ps 30.));
  Alcotest.check tv "both force undefined" Tvalue.Unknown (value_at ev q_both (ps 30.));
  Alcotest.check tv "inactive behaves normally" Tvalue.Stable (value_at ev q_off (ps 30.))

(* ---- latches ---------------------------------------------------------------------------- *)

let test_latch_transparent () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S0-4" in
  (* data changing 25..50, enable high 12.5..25 while data stable *)
  let e = Netlist.signal nl "E .P(0,0)2-4" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Latch { delay = Delay.of_ns 1.0 2.0; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn e ]
       ~output:(Some q));
  let ev = run nl in
  (* opening edge at 12.5 may change the output *)
  Alcotest.check tv "changing at open" Tvalue.Change (value_at ev q (ps 14.));
  (* transparent with stable data: stable *)
  Alcotest.check tv "stable while open" Tvalue.Stable (value_at ev q (ps 20.));
  (* closed with stable capture: stays stable even while D changes *)
  Alcotest.check tv "holds while closed" Tvalue.Stable (value_at ev q (ps 40.))

let test_latch_open_data_changing () =
  let nl = make_nl () in
  let d = Netlist.signal nl "D .S5-7" in
  (* data changing 0..31.25 while enable high 12.5..25 *)
  let e = Netlist.signal nl "E .P(0,0)2-4" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl
       (Primitive.Latch { delay = Delay.zero; has_set_reset = false })
       ~inputs:[ Netlist.conn d; Netlist.conn e ]
       ~output:(Some q));
  let ev = run nl in
  Alcotest.check tv "changes propagate while open" Tvalue.Change (value_at ev q (ps 20.))

(* ---- convergence --------------------------------------------------------------------------- *)

let test_combinational_loop_flagged () =
  (* A NOR-latch style feedback loop without storage elements: the
     relaxation is bounded and reported (§2.9 assumes synchronous
     designs). *)
  let nl = make_nl () in
  let s = Netlist.signal nl "S .S0-4" in
  let r = Netlist.signal nl "R .S0-4" in
  let a = Netlist.signal nl "A" in
  let b = Netlist.signal nl "B" in
  ignore
    (Netlist.add nl
       (gate Primitive.Or 2 ~invert:true ~delay:(Delay.of_ns 1.0 2.0) ())
       ~inputs:[ Netlist.conn s; Netlist.conn b ]
       ~output:(Some a));
  ignore
    (Netlist.add nl
       (gate Primitive.Or 2 ~invert:true ~delay:(Delay.of_ns 1.0 2.0) ())
       ~inputs:[ Netlist.conn r; Netlist.conn a ]
       ~output:(Some b));
  let ev = Eval.create nl in
  Eval.run ev;
  let checks = Eval.check ev in
  if Eval.converged ev then () (* fixpoint found: also acceptable *)
  else
    Alcotest.(check bool) "non-convergence reported" true
      (List.exists (fun (v : Check.t) -> v.Check.v_kind = Check.No_convergence) checks)

(* ---- incremental case analysis ---------------------------------------------------------------- *)

let test_incremental_case () =
  let nl = make_nl () in
  let ctl = Netlist.signal nl "CTL .S0-8" in
  let other = Netlist.signal nl "OTHER .S0-8" in
  let q = Netlist.signal nl "Q" in
  let q2 = Netlist.signal nl "Q2" in
  ignore
    (Netlist.add nl (gate Primitive.And 2 ())
       ~inputs:[ Netlist.conn ctl; Netlist.conn ctl ]
       ~output:(Some q));
  ignore
    (Netlist.add nl (gate Primitive.Or 2 ())
       ~inputs:[ Netlist.conn other; Netlist.conn other ]
       ~output:(Some q2));
  let ev = Eval.create nl in
  Eval.run ev;
  Alcotest.check tv "base: stable" Tvalue.Stable (value_at ev q 0);
  let evals_before = Eval.evaluations ev in
  Eval.run ~case:[ (ctl, Tvalue.V0) ] ev;
  Alcotest.check tv "case: forced 0" Tvalue.V0 (value_at ev q 0);
  Alcotest.check tv "unrelated gate untouched" Tvalue.Stable (value_at ev q2 0);
  (* only the AND gate re-evaluated *)
  Alcotest.(check int) "one re-evaluation" 1 (Eval.evaluations ev - evals_before);
  (* switching to the other value and back is still incremental *)
  Eval.run ~case:[ (ctl, Tvalue.V1) ] ev;
  Alcotest.check tv "case 2: forced 1" Tvalue.V1 (value_at ev q 0);
  Eval.run ev;
  Alcotest.check tv "cleared: stable again" Tvalue.Stable (value_at ev q 0)

(* ---- the service hooks and the check pass ------------------------------------------------------ *)

(* A check pass re-derives only what moved since the last one, so every
   hook must log what its edit can change: after each edit, a warm
   evaluator's verdicts must equal a fresh evaluator's on a netlist
   given the same edits. *)
let test_hooks_keep_check_exact () =
  let build () =
    let nl = make_nl () in
    let a = Netlist.signal nl "A .S0-4" and b = Netlist.signal nl "B .S0-4" in
    let d = Netlist.signal nl "D" in
    let ck = Netlist.signal nl "CK .P2-3" in
    ignore
      (Netlist.add nl (gate Primitive.And 2 ~delay:(Delay.of_ns 1.0 2.0) ())
         ~inputs:[ Netlist.conn a; Netlist.conn b ]
         ~output:(Some d));
    let chk =
      Netlist.add nl ~name:"CHK"
        (Primitive.Setup_hold_check { setup = ps 2.5; hold = ps 1.5 })
        ~inputs:[ Netlist.conn d; Netlist.conn ck ]
        ~output:None
    in
    (nl, d, chk.Netlist.i_id)
  in
  let stable = Result.get_ok (Assertion.parse "S0-1") in
  let margins setup = Primitive.Setup_hold_check { setup = ps setup; hold = ps 1.5 } in
  let edits =
    [
      ( "assertion added to a driven net",
        (fun nl d _ -> Netlist.set_assertion nl d (Some stable)),
        fun ev d _ -> Eval.reassert_net ev d );
      ( "checker margins widened",
        (fun nl _ chk -> Netlist.replace_prim nl chk (margins 40.)),
        fun ev _ chk -> Eval.touch_inst ev chk );
      ( "assertion removed",
        (fun nl d _ -> Netlist.set_assertion nl d None),
        fun ev d _ -> Eval.reassert_net ev d );
    ]
  in
  let nl, d, chk = build () in
  let ev = run nl in
  ignore (Eval.check ev);
  List.fold_left
    (fun applied (name, edit, hook) ->
      edit nl d chk;
      hook ev d chk;
      Eval.run ev;
      let applied = edit :: applied in
      let fresh_nl, fd, fchk = build () in
      List.iter (fun e -> e fresh_nl fd fchk) (List.rev applied);
      let fresh = Eval.check (run fresh_nl) in
      Alcotest.(check bool) (name ^ ": verdicts reported") true (fresh <> []);
      Alcotest.(check bool) (name ^ ": warm check equals fresh") true (Eval.check ev = fresh);
      applied)
    [] edits
  |> ignore

let suite =
  [
    Alcotest.test_case "and clock with high" `Quick test_and_clock_with_high;
    Alcotest.test_case "or stable with clock" `Quick test_or_stable_with_clock;
    Alcotest.test_case "gate delay and skew" `Quick test_gate_delay_and_skew;
    Alcotest.test_case "inverter" `Quick test_inverter;
    Alcotest.test_case "input complement" `Quick test_input_complement;
    Alcotest.test_case "chg gate" `Quick test_chg_gate;
    Alcotest.test_case "undriven inputs stable" `Quick test_undriven_inputs_stable;
    Alcotest.test_case "wire delay applied" `Quick test_wire_delay_applied;
    Alcotest.test_case "directive W zeroes wire" `Quick test_directive_w_zeroes_wire;
    Alcotest.test_case "directive Z zeroes gate" `Quick test_directive_z_zeroes_gate;
    Alcotest.test_case "directive H assumes enabling" `Quick test_directive_h_assumes_enabling;
    Alcotest.test_case "eval string propagates" `Quick test_eval_string_propagates;
    Alcotest.test_case "mux constant select" `Quick test_mux_constant_select;
    Alcotest.test_case "mux select edges" `Quick test_mux_select_edges_change_output;
    Alcotest.test_case "reg basic" `Quick test_reg_basic;
    Alcotest.test_case "reg samples constant" `Quick test_reg_samples_constant;
    Alcotest.test_case "reg unknown clock" `Quick test_reg_unknown_clock;
    Alcotest.test_case "reg never clocked" `Quick test_reg_never_clocked;
    Alcotest.test_case "reg set/reset" `Quick test_reg_set_reset;
    Alcotest.test_case "latch transparent" `Quick test_latch_transparent;
    Alcotest.test_case "latch open data changing" `Quick test_latch_open_data_changing;
    Alcotest.test_case "combinational loop flagged" `Quick test_combinational_loop_flagged;
    Alcotest.test_case "incremental case" `Quick test_incremental_case;
    Alcotest.test_case "hooks keep the check pass exact" `Quick test_hooks_keep_check_exact;
  ]
