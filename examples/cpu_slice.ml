(* A pipelined CPU slice in the S-1 style (§3.3.1).

   One pipeline stage of a small processor, built from the chip macros:
   an instruction register, a function decoder, a register-file read
   captured into an operand register, an ALU with output latch, a parity
   check on the operand bus, a program counter (a feedback counter with
   its CORR delay, §4.2.3) and a diagnostic shift register.  Every
   interface signal carries its assertion, so this slice verifies by
   itself — and the example finishes by asking the CORR advisor and the
   worst-case path analysis what they think of it. *)

open Scald_core
open Scald_cells

let build () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  let nl = Netlist.create tb in
  let clock name =
    let id = Netlist.signal nl name in
    Netlist.set_wire_delay nl id Delay.zero;
    id
  in
  (* clocks: pipeline registers at unit 7, the register-file write pulse
     early in the cycle, the ALU latch mid-cycle, the result register at
     the cycle boundary *)
  let ck_pipe = clock "CK PIPE .P7-8" in
  let ck_we = clock "CK WE .P2-3" in
  let alu_le = clock "ALU LE .P4-5" in
  let ck_result = clock "CK RESULT .P0-1" in

  (* instruction fetch: the instruction bus is stable except at the very
     end of the cycle *)
  let instr_bus = Netlist.signal nl "INSTR BUS .S0-7.6" in
  Netlist.set_width nl instr_bus 32;
  let ir_q = Netlist.signal nl "IR Q" in
  Netlist.set_width nl ir_q 32;
  Cells.register nl ~name:"IR" ~data:(Netlist.conn instr_bus) ~clock:(Netlist.conn ck_pipe)
    ir_q;
  let ir = Netlist.signal nl "IR" in
  Netlist.set_width nl ir 32;
  Cells.buf nl ~name:"IR CORR" ~delay:(Delay.of_ns 4.0 4.0) ~a:(Netlist.conn ir_q) ir;

  (* decode *)
  let fn_sel = Netlist.signal nl "FN SEL" in
  Netlist.set_width nl fn_sel 4;
  Cells.decoder nl ~name:"FN DECODER" ~select:(Netlist.conn ir) fn_sel;

  (* register-file read, write-enable gated with &H on the clock *)
  let wctl = Netlist.signal nl "WRITE CTL .S0-8 L" in
  let we = Netlist.signal nl "RF WE" in
  Cells.and2 nl ~name:"RF WE GATE"
    ~a:(Netlist.conn ~directive:[ Directive.H ] ck_we)
    ~b:(Netlist.conn ~invert:true wctl)
    we;
  let wdata = Netlist.signal nl "RF W DATA .S0-4" in
  Netlist.set_width nl wdata 32;
  let cs = Netlist.signal nl "RF CS .S0-8 L" in
  let rf_out = Netlist.signal nl "RF OUT" in
  Netlist.set_width nl rf_out 32;
  Cells.ram16 nl ~size:32 ~data:(Netlist.conn wdata) ~adr:(Netlist.conn ir)
    ~cs:(Netlist.conn cs) ~we:(Netlist.conn we) rf_out;

  (* the register-file read is captured into the operand register at the
     end of the cycle; the next stage computes on it *)
  let opb_q = Netlist.signal nl "OPB Q" in
  Netlist.set_width nl opb_q 32;
  Cells.register nl ~name:"OPB REG" ~data:(Netlist.conn rf_out)
    ~clock:(Netlist.conn ck_pipe) opb_q;
  let opb = Netlist.signal nl "OPB" in
  Netlist.set_width nl opb 32;
  Cells.buf nl ~name:"OPB CORR" ~delay:(Delay.of_ns 4.0 4.0) ~a:(Netlist.conn opb_q) opb;

  (* bypass network: operand B can come from the register file or from
     the forwarded result — complementary selects, a case-analysis
     circuit by construction *)
  let bypass = Netlist.signal nl "BYPASS .S0-8" in
  let fwd = Netlist.signal nl "FWD RESULT .S1.5-7.5" in
  Netlist.set_width nl fwd 32;
  let alu_b = Netlist.signal nl "ALU B" in
  Netlist.set_width nl alu_b 32;
  Cells.mux2 nl ~name:"BYPASS MUX" ~a:(Netlist.conn opb) ~b:(Netlist.conn fwd)
    ~sel:(Netlist.conn bypass) alu_b;

  (* ALU with output latch (Figure 3-9) *)
  let carry_in = Netlist.signal nl "CARRY IN .S0-5.5" in
  let alu_out = Netlist.signal nl "ALU OUT" in
  Netlist.set_width nl alu_out 32;
  Cells.alu_latch nl ~size:32 ~a:(Netlist.conn ir) ~b:(Netlist.conn alu_b)
    ~carry_in:(Netlist.conn carry_in) ~fn_select:(Netlist.conn fn_sel)
    ~enable:(Netlist.conn alu_le) alu_out;

  (* result register at the cycle boundary *)
  let result = Netlist.signal nl "RESULT" in
  Netlist.set_width nl result 32;
  Cells.register nl ~name:"RESULT REG" ~data:(Netlist.conn alu_out)
    ~clock:(Netlist.conn ck_result) result;

  (* parity check over the operand bus *)
  let par = Netlist.signal nl "OPB PARITY" in
  Cells.parity_tree nl ~name:"OPB PARITY"
    ~inputs:(List.init 8 (fun _ -> Netlist.conn opb))
    par;
  let par_q = Netlist.signal nl "OPB PARITY Q" in
  Cells.register nl ~name:"PARITY REG" ~data:(Netlist.conn par)
    ~clock:(Netlist.conn ck_pipe) par_q;

  (* program counter: the thesis's canonical feedback circuit, with its
     built-in CORR delay *)
  let pc = Netlist.signal nl "PC" in
  Netlist.set_width nl pc 16;
  let pc_en = Netlist.signal nl "PC EN .S0-8" in
  Cells.counter nl ~name:"PC" ~clock:(Netlist.conn ck_pipe) ~enable:(Netlist.conn pc_en)
    pc;

  (* diagnostic shift register on the instruction stream *)
  let diag = Netlist.signal nl "DIAG TAP" in
  Cells.shift_register nl ~name:"DIAG" ~stages:3 ~data:(Netlist.conn ir)
    ~clock:(Netlist.conn ck_pipe) diag;
  nl

let () =
  let nl = build () in
  let cases = Case_analysis.parse_exn "BYPASS .S0-8 = 0;\nBYPASS .S0-8 = 1;\n" in
  let report = Verifier.verify ~cases nl in
  Format.printf "%a@.@." Report.pp_summary report.Verifier.r_eval;
  Format.printf "%a@." Report.pp_violations report.Verifier.r_violations;
  Format.printf "@.%d primitives, %d events over %d cases@." (Netlist.n_insts nl)
    (Eval.counter report.Verifier.r_counters "events")
    (List.length report.Verifier.r_cases);
  (* what does the CORR advisor think? all feedback is already protected *)
  let advice = Path_analysis.Corr.advise nl in
  Format.printf "@.CORR advisor: %d recommendation(s)@." (List.length advice);
  List.iter (fun a -> Format.printf "  %a@." Path_analysis.Corr.pp_advice a) advice;
  (* and the worst path, for curiosity *)
  (match Path_analysis.worst (Path_analysis.analyze nl) with
  | Some p -> Format.printf "@.worst combinational path: %a@." Path_analysis.pp_path p
  | None -> ());
  if Verifier.clean report then print_endline "\nRESULT: the slice meets all timing constraints"
  else print_endline "\nRESULT: timing errors above"
