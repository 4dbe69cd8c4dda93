(* Modular, section-by-section verification (§2.5.2).

   Stable assertions on interface signals are the key to verifying a
   design in sections: each section assumes its inputs' assertions and
   must prove the assertions on the signals it generates.  If no section
   has a timing error and all interface assertions are consistent (they
   are by construction — the assertion is part of the signal name), the
   entire design is free of timing errors.

   Here a two-designer scenario: designer A owns the address pipeline
   and exports "PIPE ADR .S2-7"; designer B owns the register-file stage
   and imports it.  Each section verifies alone; then the joined design
   verifies whole, with identical results. *)

open Scald_core
open Scald_cells

let tb () = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25

(* Designer A: generates the pipelined address and must meet the
   interface assertion "PIPE ADR .S2-7". *)
let build_section_a nl =
  let raw = Netlist.signal nl "RAW ADR .S0-6" in
  Netlist.set_width nl raw 4;
  let ck = Netlist.signal nl "CK A .P1-2" in
  Netlist.set_wire_delay nl ck Delay.zero;
  let pipe = Netlist.signal nl "PIPE ADR .S2-7" in
  Netlist.set_width nl pipe 4;
  Cells.register nl ~name:"ADR PIPE REG" ~data:(Netlist.conn raw) ~clock:(Netlist.conn ck)
    pipe

(* Designer B: consumes "PIPE ADR .S2-7" (not yet generated in his
   section — the assertion stands in for the hardware) and produces the
   register-file read data. *)
let build_section_b nl =
  let pipe = Netlist.signal nl "PIPE ADR .S2-7" in
  Netlist.set_width nl pipe 4;
  let cs = Netlist.signal nl "RF CS .S0-8 L" in
  let we = Netlist.signal nl "RF WE .P3.5-4.5" in
  Netlist.set_wire_delay nl we Delay.zero;
  let wdata = Netlist.signal nl "RF W DATA .S0-6" in
  Netlist.set_width nl wdata 16;
  let dout = Netlist.signal nl "RF DOUT" in
  Netlist.set_width nl dout 16;
  Cells.ram16 nl ~size:16 ~data:(Netlist.conn wdata) ~adr:(Netlist.conn pipe)
    ~cs:(Netlist.conn cs) ~we:(Netlist.conn we) dout

let verify_and_show label build =
  let nl = Netlist.create (tb ()) in
  build nl;
  let report = Verifier.verify nl in
  Format.printf "%-22s %d primitives, %d events, %d violation(s)@." label
    (Netlist.n_insts nl)
    (Eval.counter report.Verifier.r_counters "events")
    (List.length report.Verifier.r_violations);
  List.iter (fun v -> Format.printf "    %a@." Check.pp v) report.Verifier.r_violations;
  report

let () =
  Format.printf "Each designer verifies his own section independently:@.@.";
  let a = verify_and_show "section A (pipeline):" build_section_a in
  let b = verify_and_show "section B (reg file):" build_section_b in
  Format.printf "@.The joined design (both sections, shared interface net):@.@.";
  let whole =
    verify_and_show "whole design:" (fun nl ->
        build_section_a nl;
        build_section_b nl)
  in
  Format.printf "@.interface signal PIPE ADR carries the same assertion in both sections,@.";
  Format.printf "so section results compose: clean(A) && clean(B) => clean(whole) = %b@."
    (Verifier.clean a && Verifier.clean b && Verifier.clean whole);

  (* The same workflow through the Modular driver (§2.5.2): per-section
     verification plus the SCALD interface-consistency check. *)
  let make name build =
    let nl = Netlist.create (tb ()) in
    build nl;
    { Modular.s_name = name; s_netlist = nl }
  in
  let result =
    Modular.verify [ make "pipeline" build_section_a; make "reg file" build_section_b ]
  in
  Format.printf "@.%a@." Modular.pp result
