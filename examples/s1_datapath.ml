(* A typical S-1 Mark IIA arithmetic circuit (Figure 3-12, §3.3.1).

   A 36-bit ALU with output latch, a debugging/status register with a
   load-enable-gated clock, and the function decoder feeding the ALU
   select inputs.  All interface signals carry assertions, so this
   section of the processor can be verified by itself — the workflow the
   S-1 designers used daily. *)

open Scald_core
open Scald_cells

let () =
  let ar = Circuits.arithmetic_example () in
  let nl = ar.Circuits.ar_netlist in
  let report = Verifier.verify nl in
  let ev = report.Verifier.r_eval in
  Format.printf "%a@.@." Report.pp_summary ev;
  Format.printf "%a@." Report.pp_violations report.Verifier.r_violations;
  Format.printf "@.events processed: %d@."
    (Eval.counter report.Verifier.r_counters "events");
  if Verifier.clean report then
    print_endline "RESULT: the arithmetic section meets all timing constraints"
  else
    Format.printf "RESULT: %d violation(s) -- see listing above@."
      (List.length report.Verifier.r_violations)
