(* Quickstart: verify the register-file circuit of Figure 2-5 / §3.2.

   Builds the thesis's worked example — a 16x32 register file with a
   multiplexed address, gated write enable, and an output register — and
   runs the Timing Verifier on it, printing the signal-value summary
   (Figure 3-10) and the error listing (Figure 3-11). *)

open Scald_core
open Scald_cells

let () =
  let circuit = Circuits.register_file_example () in
  let nl = circuit.Circuits.rf_netlist in
  let report = Verifier.verify nl in
  let ev = report.Verifier.r_eval in
  Format.printf "%a@.@." Report.pp_summary ev;
  Format.printf "%a@." Report.pp_violations report.Verifier.r_violations;
  List.iter
    (fun v -> Format.printf "@.%a@." (fun ppf -> Report.pp_violation_with_values ppf ev) v)
    report.Verifier.r_violations;
  Format.printf "@.%a@." Report.pp_cross_reference nl;
  Format.printf "@.events processed: %d   evaluations: %d@."
    (Eval.counter report.Verifier.r_counters "events")
    (Eval.counter report.Verifier.r_counters "evaluations");
  if Verifier.clean report then print_endline "RESULT: no timing errors"
  else
    Format.printf "RESULT: %d timing error(s) found@."
      (List.length report.Verifier.r_violations)
