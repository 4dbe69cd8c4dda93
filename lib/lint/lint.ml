open Scald_core

let audit ?(rules = Rules.all) nl =
  let input = Rules.input nl in
  let findings = List.concat_map (fun (r : Rules.rule) -> r.Rules.check input) rules in
  {
    Lint_report.findings = List.stable_sort Lint_report.compare_finding findings;
    nets_audited = Netlist.n_nets nl;
    insts_audited = Netlist.n_insts nl;
  }
