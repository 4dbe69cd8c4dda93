(** Constraint lint: a static design-rule audit of an expanded netlist
    and its assertions, run {e before} any evaluation.

    The dynamic verifier only reports what its checkers execute — a
    design whose constraints are incomplete (an unchecked flip-flop, an
    interface input with no assertion, a gated clock with no [&A]/[&H]
    directive) verifies "clean" silently.  The lint pass audits the
    constraints themselves for completeness and consistency (see
    {!Rules} for the catalogue), so incomplete designs can be worked on
    lint-only, without an evaluation (the modular-verification workload
    of thesis 2.5). *)

val audit : ?rules:Rules.rule list -> Scald_core.Netlist.t -> Lint_report.t
(** Run the given rules (default: the full {!Rules.all} catalogue) over
    a netlist.  Purely structural: the netlist is not evaluated and not
    modified.  Findings come back sorted by rule id then locus name
    (see {!Lint_report.compare_finding}). *)
