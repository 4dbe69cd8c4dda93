(** The SCALD Macro Expander (§3.3.2, Table 3-1).

    Processing happens in the thesis's three phases:

    + reading the input and building data structures ({!Parser});
    + {b Pass 1}: the declarations every instance may depend on: the
      timing settings ([PERIOD], [CLOCK UNIT], [DEFAULT WIRE DELAY]),
      [WIRE RULE], [CORNERS] and the macro table;
    + {b Pass 2}: each top-level instance expanded as it arrives into a
      {!Scald_core.Netlist.t} ready for the Timing Verifier, then the
      [WIRE DELAY] and [WIDTH] declarations applied in textual order.

    When the text states each declaration before its use, both passes
    happen in {b one read}: each statement is declared as it arrives,
    the netlist is created at the first top-level instance and each
    top-level instance is expanded as it arrives.  The read is abandoned,
    and {b two reads} run from the start (the first for the
    declarations, the second to expand), when the text uses something
    before stating it:
    - no netlist can be built at the first top-level instance (no
      [PERIOD] yet, or a default [CLOCK UNIT] below 1 ps);
    - a [PERIOD], [CLOCK UNIT] or [DEFAULT WIRE DELAY] follows the first
      top-level instance;
    - a call, nested ones included, names a macro not yet defined.

    Only the text picks the path, and both build the same netlist and
    report the same errors: the two reads are the reference.  So a macro
    may be used before its definition, and the last statement of each
    setting wins wherever it stands.

    The thesis's Pass 1 also built a synonym structure for the different
    names of each signal.  Here the expansion frames resolve each formal
    parameter to its actual as the body is walked, so a macro's formal
    and the caller's signal are one net from the start.

    Macros take numeric properties (e.g. [SIZE=32]) that parameterize
    vector subscripts: a parameter declared [I<0:SIZE-1>] expands to
    [I<0:31>].  Subscripts are sums and products ([+], [-], [*]) of
    integers and size variables; every value they name or compute, every
    vector's width and every size property must stay within 2^53 in
    magnitude, or the expansion fails at the line.  One expanded
    primitive stands for the whole vector — vector symmetry is
    exploited, not bit-blasted (§3.3.2).  Macro calls nest at most 64
    levels deep ([max_depth]); deeper nesting (a recursive macro) is an
    error.

    A macro's calls share what its definition fixes.  Each body line is
    classified (its primitive and instance name, or the macro it calls
    and that call's size variables) at its first expansion, and every
    later call reuses it, so a macro that is never called is never
    checked.  A call looks each actual's net up at its first use and
    keeps it; a spelling that is not its own net key (one carrying an
    assertion) is parsed once per run.

    {b Errors} are [Error "line N: ..."] where the problem has a line: a
    rejected property, directive or signal name inside an instance names
    that instance's own line (the macro-body line for a nested
    instance).  When a design has two errors, the one that comes first
    in the two reads' order is reported: the declaration read meets
    every parse and declaration error, so a duplicate [MACRO] at line 7
    is reported before a parse error further down (at line 13), and a
    parse error at line 13 before an instance error at line 2; of two
    instance errors, the earlier.  A single read keeps this order by
    holding the first instance error until the read ends. *)

type summary = {
  s_macros_expanded : int;  (** macro call sites expanded *)
  s_primitives : int;       (** primitive instances emitted *)
  s_signals : int;          (** distinct signals the instances connect *)
  s_synonyms : int;         (** formal/actual name pairs resolved *)
}

type expansion = {
  e_netlist : Scald_core.Netlist.t;
  e_summary : summary;
  e_pass1_s : float;
      (** CPU seconds before the netlist is created.  In one read: the
          statements ahead of the first top-level instance (under
          {!load}, their lexing and parsing too).  In two reads: the
          abandoned read and the declaration read. *)
  e_pass2_s : float;
      (** CPU seconds from the netlist's creation to the end: netlist
          output, the deferred declarations, wire rule and corners.  In
          one read it also covers every statement from the first
          top-level instance on; in two reads, the second read; under
          {!load}, the lexing and parsing of what it reads. *)
}

val expand :
  ?defaults:Scald_core.Assertion.defaults ->
  Ast.design ->
  (expansion, string) result
(** Expand a parsed design, in one read of its statement list or two.
    The design must contain a [PERIOD] statement; [CLOCK UNIT] defaults
    to one eighth of the period, the default wire delay to 0.0/2.0 ns. *)

val expand_exn : ?defaults:Scald_core.Assertion.defaults -> Ast.design -> expansion

val load : ?defaults:Scald_core.Assertion.defaults -> string -> (expansion, string) result
(** Expand a source text without building its AST: each read takes the
    statements straight from {!Parser.iter_stream}, so peak memory
    tracks the expanded design rather than the source's statement list.
    Accepts exactly the designs [parse] + {!expand} accept and builds
    the same netlist; a lex or parse error is reported as {!Parser.parse}
    reports it, unless a declaration error comes first. *)

val pp_summary : Format.formatter -> summary -> unit
