(** The SCALD Macro Expander (§3.3.2, Table 3-1).

    Processing happens in the thesis's three phases:

    + reading the input and building data structures ({!Parser});
    + {b Pass 1}: a read of the statements for the declarations every
      instance may depend on, wherever they stand in the text: the
      timing settings ([PERIOD], [CLOCK UNIT], [DEFAULT WIRE DELAY]),
      [WIRE RULE], [CORNERS] and the macro table;
    + {b Pass 2}: a second read that expands each top-level instance as
      it arrives into a {!Scald_core.Netlist.t} ready for the Timing
      Verifier, then applies the [WIRE DELAY] and [WIDTH] declarations
      in textual order.

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
    exploited, not bit-blasted (§3.3.2).  A macro may be used before
    its definition.  Macro calls nest at most 64 levels deep
    ([max_depth]); deeper nesting (a recursive macro) is an error.

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
    in the reading order is reported: Pass 1 reads the whole text, so a
    declaration error (a duplicate [MACRO] at line 7) is reported before
    a parse error further down (at line 13), and an instance error
    before a later instance's. *)

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
      (** CPU seconds spent in Pass 1: the declaration read, which under
          {!load} includes lexing and parsing the source once *)
  e_pass2_s : float;
      (** CPU seconds spent in Pass 2: netlist output, the deferred
          declarations, wire rule and corners, and under {!load} the
          second lex and parse *)
}

val expand :
  ?defaults:Scald_core.Assertion.defaults ->
  Ast.design ->
  (expansion, string) result
(** Run both passes over a parsed design.  The design must contain a
    [PERIOD] statement; [CLOCK UNIT] defaults to one eighth of the
    period, the default wire delay to 0.0/2.0 ns. *)

val expand_exn : ?defaults:Scald_core.Assertion.defaults -> Ast.design -> expansion

val load : ?defaults:Scald_core.Assertion.defaults -> string -> (expansion, string) result
(** Expand a source text without building its AST: each pass reads the
    statements straight from {!Parser.iter_stream}, so peak memory
    tracks the expanded design rather than the source's statement list.
    Accepts exactly the designs [parse] + {!expand} accept and builds
    the same netlist; a lex or parse error is reported as {!Parser.parse}
    reports it, unless a declaration error comes first. *)

val pp_summary : Format.formatter -> summary -> unit
