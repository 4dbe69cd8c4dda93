(** Recursive-descent parser for the textual SCALD HDL.

    See {!Ast} for the grammar by example.  Keywords are
    case-insensitive; signal names keep their case.  Assertions with
    multiple ranges ([.C2-3,5-6]) are supported — a comma directly
    followed by a digit-initial range continues the assertion rather
    than starting a new argument.  Parenthesized explicit skew
    specifications are not accepted in HDL names (use the library API
    for those). *)

val parse : string -> (Ast.design, string) result
(** Parse a whole source text.  Errors are ["line N: ..."].  Besides
    the grammar, the parser checks what a statement alone decides: a
    [DEFAULT WIRE DELAY], [WIRE DELAY] or [WIRE RULE] pair needs
    [0 <= min <= max], and a [WIDTH] is a whole number from 1 to
    2{^53}. *)

val iter_stream : string -> (Ast.top_stmt -> unit) -> (unit, string) result
(** Parse statement-at-a-time, invoking the callback on each top-level
    statement as soon as it is complete.  Nothing but the source string
    and the statement in flight is retained — {!Expander.load} reads
    the source this way, once or twice.  A lex or parse error
    stops the iteration with the error {!parse} reports; statements
    already delivered stay delivered, and an exception the callback
    raises passes through. *)

val parse_exn : string -> Ast.design
(** @raise Invalid_argument with the parse error. *)
