(** Designer-specified case analysis (§2.7).

    Reducing all possible operations of a circuit to one symbolic cycle
    is sometimes overly pessimistic; the designer then specifies cases,
    each mapping the [Stable] values of chosen control signals into [0]
    or [1].  Each case is one incremental re-simulation of the affected
    part of the circuit.

    Case-specification text, one case per [';']-terminated group, with
    [',']-separated assignments inside a group:
    {v
    CONTROL SIGNAL = 0;
    CONTROL SIGNAL = 1;
    v} *)

type case = (string * Tvalue.t) list
(** One case: signal base names and the value substituted for their
    [Stable] states. *)

val parse : string -> (case list, string) result
(** Parse a case-specification text.  A signal assigned twice within
    one case group (["A = 0, A = 1;"]) is rejected — the evaluator
    would otherwise silently let the last write win.  An error message
    starts with ["line N: "], the line of the bad assignment. *)

val parse_exn : string -> case list

val resolve : Netlist.t -> case -> (int * Tvalue.t) list
(** Translate names to net ids.
    @raise Invalid_argument if any signal does not exist; the message
    lists {e every} unknown name, not just the first. *)

val max_controls : int
(** Most control signals {!complete} accepts — 16, i.e. at most 65 536
    generated cases. *)

val complete : string list -> (case list, string) result
(** All [2^n] cases over the given control signals — exhaustive case
    analysis over a small set of controls.  Repeated names are deduped
    (keeping first occurrences), so [complete ["A"; "A"]] yields the
    two single-assignment cases rather than contradictory ones.
    [Error] when more than {!max_controls} distinct controls are given,
    so a caller can report the bad specification instead of aborting
    mid-run. *)

val complete_exn : string list -> case list
(** @raise Invalid_argument on more than {!max_controls} controls. *)

val pp : Format.formatter -> case -> unit
