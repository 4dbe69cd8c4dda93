(** Designer edits the incremental service can replay on a live session
    (doc/SERVICE.md).

    Every edit changes {e parameters} of an existing netlist — delays,
    assertions, directives, the case group — never its structure.  An
    edit both mutates the netlist (via the {!Scald_core.Netlist}
    post-construction setters) and reports which nets and instances the
    evaluator must wake; {!Session.reverify} wakes them, and the
    evaluator's work list carries the change as far as it goes. *)

open Scald_core

type t =
  | Wire_delay of { signal : string; delay : Delay.t option }
      (** set or clear ([None] = default rule) a net's interconnection
          delay *)
  | Element_delay of { inst : string; delay : Delay.t }
  | Assertion of { signal : string; assertion : Assertion.t option }
      (** add, retarget or remove a timing assertion *)
  | Directive of { inst : string; input : int; directive : Directive.t }
      (** replace the ["&..."] evaluation string on one input ([[]]
          removes it) *)
  | Replace_prim of { inst : string; prim : Primitive.t }
      (** wholesale primitive-parameter change (checker margins, invert,
          a constant's value); used by {!diff} *)
  | Cases of Case_analysis.case list  (** swap the case group *)
  | Corners of Corner.table
      (** install a new delay-corner table (doc/CORNERS.md).  Dirties the
          whole netlist — every scaled delay changes — and makes
          {!Session.reverify} rebuild its evaluator, since the lane
          count is fixed at creation.  JSON form:
          [{"edit":"corners","spec":"slow,typ,fast"}]. *)

type applied = {
  a_touched_nets : int list;
      (** nets whose parameters changed in place: their generation stamp
          must be bumped so consumer caches miss *)
  a_reinit_nets : int list;
      (** nets whose source waveform changed (assertion edits): they
          must be re-initialized / re-driven *)
  a_touched_insts : int list;
      (** instances whose own parameters changed: they must re-evaluate
          even though no input moved *)
  a_cases : Case_analysis.case list option;  (** new case group, if swapped *)
}

val check : Netlist.t -> t -> (unit, string) result
(** Validate an edit against a netlist without mutating anything —
    names resolve, the primitive accepts the edit, an assertion's times
    lie within {!Scald_core.Timebase.max_ns} ({!Scald_core.Assertion.check})
    — so a [delta] request can be rejected atomically before anything is
    staged. *)

val apply : Netlist.t -> t -> applied
(** Mutate the netlist and report what the edit touched: the nets
    whose stamps the session bumps, the nets it re-asserts, the
    instances it re-evaluates and a new case group.
    @raise Invalid_argument on an unknown signal/instance name or an
    ill-typed edit (e.g. an element delay on a checker). *)

val diff : Netlist.t -> Netlist.t -> t list
(** [diff old new] — the parameter edits that turn [old] into [new].
    The two must be structurally identical ({!Fingerprint.skeleton});
    used by the store to adopt an existing session for a re-submitted
    design.
    @raise Invalid_argument when the structures differ. *)

val of_json : Json.t -> (t, string) result
(** Decode one edit object of a [delta] request, e.g.
    [{"edit":"wire_delay","signal":"A","min_ns":0.5,"max_ns":3}]. *)

val pp : Format.formatter -> t -> unit
