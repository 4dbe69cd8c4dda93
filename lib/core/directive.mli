(** Evaluation directives (§2.6).

    Directives are given after a signal with an ["&"], e.g. ["&H"] or
    ["&HZZW"].  Each letter controls one subsequent level of gating: a
    gate consumes the first letter and passes the rest of the string,
    with its output value, to the next level (§2.8, the "EVAL STR PTR"
    field). *)

type letter =
  | E  (** evaluate the gate with no special action (default) *)
  | W  (** zero the wire delay going into the gate *)
  | Z  (** zero the gate delay and the wire going into it: the clock
           timing refers to the gate's output *)
  | A  (** check that the other inputs to the gate are not changing when
           this input is asserted, and assume they enable the gate *)
  | H  (** combined effects of [Z] and [A] *)

type t = letter list
(** An evaluation string; the head applies to the next level of gating. *)

val of_string : string -> (t, string) result
(** Parse a directive string such as ["HZZW"] (a leading ["&"] is
    allowed and ignored). *)

val of_string_exn : string -> t

val to_string : t -> string

val head : t -> letter
(** The letter that applies to the next level of gating: the first one,
    or [E] once the string is used up. *)

val zero_wire : letter -> bool
(** [W], [Z] and [H] zero the incoming wire delay. *)

val zero_gate : letter -> bool
(** [Z] and [H] zero the gate delay. *)

val check_hazard : letter -> bool
(** [A] and [H] request the clock-gating hazard check and the
    assume-enabling evaluation. *)

val pp : Format.formatter -> t -> unit
