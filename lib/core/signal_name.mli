(** Signal names as used in the SCALD Hardware Description Language.

    A full signal name can include a complement prefix (["- WE"] means
    the complement of [WE]), a vector subscript (["A<0:3>"]), and a
    trailing assertion preceded by a period (["CK .P2-3 L"],
    ["W DATA .S0-6"]).  The assertion is considered part of the name by
    the rest of the SCALD system, which guarantees that all assertions
    for a given signal are consistent by definition (§2.5.1). *)

type t = {
  base : string;  (** name without complement prefix or assertion suffix,
                      but including any vector subscript *)
  vector : (int * int) option;  (** the [<lo:hi>] subscript, if present *)
  assertion : Assertion.t option;
  complemented : bool;
}

val parse : string -> (t, string) result
(** Parse a full signal name.  The assertion suffix is recognized as the
    last [" ."] or ["."] followed by [P], [C] or [S] and a valid
    assertion spec. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a malformed name. *)

val width : t -> int
(** Number of bits: the vector width, or 1 for scalar signals. *)

val to_string : t -> string

val key : t -> string
(** Identity of the underlying net: the base name together with the
    assertion suffix.  The assertion is considered part of the signal
    name by the SCALD system, so ["CK .P2-3 L"] and ["CK .P0-4"] are two
    distinct signals; complementation does not create a distinct
    signal. *)

val is_plain : string -> bool
(** Whether a name is its own {!key}: it has no complement, no assertion
    and no surrounding blank, so [key (parse_exn s) = s]. *)

val pp : Format.formatter -> t -> unit
