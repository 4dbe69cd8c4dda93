(** Named delay corners for multi-corner evaluation (doc/CORNERS.md).

    A corner scales every element delay and every interconnection delay
    of the design by a pair of factors — the classic slow/typ/fast
    process-voltage-temperature signoff points.  A verification run
    carries a {e table} of corners; corner 0 is the reference whose
    verdicts must equal a plain single-corner run (the evaluator treats
    a [1.0] factor as the physical identity, see {!Delay.scale}).

    The table travels on the netlist ({!Netlist.set_corners}), declared
    by an SDL [CORNERS] directive or a [--corners] CLI override, and the
    evaluator propagates all k corners in one traversal (doc/CORNERS.md
    explains the lane-sharing scheme). *)

type t = private {
  name : string;
  delay_scale : float;  (** factor applied to element delays *)
  wire_scale : float;  (** factor applied to interconnection delays *)
}

type table = t array
(** Corner 0 is the reference corner. *)

val typ : t
(** The identity corner: ["typ"], both factors [1.0]. *)

val default : table
(** [[| typ |]] — the single-corner table every netlist starts with. *)

val max_scale : float
(** The largest scale factor a corner accepts: [1000].  With times
    bounded by {!Timebase.max_ns}, a scaled delay stays below [1e15] ps,
    so {!Delay.scale} cannot overflow. *)

val make : ?wire_scale:float -> name:string -> float -> t
(** [make ~name delay_scale] — [wire_scale] defaults to [delay_scale].
    @raise Invalid_argument on an empty or non-alphanumeric name or a
    factor that is not in [(0, max_scale]] (NaN and infinity
    included). *)

val is_reference : t -> bool
(** Both factors are exactly [1.0]. *)

val equal : t -> t -> bool

val table_equal : table -> table -> bool

val validate_table : table -> unit
(** @raise Invalid_argument on an empty table or duplicate names. *)

val scale_delay : t -> Delay.t -> Delay.t
(** Element-delay scaling; physically the identity for a [1.0] factor. *)

val scale_wire : t -> Delay.t -> Delay.t
(** Interconnection-delay scaling. *)

val of_spec : string -> table
(** Parse a CLI / SDL corner list: comma-separated
    [name[=dscale[/wscale]]] entries, e.g. ["slow,typ,fast"] or
    ["typ,hot=1.4/1.2"].  Bare names must be one of the presets
    [slow=1.25], [typ=1.0], [fast=0.8].
    @raise Invalid_argument on a malformed list; the message quotes
    [spec]. *)

val to_string : t -> string
(** Canonical [name=dscale/wscale] form ([of_spec]-compatible); used by
    the fingerprint and edit codecs. *)

val table_to_string : table -> string

val pp : Format.formatter -> t -> unit

val pp_table : Format.formatter -> table -> unit
