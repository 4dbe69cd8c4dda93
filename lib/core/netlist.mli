(** Circuit representation for the Timing Verifier.

    A netlist is a set of {e nets} (signals, possibly vectors — one net
    stands for an arbitrarily wide data path) and {e instances} of the
    built-in primitives connected to them.  Nets carry the designer
    assertions parsed from their signal names and optional per-signal
    interconnection-delay overrides (§2.5.3).  A netlist holds no
    evaluation state: each evaluator ({!Eval}) keeps its own waveforms
    and evaluation strings, so evaluation never writes to a netlist and
    any number of evaluators can read one at once. *)

type conn = {
  c_net : int;
  c_invert : bool;  (** the ["-"] complement prefix on the connection *)
  c_directive : Directive.t;  (** explicit ["&..."] evaluation string *)
}

type inst = {
  i_id : int;
  i_name : string;
  i_prim : Primitive.t;
  i_inputs : conn array;
  i_output : int option;  (** net id; [None] for checkers *)
}

type net = {
  n_id : int;
  n_name : string;
  n_width : int;
  mutable n_assertion : Assertion.t option;
  mutable n_wire_delay : Delay.t option;
      (** overrides the default interconnection delay when set *)
  mutable n_driver : int option;
  mutable n_fanout : int array;
      (** packed fanout buffer with amortized-doubling appends; only the
          first [n_fanout_n] entries are valid — read through
          {!fanout_count}, {!iter_fanout}, {!fold_fanout} or {!fanout}
          rather than indexing the raw buffer *)
  mutable n_fanout_n : int;
}

type t

val create :
  ?defaults:Assertion.defaults ->
  ?default_wire_delay:Delay.t ->
  Timebase.t ->
  t
(** A new empty netlist.  [default_wire_delay] defaults to 0.0/2.0 ns,
    the rule used for the S-1 Mark IIA (§3.3); [defaults] to
    {!Assertion.s1_defaults}. *)

val timebase : t -> Timebase.t
val defaults : t -> Assertion.defaults
val default_wire_delay : t -> Delay.t

val wire_delay : t -> net -> Delay.t
(** The interconnection delay into every consumer of the net: its own
    override when set, the design default otherwise. *)

val signal : t -> string -> int
(** [signal t name] returns the net for a full SCALD signal name such as
    ["WRITE .S0-6 L"], creating it if needed.  The assertion, if any, is
    recorded on the net; the net is keyed by the base name, so all
    spellings of one signal share one net.

    @raise Invalid_argument if the name is malformed, if its assertion
    has a time beyond {!Timebase.max_ns} under the netlist's timebase
    ({!Assertion.check}), or if it carries an assertion inconsistent
    with one previously recorded for the same signal — the SCALD system
    guarantees assertion consistency by construction (§2.5.1), so we
    enforce it here. *)

val signal_conn : t -> ?directive:Directive.t -> string -> conn
(** Like {!signal} but returns a connection, honouring a leading ["-"]
    complement in the name. *)

val conn : ?invert:bool -> ?directive:Directive.t -> int -> conn

val set_wire_delay : t -> int -> Delay.t -> unit
(** Designer-specified interconnection delay range for a net (§2.5.3). *)

val set_width : t -> int -> int -> unit
(** Record the bit width of a net (used by the storage statistics). *)

val add : t -> ?name:string -> Primitive.t -> inputs:conn list -> output:int option -> inst
(** Instantiate a primitive.

    @raise Invalid_argument if the input count does not match the
    primitive, if a checker is given an output, if a non-checker lacks
    one, or if the output net already has a driver. *)

val trim : t -> unit
(** Shrink the growable arenas (net/instance arrays, per-net fanout
    buffers) to their exact sizes, releasing the doubling slack.  Called
    once after bulk construction; further {!add}s regrow as needed. *)

val net : t -> int -> net
val inst : t -> int -> inst
val find : t -> string -> int option
(** Look up a net by base name. *)

(** {2 Fanout access}

    Fanout is stored as a packed int buffer per net.  All four accessors
    present it in the same most-recent-first order as the former list
    representation, which evaluation-queue order (and hence report
    order) depends on. *)

val fanout_count : net -> int
(** Number of distinct instances reading the net, O(1). *)

val iter_fanout : net -> (int -> unit) -> unit
(** Apply a function to each fanout instance id, without allocating. *)

val fold_fanout : net -> 'a -> ('a -> int -> 'a) -> 'a

val fanout : net -> int list
(** The fanout as a fresh list — convenient for one-shot listings and
    tests; use {!iter_fanout}/{!fold_fanout} inside loops. *)

val fanout_array : net -> int array
(** The fanout as a fresh array, same order as {!fanout}. *)

val fanout_mem : net -> int -> bool
(** Whether the given instance id reads the net (linear scan). *)

val find_inst : t -> string -> int option
(** Look up an instance by name (linear scan; first registered wins). *)

(** {2 Post-construction edits}

    Used by the incremental service ([lib/incr], doc/SERVICE.md) to
    replay a designer's edit on an already-built netlist.  The structure
    — which nets exist, which instances read and drive them — never
    changes; only parameters do.  No edit may run while an evaluation
    reads the netlist; the incremental service is strictly sequential. *)

val set_wire_delay_opt : t -> int -> Delay.t option -> unit
(** Set or clear ([None] restores the default rule) a net's
    interconnection-delay override. *)

val set_assertion : t -> int -> Assertion.t option -> unit
(** Set, replace or remove a net's timing assertion.
    @raise Invalid_argument, leaving the net unchanged, when the
    assertion has a time beyond {!Timebase.max_ns} under the netlist's
    timebase ({!Assertion.check}). *)

val corners : t -> Corner.table
(** The delay corners a verification of this netlist evaluates; corner 0
    is the reference.  Defaults to {!Corner.default} (single ["typ"]
    corner), so existing callers see exactly the historical behaviour. *)

val set_corners : t -> Corner.table -> unit
(** Install a corner table (SDL [CORNERS] directive, CLI [--corners], or
    an incremental [corners] edit).
    @raise Invalid_argument on an empty table or duplicate names. *)

val set_element_delay : t -> int -> Delay.t -> unit
(** Replace the element delay of a gate, buffer, multiplexer, register
    or latch.
    @raise Invalid_argument for checkers and constants. *)

val replace_prim : t -> int -> Primitive.t -> unit
(** Replace an instance's primitive wholesale (e.g. new checker
    margins), keeping its connections.
    @raise Invalid_argument if the input count or the presence of an
    output differs. *)

val set_input_directive : t -> inst:int -> input:int -> Directive.t -> unit
(** Replace the explicit ["&..."] evaluation string on one input
    connection ([[]] removes it).
    @raise Invalid_argument if the instance has no such input. *)

val nets : t -> net array
(** A {e fresh copy} of the net array, O(n) per call — fine for one-shot
    listings, wrong inside loops; iterate with {!iter_nets} instead. *)

(** A {e fresh copy} of the instance array; same caveat as {!nets}. *)
val insts : t -> inst array
val n_nets : t -> int
val n_insts : t -> int

val iter_nets : t -> (net -> unit) -> unit
val iter_insts : t -> (inst -> unit) -> unit

val undriven_unasserted : t -> net list
(** Nets with neither a driver nor an assertion.  The verifier treats
    them as always stable and puts them on a special cross-reference
    listing for the designer's attention (§2.5). *)
