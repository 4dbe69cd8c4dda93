(** A minimum/maximum-based gate-level logic simulator (§1.4.1.1).

    This is the baseline the thesis compares against: a TEGAS/SAGE/LAMP
    class event-driven simulator that models each component with a
    min/max delay pair and uses extra signal states beyond true and
    false — [X] (unknown), [U] (signal rising), [D] (signal falling) and
    [E] (potential spike/hazard) — to represent uncertainty in when
    outputs change.

    Unlike the Timing Verifier it needs the full value behaviour of
    every signal, so exhaustively checking the timing of a circuit
    requires simulating every input pattern that exercises a distinct
    timing path — an exponentially large set.  {!verify_exhaustive}
    measures exactly that cost. *)

type value =
  | L0
  | L1
  | LX  (** unknown / uninitialized *)
  | LU  (** rising: between the minimum and maximum delay of a 0-to-1 change *)
  | LD  (** falling *)
  | LE  (** potential spike, hazard or race *)

val pp_value : Format.formatter -> value -> unit
val value_equal : value -> value -> bool

type gate_kind = And | Or | Xor | Nand | Nor | Not | Buf

type circuit
(** A mutable gate-level circuit under construction. *)

val create : unit -> circuit

val add_net : circuit -> string -> int
(** A named net; initial value [LX]. *)

val add_gate :
  circuit ->
  ?name:string ->
  gate_kind ->
  dmin:int ->
  dmax:int ->
  inputs:int list ->
  output:int ->
  unit
(** Delays in integer time units (e.g. tenths of a ns).
    @raise Invalid_argument on arity mismatch or a doubly driven net. *)

val n_gates : circuit -> int
val n_nets : circuit -> int

(** {1 Simulation} *)

type trace = (int * value) list
(** Chronological [(time, new value)] list for one net. *)

type result = {
  traces : trace array;        (** indexed by net id *)
  events : int;                (** value-change events processed *)
  final : value array;         (** value of every net at the horizon *)
}

val simulate : circuit -> stimuli:(int * (int * value) list) list -> horizon:int -> result
(** Drive the given nets with [(time, value)] waveforms and run the
    event wheel until [horizon].  Driven nets must not be gate
    outputs. *)

val pulses : trace -> at_least:value -> (int * int) list
(** [(start, width)] of every maximal interval in which the trace holds
    exactly the given value — used to detect runt pulses on clocks. *)

val min_pulse_violations : trace -> level:value -> min_width:int -> horizon:int -> int
(** Number of pulses of [level] narrower than [min_width]. *)

(** {1 Exhaustive timing verification by simulation} *)

type exhaustive = {
  vectors_simulated : int;  (** 2^n input transitions *)
  total_events : int;
  settle_min : int;  (** earliest time any vector's outputs settled *)
  settle_max : int;  (** latest settle time over all vectors — the
                         measured worst-case propagation delay *)
}

val verify_exhaustive :
  circuit -> inputs:int list -> outputs:int list -> settle:int -> exhaustive
(** Apply every one of the [2^n] input vectors in sequence (Gray-coded,
    so each step is a realistic single- or multi-bit transition), let
    the circuit settle for [settle] units after each, and measure when
    the outputs stop changing.  This is what complete timing
    verification via logic simulation costs; the Timing Verifier covers
    the same question in a single symbolic cycle (§2.1). *)

(** {1 Storage elements}

    Edge-triggered registers and transparent latches, so whole
    synchronous designs can be simulated — what checking timing by
    simulation actually requires (§1.4.1). *)

val add_register :
  circuit ->
  ?name:string ->
  dmin:int ->
  dmax:int ->
  data:int ->
  clock:int ->
  output:int ->
  unit ->
  unit
(** Rising-edge triggered: when [clock] goes from 0 to 1 the value then
    on [data] appears on [output] between [dmin] and [dmax] later.  A
    clock edge from/to [X] produces [X] — the simulator cannot tell
    whether the register clocked. *)

val add_latch :
  circuit ->
  ?name:string ->
  dmin:int ->
  dmax:int ->
  data:int ->
  enable:int ->
  output:int ->
  unit ->
  unit
(** Transparent while [enable] is 1; holds the captured value while 0. *)
