(** Representation of a signal's value over one clock period (§2.8).

    A waveform is a cyclic sequence of [(value, width)] segments whose
    widths sum exactly to the circuit period, together with a separately
    maintained {e skew} window.  The skew records uncertainty in {e when}
    the signal transitions that is common to all its edges — e.g. the
    min/max spread of a chain of delays, or the adjustment tolerance of a
    de-skewed clock.  Keeping it separate from the value list preserves
    information about the width of pulses: when a signal is merely
    delayed by a variable amount, its rising and trailing edges move
    together, so minimum-pulse-width checks must not treat the spread as
    shrinking the pulse.

    Only when two or more changing signals are {e combined} is the skew
    folded into the value list, using the [Rise]/[Fall]/[Change] values
    to paint the transition windows (Figure 2-9). *)

type t
(** The evaluator's lanes compare records with [==], so record identity
    is part of the contract.  {!materialize} returns its input when the
    skew is zero and otherwise one folded record per input, which
    {!delay_rise_fall} also returns for a waveform without edges;
    {!rotate} by a multiple of the period, {!apply_delay} by zero and
    {!buffer} without inversion by zero return their input.  Every other
    result is a fresh record, and starts unmaterialized.  Each record belongs to one evaluator, so no
    two domains fold one record. *)

val period : t -> Timebase.ps

val skew : t -> Timebase.ps * Timebase.ps
(** [(early, late)] with [early <= 0 <= late]: a transition nominally at
    [t] may actually occur anywhere in [\[t + early, t + late\]]. *)

val segments : t -> (Tvalue.t * Timebase.ps) list
(** The normalized value list starting at time 0: widths are positive,
    sum to the period, and no two adjacent entries are equal (the first
    and last entries may be equal, representing one segment spanning the
    cycle wrap).  Allocates a fresh list from the contiguous segment
    buffer; use {!n_segments} when only the count is needed. *)

val n_segments : t -> int
(** Number of segments in the normalized value list, O(1). *)

val equal : t -> t -> bool

val const : period:Timebase.ps -> Tvalue.t -> t
(** A waveform holding one value for the whole period, zero skew. *)

val create : period:Timebase.ps -> (Tvalue.t * Timebase.ps) list -> t
(** Build from a segment list; merges adjacent equal values.

    @raise Invalid_argument if a width is not positive or the widths do
    not sum exactly to the period. *)

val of_intervals :
  period:Timebase.ps ->
  inside:Tvalue.t ->
  outside:Tvalue.t ->
  (Timebase.ps * Timebase.ps) list ->
  t
(** [of_intervals ~period ~inside ~outside ivals] paints each modular
    interval [(start, stop)] (half-open, read through
    {!Timebase.modular_range}: a stop before its start wraps however far
    back it lies, and a span of the full period or more covers
    everything) with [inside] over a base of [outside]. *)

val with_skew : early:Timebase.ps -> late:Timebase.ps -> t -> t
(** Replace the skew window.  @raise Invalid_argument unless
    [early <= 0 <= late]. *)

val value_at : t -> Timebase.ps -> Tvalue.t
(** Value of the nominal list at an instant (taken modulo the period).
    Skew is not considered; materialize first if it matters. *)

val rotate : t -> Timebase.ps -> t
(** [rotate w d] delays the nominal list by [d]:
    [value_at (rotate w d) t = value_at w (t - d)].  Skew unchanged. *)

val delay : dmin:Timebase.ps -> dmax:Timebase.ps -> t -> t
(** Propagate through an element with a min/max delay range: the value
    list is delayed by [dmin] and the difference [dmax - dmin] is added
    to the late edge of the skew window (§2.8, Figure 2-8).

    @raise Invalid_argument if [dmin < 0] or [dmax < dmin]. *)

val delay_rise_fall :
  rise:Timebase.ps * Timebase.ps ->
  fall:Timebase.ps * Timebase.ps ->
  t ->
  t option
(** Propagate through an element whose delays to rising and falling
    output edges differ (§4.2.2, e.g. nMOS).  Only waveforms whose value
    behaviour is fully known (materialized values within
    [{V0, V1, Rise, Fall}] — clocks) can be delayed per-edge: each
    rising-edge window moves by the rise range and each falling-edge
    window by the fall range, so pulse widths stretch or shrink exactly
    as the asymmetry dictates.  Returns [None] for value-unknown
    waveforms — the caller must fall back to the conservative envelope
    delay (the thesis's "use the longer of the two" rule). *)

val apply_delay : Delay.t -> t -> t
(** Propagate through an element or wire delay: {!delay} over the
    envelope, or {!delay_rise_fall} when the delay carries a rise/fall
    refinement and the waveform's values are known (§4.2.2).  A zero
    delay returns the waveform itself. *)

val materialize : t -> t
(** Fold the skew window into the value list: every transition between
    values [a] and [b] nominally at [t] is replaced by a window
    [\[t + early, t + late)] holding {!Tvalue.worst_edge}[ ~before:a
    ~after:b]; overlapping windows merge with {!Tvalue.merge_uncertain}.
    The result has zero skew (Figure 2-9).  A skewed record keeps the
    first call's result, and every later call returns that record. *)

val map : (Tvalue.t -> Tvalue.t) -> t -> t
(** Pointwise value map on the nominal list (skew preserved).  Used for
    complementation and for case-analysis substitution of [Stable].
    [f] is tabulated once on each of the seven values. *)

type table
(** A two-input value function over the seven values, tabulated on the
    segment codes. *)

val table : (Tvalue.t -> Tvalue.t -> Tvalue.t) -> table
(** [table f] tabulates [f] on all 49 pairs of values. *)

val lookup : table -> Tvalue.t -> Tvalue.t -> Tvalue.t
(** [lookup (table f) a b = f a b]. *)

val map2 : table -> t -> t -> t
(** [map2 (table f) a b] is the pointwise combination [f] of two
    signals.  When one is constant the other is mapped and keeps its
    skew; otherwise both are materialized first, since the skew of a
    combined value cannot in general be represented by a single window.
    @raise Invalid_argument on period mismatch. *)

val map3 : (Tvalue.t -> Tvalue.t -> Tvalue.t -> Tvalue.t) -> t -> t -> t -> t
(** Three-input pointwise combination (e.g. 2-input multiplexer with its
    select line), by the same rule as {!map2}: all three inputs are
    materialized once two or more of them vary.  [f] is called on
    decoded values and must not itself call a kernel of this module. *)

val buffer : invert:bool -> delay:Delay.t -> t -> t
(** [buffer ~invert ~delay w] is {!apply_delay}[ delay] of [w], or of
    its complement when [invert]: a buffer or inverter, or a connection
    that inverts.  The complement and an envelope delay's rotation are
    written in one copy. *)

val gate : table -> init:Tvalue.t -> invert:bool -> delay:Delay.t -> t array -> t
(** [gate (table f) ~init ~invert ~delay ws] is a gate's output: at each
    instant, [List.fold_left f init] over the inputs' values, complemented
    when [invert], then delayed as by {!apply_delay}.  With every input
    but at most one constant (a record used twice counts twice) the
    varying input keeps its skew, as in {!map2}; otherwise the inputs
    are materialized.  The result is always a fresh record.
    @raise Invalid_argument on an empty array or a period mismatch. *)

type window = { w_start : Timebase.ps; w_stop : Timebase.ps }
(** A time window within the cycle; [w_stop >= w_start] always, and the
    window refers to instants taken modulo the period (so a window may
    denote a region spanning the wrap).  Zero-width windows denote
    instantaneous transitions. *)

val rising_windows : t -> window list
(** Windows during which a 0-to-1 transition may occur, with the skew
    window applied: materialized [Rise] segments, [Change]/[Unknown]
    segments lying between a 0 and a 1, and instantaneous 0-to-1
    boundaries widened by the skew. *)

val falling_windows : t -> window list

val change_windows : t -> window list
(** All windows during which the signal may transition, with the skew
    applied: maximal materialized runs of [Change]/[Rise]/[Fall], plus
    zero-width windows at instantaneous boundaries between distinct
    stable values (e.g. a [V0]-to-[V1] step, or a switch between two
    [Stable] regions of unknown value).  Used by primitives whose output
    may change whenever a given input does — e.g. the select line of a
    multiplexer, whose two data inputs may both be stable yet
    different. *)

val intervals_where : (Tvalue.t -> bool) -> t -> (Timebase.ps * Timebase.ps) list
(** Maximal modular intervals [(start, width)] of the {e materialized}
    waveform on which the predicate holds.  If the predicate holds
    everywhere the single interval [(0, period)] is returned. *)

val pulse_intervals : Tvalue.t -> t -> (Timebase.ps * Timebase.ps) list
(** Maximal modular intervals [(start, width)] of the {e nominal} list
    holding exactly the given value — skew is deliberately not folded in,
    because a common skew moves both edges of a pulse together and so
    does not narrow it (§2.8).  This is what the minimum-pulse-width
    checker measures; a waveform whose skew was already folded in (by a
    combination) naturally yields the narrower guaranteed widths. *)

val stable_everywhere : t -> bool
(** True when every instant satisfies {!Tvalue.is_stable} after
    materialization. *)

val stable_over : t -> start:Timebase.ps -> width:Timebase.ps -> bool
(** True when the materialized waveform is stable over the given modular
    interval.  A width of 0 is trivially satisfied; a width larger than
    the period can never be satisfied unless the signal is stable
    everywhere. *)

val stable_interval_around :
  t -> Timebase.ps -> (Timebase.ps * Timebase.ps) option
(** The maximal stable interval [(start, width)] containing the given
    instant, if the materialized value there is stable. *)

val sampled : t -> window -> Tvalue.t option
(** What a register samples over a clock window: [Some v] when the
    materialized value at the window's start is [V0] or [V1] and holds
    through its stop, else [None].  A one-segment waveform is one run
    from 0 to the period here, so a window that crosses the wrap samples
    [None] from it. *)

val pp : Format.formatter -> t -> unit
(** Summary-listing format in the style of Figure 3-10: a sequence of
    [VALUE time] entries with times in nanoseconds, plus the skew if
    non-zero. *)
