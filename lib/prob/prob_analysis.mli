(** Probability-based timing analysis (§1.4.1.2, §4.2.4).

    The DIGSIM-class alternative to min/max analysis: each component
    delay is a normal distribution, path delays combine by summing means
    and variances, and a design is checked to meet its limits at a
    designer-chosen confidence level.  The thesis argues both sides:

    - a real design usually runs faster than the min/max prediction,
      because the probability that {e every} component along a path has
      its extreme delay is tiny — the uncorrelated analysis shows the
      gain;
    - but component delays may be highly correlated (one production run,
      vendor speed-sorting), in which case the probabilistic prediction
      can be wrong and min/max "may be the best approach".  The
      [correlation] parameter interpolates between the two regimes;
      with full correlation the prediction converges to min/max.

    Component distributions are derived from the min/max data the
    manufacturer actually guarantees: mean at the range midpoint,
    standard deviation at one sixth of the range (the range spans
    ±3 sigma). *)

open Scald_core

module Dist : sig
  type t = { mean : float; variance : float }
  (** Normally distributed value; units are picoseconds (variance ps²). *)

  val of_delay : Delay.t -> t
  (** Midpoint mean, [(max - min) / 6] standard deviation. *)

  val add : ?correlation:float -> t -> t -> t
  (** Sum of two delays.  [correlation] (default 0) is the correlation
      coefficient between them: variance combines as
      [va + vb + 2 rho sqrt(va vb)]. *)

  val quantile : t -> z:float -> float
  (** [mean + z * sigma] — the delay not exceeded with the confidence
      that [z] standard deviations give (z = 3 is 99.87 %). *)

  val pp : Format.formatter -> t -> unit
end

type path = {
  p_from : string;
  p_to : string;
  p_dist : Dist.t;
  p_minmax : Timebase.ps * Timebase.ps;  (** the min/max analysis of the
                                             same path, for comparison *)
  p_through : string list;
}

type report = {
  r_paths : path list;
  r_correlation : float;
}

val analyze :
  ?sources:int list ->
  ?sinks:int list ->
  ?correlation:float ->
  Netlist.t ->
  report
(** Distributional delay of every combinational path (via
    {!Path_analysis.enumerate}).  [correlation] applies between every
    pair of successive component delays along a path.
    @raise Invalid_argument unless [correlation] is in [[0, 1]] (NaN
    included). *)

val worst_quantile : report -> z:float -> (path * float) option
(** The path with the largest [z]-quantile delay, and that delay (ps). *)

val predicted_cycle_ns : report -> z:float -> float
(** The cycle time the probabilistic analysis would sign off at the
    given confidence: the largest path quantile, in ns. *)

val minmax_cycle_ns : report -> float
(** The min/max analysis of the same paths: the largest path maximum. *)

val pp : Format.formatter -> report -> unit
