(** Mergeable log-bucketed histogram with deterministic quantiles.

    The service telemetry layer aggregates per-request latencies into
    these, one per request kind (doc/OBSERVABILITY.md, "Service
    telemetry").  Buckets are geometric with ratio [2^(1/4)]
    — four per octave, ~9% relative error — over a fixed 169-slot
    array, so [add] allocates nothing and a quantile estimate depends
    only on the multiset of values observed, never on insertion order:
    two runs that observe the same durations report byte-identical
    p50/p90/p99. *)

type t

val create : unit -> t
(** An empty histogram. *)

val add : t -> float -> unit
(** Record one observation.  Negative values clamp to [0]. *)

val count : t -> int
(** Observations recorded. *)

val sum : t -> float
(** Exact sum of all observations (not bucketed). *)

val min_value : t -> float
(** Exact smallest observation; [0] when empty. *)

val max_value : t -> float
(** Exact largest observation; [0] when empty. *)

val mean : t -> float
(** [sum / count]; [0] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile (q clamped to [0,1]) as
    the upper bound of the bucket holding the rank-[ceil q*count]
    observation, clamped into [[min_value, max_value]] — so the
    estimate is at most ~9% above the true value, [quantile t 1.0 =
    max_value] exactly, and a single-observation histogram returns
    that observation for every [q].  [0] when empty. *)

val merge : t -> t -> t
(** Pointwise sum into a fresh histogram; neither argument changes.
    [count]/[sum]/[min_value]/[max_value] combine exactly. *)

val clear : t -> unit
(** Reset to empty in place. *)

val index : float -> int
(** The bucket an observation lands in (exposed for tests). *)

val bound : int -> float
(** Upper bound of bucket [i]: [2^(i/4)] (exposed for tests). *)
