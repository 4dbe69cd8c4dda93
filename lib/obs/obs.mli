(** Observability facade: one handle around the phase profiler
    ({!Span}) and the exporters ({!Trace_export}, {!Counters}).

    Typical use, mirroring [bin/scald_tv.ml]:
    {[
      let obs = Obs.create () in
      let nl = Obs.span obs "expand" (fun () -> expand src) in
      let report = Verifier.verify ~probe:(Obs.probe obs) nl in
      Obs.write_profile obs "profile.json";
      Obs.write_metrics obs ~report "metrics.json"
    ]}

    Everything here costs nothing unless a handle is created and its
    probe passed in: the evaluator's counters are plain always-on
    integers.  The causal violation traces ({!Causal}) need no handle:
    they are derived from a report alone. *)

type t

val create : ?clock:(unit -> float) -> ?keep_spans:bool -> unit -> t
(** [clock] is passed to the profiler (tests inject a fake).
    [keep_spans] (default [true]) is the profiler's [keep]
    ({!Span.create}): pass [false] when no trace file will be written —
    the phase totals are kept either way. *)

val profiler : t -> Span.t

val now_us : t -> float
(** The profiler's clock, µs since creation (see {!Span.now_us}) —
    the serve loop times whole requests with it so deterministic test
    clocks drive request latencies and spans together. *)

val set_lane : t -> int -> unit
(** Set the trace lane stamped on subsequent spans ({!Span.set_lane});
    the serve daemon assigns one lane per request. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Record a top-level phase (parse, expand, report …) around [f]. *)

val probe : t -> Scald_core.Verifier.probe
(** The hook record for {!Scald_core.Verifier.verify}: spans feed the
    profiler. *)

val phase_seconds : t -> (string * float) list
(** Summed wall seconds per distinct span name, in first-seen order
    ({!Span.totals}); kept whether or not the spans are. *)

val metrics :
  ?extra:(string * int) list ->
  t ->
  report:Scald_core.Verifier.report ->
  Counters.metrics
(** Counters from the report plus this handle's per-phase times;
    [extra] appends additional flat counters (see
    {!Counters.of_report}). *)

val write_profile :
  ?process_name:string ->
  ?lanes:(int * string) list ->
  ?report:Scald_core.Verifier.report ->
  t ->
  string ->
  unit
(** Write the Chrome trace of the kept spans (none unless the handle
    was created with [keep_spans]); when [report] is given its counters
    are appended as counter-track samples, and [lanes] names the
    per-lane tracks (see {!Trace_export.to_json}). *)

val write_metrics :
  ?extra:(string * int) list ->
  t ->
  report:Scald_core.Verifier.report ->
  string ->
  unit
