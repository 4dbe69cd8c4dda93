(** Observability facade: one handle bundling the phase profiler
    ({!Span}), the causal event ring ({!Causal}) and the exporters
    ({!Trace_export}, {!Counters}).

    Typical use, mirroring [bin/scald_tv.ml]:
    {[
      let obs = Obs.create ~trace_buffer:4096 () in
      let nl = Obs.span obs "expand" (fun () -> expand src) in
      let report = Verifier.verify ~probe:(Obs.probe obs) nl in
      Obs.write_profile obs "profile.json";
      Obs.write_metrics obs ~report "metrics.json";
      print_string
        (Obs.explain_all obs report.Verifier.r_eval report.Verifier.r_violations)
    ]}

    Everything here costs nothing unless a handle is created and its
    probe passed in: the evaluator's counters are plain always-on
    integers, and its event hook stays [None]. *)

type t

val create : ?clock:(unit -> float) -> ?trace_buffer:int -> unit -> t
(** [trace_buffer] is the causal ring capacity; [0] (the default)
    disables event tracing entirely — the probe then carries no event
    hook.  [clock] is passed to the profiler (tests inject a fake).
    @raise Invalid_argument when [trace_buffer < 0]. *)

val profiler : t -> Span.t
val ring : t -> Causal.t option

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
    profiler, events (when [trace_buffer > 0]) feed the ring. *)

val phase_seconds : t -> (string * float) list
(** Summed wall seconds per distinct span name, in first-seen order. *)

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
(** Write the Chrome trace; when [report] is given its counters are
    appended as counter-track samples, and [lanes] names the per-lane
    tracks (see {!Trace_export.to_json}). *)

val write_metrics :
  ?extra:(string * int) list ->
  t ->
  report:Scald_core.Verifier.report ->
  string ->
  unit

val explain_all :
  t -> Scald_core.Eval.t -> Scald_core.Check.t list -> string
(** Causal explanation listing, one block per violation, naming signals
    and printing values from the given evaluator — the report's [r_eval],
    whose run the ring recorded ({!Causal.explain}).  Violations are
    explained even when tracing was off — each block then carries the
    no-recorded-events note. *)
