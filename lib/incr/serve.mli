(** The JSONL request loop behind [scald_tv serve] (doc/SERVICE.md).

    One request per line on stdin, one response per line on stdout.
    Requests are JSON objects dispatched on their ["op"] field:
    [load], [delta], [verify], [stats], [health], [shutdown].  The
    service prints a [hello] banner (version, protocol, metrics
    schema) before reading the first request, and answers every
    malformed request with [{"op": ..., "ok": false, "error": ...}],
    naming the request's op (["?"] when it has none; no [op] at all
    for a line that is not JSON), without dying.

    The loop is strictly sequential: a request runs to completion
    before the next line is read, which is what lets sessions mutate
    their netlists in place.

    {2 Telemetry}

    With telemetry on (the default), every request is timed on the
    observability handle's clock into a per-kind {!Scald_obs.Hist}
    (so [stats]/[health] report deterministic p50/p90/p99 — inject a
    fake clock and the quantiles are reproducible), every span the
    request produces is stamped with the request's trace lane (one
    Chrome-trace track per request), and memory / bytes-per-primitive
    snapshots are taken at request boundaries — the expensive parts
    (procfs, O(design) size walk) only at [load]/[stats]/[health].  Optional sinks: a JSONL
    request log with a slow-request threshold, and a Prometheus
    text-format file atomically rewritten at most once per 250 ms of
    the observability handle's clock, after every [stats] and [health],
    and when {!run} ends (doc/OBSERVABILITY.md, "Service telemetry");
    only a request that rewrites it samples the GC.  The spans themselves
    are kept only when a trace file will be written; otherwise only
    their per-name totals (the metrics file's [phases_s]) are.  With
    telemetry off no span is recorded at all.

    Every service counter is one row of a table in [serve.ml], which
    [stats], [health], the metrics file and the Prometheus file walk
    (doc/SERVICE.md, "Service counters"). *)

type t
(** Service state: the session {!Store.t}, request counters and the
    telemetry sinks. *)

val create :
  ?obs:Scald_obs.Obs.t ->
  ?telemetry:bool ->
  ?slow_ms:float ->
  ?log:out_channel ->
  ?prom:string ->
  unit ->
  t
(** [obs] (default: a handle that keeps no span list, for a service
    that writes no trace) receives every span; [telemetry] (default
    [true]) gates all per-request measurement, the [req:<op>] spans
    included; [slow_ms] (default: never) marks requests over the
    threshold slow in the log and counters; [log] receives one JSONL
    line per request; [prom] names a Prometheus text file rewritten
    by the first request, then by the first request at least 250 ms
    (on [obs]'s clock) after the last write, and by every [stats] and
    [health].
    @raise Invalid_argument with {!telemetry_conflict}'s message. *)

val telemetry_conflict :
  telemetry:bool ->
  ?slow_ms:float ->
  ?log:'log ->
  ?prom:string ->
  ?trace:string ->
  unit ->
  string option
(** The usage error naming the first of [slow_ms], [log], [prom] and
    [trace] given while [telemetry] is [false], [None] otherwise: each
    of them reads the per-request timing that telemetry off skips, so
    it would print nothing.  {!create} and {!run} raise it; the CLI
    reports it before calling {!run}. *)

val store : t -> Store.t

val lanes : t -> (int * string) list
(** The trace lanes, oldest first: request number to ["r<N>:<op>"], one
    per request that completed a [req:<op>] span — pass to
    {!Scald_obs.Obs.write_profile} as [?lanes] to name the per-request
    tracks.  Derived from the kept spans, so [[]] when [obs] keeps
    none. *)

val hello : unit -> Scald_core.Json.t
(** The banner object printed before the first request. *)

val handle_line : t -> string -> string * bool
(** Decode, dispatch and answer one request line: the encoded response
    and whether the loop should continue ([false] only after a
    successful [shutdown]).  A stray exception becomes an error
    response. *)

val extra_counters : t -> (string * int) list
(** The [incr_*], [svc_*] and [mem_*] counters this service
    contributes to the metrics JSON ([scald-metrics/8],
    doc/metrics.schema.json), truncated to integers.  The
    [svc_<kind>_*] latency figures appear only for request kinds that
    saw traffic. *)

val write_metrics : t -> string -> bool
(** Write the metrics JSON for the last verified report, with the
    service counters appended.  The report's one counter snapshot is
    its session's totals (a [verify] with ["carry_counters":false]:
    that request's alone), so the evaluator's laws hold in the file.
    Returns [false] (and writes nothing) when no report exists yet. *)

val run :
  ?metrics:string ->
  ?slow_ms:float ->
  ?log:string ->
  ?prom:string ->
  ?trace:string ->
  ?telemetry:bool ->
  in_channel ->
  out_channel ->
  int
(** The serve main loop: banner, then read-dispatch-respond until
    [shutdown] or end of input.  [metrics] names a file to write final
    run metrics to on exit; [trace] a Chrome trace written on exit (the
    only reason the spans are kept); [prom] is written once more on
    exit, so it counts every request;
    [log]/[prom]/[slow_ms]/[telemetry] as in {!create} ([log] is
    opened and closed by the loop).  Returns the process exit code
    (0).
    @raise Invalid_argument with {!telemetry_conflict}'s message,
    [trace] included, before it reads input or creates a file. *)
