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
    text-format file atomically rewritten after each request
    (doc/OBSERVABILITY.md, "Service telemetry").  The spans themselves
    are kept only when a trace file will be written; otherwise only
    their per-name totals (the metrics file's [phases_s]) are.  With
    telemetry off no span is recorded at all. *)

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
    included; [slow_ms] (default [infinity]) marks requests over the
    threshold slow in the log and counters; [log] receives one JSONL
    line per request; [prom] names a Prometheus text file rewritten
    after each request. *)

val store : t -> Store.t

val lanes : t -> (int * string) list
(** The trace lanes, oldest first: request number to ["r<N>:<op>"], one
    per request that completed a [req:<op>] span — pass to
    {!Scald_obs.Obs.write_profile} as [?lanes] to name the per-request
    tracks.  Derived from the kept spans, so [[]] when [obs] keeps
    none. *)

val hello : unit -> Scald_core.Json.t
(** The banner object printed before the first request. *)

val handle : t -> Scald_core.Json.t -> Scald_core.Json.t * bool
(** Dispatch one decoded request.  Returns the response and whether the
    loop should continue ([false] only after a successful [shutdown]). *)

val handle_line : t -> string -> string * bool
(** {!handle} plus JSON decoding and encoding and a catch-all that turns
    stray exceptions into error responses. *)

val extra_counters : t -> (string * int) list
(** The [incr_*], [svc_*] and [mem_*] counters this service
    contributes to the metrics JSON ([scald-metrics/8],
    doc/metrics.schema.json).  The [svc_<kind>_*] latency figures
    appear only for request kinds that saw traffic. *)

val write_metrics : t -> string -> bool
(** Write the metrics JSON for the last verified report, with the
    service counters appended.  The report's one counter snapshot is
    its session's totals (a [verify] with ["carry_counters":false]:
    that request's alone), so the evaluator's laws hold in the file.
    Returns [false] (and writes nothing) when no report exists yet. *)

val write_trace : t -> string -> unit
(** Write the Chrome trace of everything profiled so far, one named
    track per request (see {!lanes}). *)

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
    only reason the spans are kept);
    [log]/[prom]/[slow_ms]/[telemetry] as in {!create} ([log] is
    opened and closed by the loop).  Returns the process exit code
    (0). *)
