(** Flat run metrics and their JSON rendering.

    Collects the evaluator counters carried in a verification report
    (plus optional per-phase wall times from a {!Span} profiler) into
    one flat record, written as a single JSON object — the
    [metrics.json] consumed by dashboards and the bench harness.  The
    writer is hand-rolled (the repo takes no JSON dependency); the
    emitted shape is pinned by [doc/metrics.schema.json]. *)

type metrics = {
  m_counters : (string * int) list;
      (** flat integer counters: ["events"], ["evaluations"],
          ["events_queued"], ["events_coalesced"], ["queue_hwm"],
          ["cases"], ["violations"], ["unasserted"] *)
  m_flags : (string * bool) list;  (** ["converged"] *)
  m_kinds : (string * int) list;  (** evaluations per primitive kind *)
  m_phases : (string * float) list;  (** per-phase wall seconds *)
}

val schema_version : string
(** The schema identifier written into every metrics document (the
    [doc/metrics.schema.json] enum), e.g. ["scald-metrics/6"].  Exposed
    so service clients can negotiate against it ([scald_tv --metrics]
    prints it; the serve hello banner carries it). *)

val of_report :
  ?phases:(string * float) list ->
  ?extra:(string * int) list ->
  Scald_core.Verifier.report ->
  metrics
(** Extract every counter from a report; [phases] adds per-phase wall
    times (name, seconds) — pass [Obs.phase_seconds] or hand-timed
    figures.  [extra] appends additional flat integer counters (the
    incremental service's [incr_*]/[svc_*]/[mem_*] families — see
    [doc/metrics.schema.json] for the allowed names).

    @raise Invalid_argument if any counter key appears twice (a
    colliding [extra] would otherwise serialize as two identical JSON
    fields — valid to some parsers, last-wins to others). *)

val counter : metrics -> string -> int
(** Value of a flat counter, 0 when absent. *)

val to_json : metrics -> string
(** One flat JSON object, terminated by a newline. *)

val write_file : metrics -> string -> unit

val json_string : string -> string
(** JSON string literal (quoted, escaped) — shared with
    {!Trace_export}. *)
