(** Flat run metrics and their JSON rendering.

    Collects the report's one counter snapshot — every row of the
    evaluator's counter table ({!Scald_core.Eval.table}) and the
    per-kind evaluations — and the report's own tallies (plus optional
    per-phase wall times from a {!Span} profiler) into one flat record,
    written as a single JSON object — the [metrics.json] consumed by
    dashboards and the bench harness.  The object is printed by
    {!Scald_core.Json.to_lines}; its shape is pinned by
    [doc/metrics.schema.json]. *)

type metrics = {
  m_counters : (string * int) list;
      (** flat integer counters: the counter table's rows in table
          order, then ["cases"], ["cases_diverged"], ["jobs"],
          ["violations"], ["unasserted"] and any [extra] *)
  m_flags : (string * bool) list;  (** ["converged"] *)
  m_kinds : (string * int) list;  (** evaluations per primitive kind *)
  m_phases : (string * float) list;  (** per-phase wall seconds *)
}

val schema_version : string
(** The schema identifier written into every metrics document (the
    [doc/metrics.schema.json] enum), e.g. ["scald-metrics/8"].  Exposed
    so service clients can negotiate against it ([scald_tv --metrics]
    prints it; the serve hello banner carries it). *)

val of_report :
  ?phases:(string * float) list ->
  ?extra:(string * int) list ->
  Scald_core.Verifier.report ->
  metrics
(** Extract every counter from a report: each evaluator key from its
    snapshot ([r_counters]), so the evaluator's laws hold in the
    result; [phases] adds per-phase wall times (name, seconds) — pass
    [Obs.phase_seconds] or hand-timed figures.  [extra] appends additional flat integer counters (the
    incremental service's [incr_*]/[svc_*]/[mem_*] families — see
    [doc/metrics.schema.json] for the allowed names).

    @raise Invalid_argument if any counter key appears twice (a
    colliding [extra] would otherwise serialize as two identical JSON
    fields — valid to some parsers, last-wins to others). *)

val counter : metrics -> string -> int
(** Value of a flat counter, 0 when absent. *)

val to_json : metrics -> string
(** One JSON object, one member per line ({!Scald_core.Json.to_lines}):
    ["schema"], the counters, the flags, then the ["evals_by_kind"] and
    ["phases_s"] objects. *)

val write_file : metrics -> string -> unit
