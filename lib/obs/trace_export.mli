(** Chrome [trace_event] export.

    Renders a {!Span} profile (plus optional counter samples) as the
    JSON-array flavour of the Chrome trace-event format, loadable in
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}.  Every
    emitted object carries the four keys [name]/[ph]/[ts]/[dur]:
    complete spans use phase ["X"], counter samples phase ["C"] (with a
    zero [dur], which the format permits as an extra key).  Timestamps
    and durations are microseconds, as the format requires.

    Each span's [tid] is its {!Span.span.s_lane}, so a serve daemon
    that assigns one lane per request gets one track per request; the
    [?lanes] argument names those tracks with phase-["M"]
    [thread_name] metadata events.

    The array is printed by {!Scald_core.Json.to_lines}, one event per
    line. *)

val to_json :
  ?process_name:string ->
  ?lanes:(int * string) list ->
  ?counters:(string * int) list ->
  Span.t ->
  string
(** The whole trace as one JSON array.  [lanes] maps a tid to its
    display name (e.g. [(3, "r3:verify")]); [counters] adds one
    phase-["C"] sample per counter at the end of the profile, so the
    evaluator totals show as counter tracks alongside the phase
    spans. *)

val write_file :
  ?process_name:string ->
  ?lanes:(int * string) list ->
  ?counters:(string * int) list ->
  Span.t ->
  string ->
  unit
