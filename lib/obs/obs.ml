open Scald_core

type t = Span.t

let create ?clock ?keep_spans () = Span.create ?clock ?keep:keep_spans ()
let profiler t = t
let now_us = Span.now_us
let set_lane = Span.set_lane
let span = Span.with_span
let probe t = { Verifier.pr_span = (fun name f -> Span.with_span t name f); pr_event = None }
let phase_seconds t = List.map (fun (name, us) -> (name, us /. 1e6)) (Span.totals t)

let metrics ?extra t ~report =
  Counters.of_report ~phases:(phase_seconds t) ?extra report

let write_profile ?process_name ?lanes ?report t path =
  let counters =
    Option.fold ~none:[] ~some:(fun r -> (Counters.of_report r).Counters.m_counters) report
  in
  Trace_export.write_file ?process_name ?lanes ~counters t path

let write_metrics ?extra t ~report path =
  Counters.write_file (metrics ?extra t ~report) path
