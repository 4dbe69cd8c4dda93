open Scald_core

type t = {
  o_prof : Span.t;
  o_ring : Causal.t option;
}

let create ?clock ?keep_spans ?(trace_buffer = 0) () =
  if trace_buffer < 0 then invalid_arg "Obs.create: trace_buffer must be >= 0";
  {
    o_prof = Span.create ?clock ?keep:keep_spans ();
    o_ring = (if trace_buffer = 0 then None else Some (Causal.create ~capacity:trace_buffer));
  }

let profiler t = t.o_prof
let ring t = t.o_ring
let now_us t = Span.now_us t.o_prof
let set_lane t lane = Span.set_lane t.o_prof lane

let span t name f = Span.with_span t.o_prof name f

let probe t =
  {
    Verifier.pr_span = (fun name f -> Span.with_span t.o_prof name f);
    pr_event = Option.map (fun r -> Causal.hook r) t.o_ring;
  }

let phase_seconds t = List.map (fun (name, us) -> (name, us /. 1e6)) (Span.totals t.o_prof)

let metrics ?extra t ~report =
  Counters.of_report ~phases:(phase_seconds t) ?extra report

let write_profile ?process_name ?lanes ?report t path =
  let counters =
    match report with
    | None -> []
    | Some r ->
      let m = Counters.of_report r in
      m.Counters.m_counters
  in
  Trace_export.write_file ?process_name ?lanes ~counters t.o_prof path

let write_metrics ?extra t ~report path =
  Counters.write_file (metrics ?extra t ~report) path

let explain_all t ev violations =
  (* With tracing off, explain against an empty ring: every block then
     degrades to the no-recorded-events note rather than vanishing. *)
  let ring =
    match t.o_ring with Some r -> r | None -> Causal.create ~capacity:1
  in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "@[<v>CAUSAL VIOLATION TRACES (%d event(s) retained of %d recorded)@,"
    (List.length (Causal.events ring))
    (Causal.recorded ring);
  if violations = [] then Format.fprintf ppf "(no violations to explain)@,";
  List.iter
    (fun v -> Format.fprintf ppf "%a@," (Causal.pp_explanation ring ev) v)
    violations;
  Format.fprintf ppf "@]";
  Format.pp_print_flush ppf ();
  Buffer.contents buf
