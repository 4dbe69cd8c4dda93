open Scald_core

(* Every event carries name/ph/ts/dur/pid first, in that order; the
   whole trace is one process. *)
let event name ph ~ts ~dur rest =
  Json.Obj
    (("name", Json.Str name) :: ("ph", Json.Str ph) :: ("ts", Json.Num ts)
    :: ("dur", Json.Num dur) :: ("pid", Json.of_int 1) :: rest)

(* Complete ("X") events on one thread nest by containment; the span's
   lane is the tid, so each serve request renders on its own track
   (lane 0 is the process-lifetime track for one-shot runs). *)
let span_event (s : Span.span) =
  event s.Span.s_name "X" ~ts:s.Span.s_ts_us ~dur:s.Span.s_dur_us
    [ ("tid", Json.of_int s.Span.s_lane); ("cat", Json.Str "phase") ]

let counter_event ~ts (name, value) =
  event name "C" ~ts ~dur:0. [ ("args", Json.Obj [ (name, Json.of_int value) ]) ]

let name_args name = ("args", Json.Obj [ ("name", Json.Str name) ])

let meta_event name = event "process_name" "M" ~ts:0. ~dur:0. [ name_args name ]

let thread_name_event (tid, name) =
  event "thread_name" "M" ~ts:0. ~dur:0. [ ("tid", Json.of_int tid); name_args name ]

let to_json ?(process_name = "scald_tv") ?(lanes = []) ?(counters = []) prof =
  let spans = Span.spans prof in
  let t_end =
    List.fold_left
      (fun acc (s : Span.span) -> Float.max acc (s.Span.s_ts_us +. s.Span.s_dur_us))
      0. spans
  in
  Json.to_lines
    (Json.List
       ((meta_event process_name :: List.map thread_name_event lanes)
       @ List.map span_event spans
       @ List.map (counter_event ~ts:t_end) counters))

let write_file ?process_name ?lanes ?counters prof path =
  let oc = open_out_bin path in
  output_string oc (to_json ?process_name ?lanes ?counters prof);
  close_out oc
