open Scald_core

(* The request kinds with their own latency histogram, in the fixed
   order every exposition (stats/health/prom/metrics) lists them. *)
let kinds = [ "load"; "delta"; "verify"; "stats"; "health" ]

type t = {
  sv_store : Store.t;
  sv_obs : Scald_obs.Obs.t;
  sv_telemetry : bool;
  sv_slow_ms : float;
  sv_log : out_channel option;
  sv_prom : string option;
  sv_t0_us : float;
  mutable sv_requests : int;
  mutable sv_errors : int;
  mutable sv_slow : int;
  mutable sv_reused_nets : int;
  mutable sv_dirtied_nets : int;
  mutable sv_warm_hits : int;
  mutable sv_last_report : Verifier.report option;
  sv_kind_hist : (string, Scald_obs.Hist.t) Hashtbl.t;  (* request wall µs *)
  mutable sv_spans_seen : int;  (* profiler spans consumed so far *)
  mutable sv_lanes : (int * string) list;  (* trace lanes, newest first *)
  mutable sv_mem : Scald_obs.Mem.snapshot;
  mutable sv_bpp : float;  (* bytes per primitive, last sampled *)
}

let create ?obs ?(telemetry = true) ?(slow_ms = infinity) ?log ?prom () =
  let sv_obs = match obs with Some o -> o | None -> Scald_obs.Obs.create () in
  {
    sv_store = Store.create ();
    sv_obs;
    sv_telemetry = telemetry;
    sv_slow_ms = slow_ms;
    sv_log = log;
    sv_prom = prom;
    sv_t0_us = Scald_obs.Obs.now_us sv_obs;
    sv_requests = 0;
    sv_errors = 0;
    sv_slow = 0;
    sv_reused_nets = 0;
    sv_dirtied_nets = 0;
    sv_warm_hits = 0;
    sv_last_report = None;
    sv_kind_hist = Hashtbl.create 8;
    sv_spans_seen = Scald_obs.Span.n_completed (Scald_obs.Obs.profiler sv_obs);
    sv_lanes = [];
    sv_mem = Scald_obs.Mem.zero;
    sv_bpp = 0.0;
  }

let store t = t.sv_store
let lanes t = List.rev t.sv_lanes

let hello () =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.Str "hello");
      ("service", Json.Str "scald_tv serve");
      ("version", Json.Str Version.version);
      ("protocol", Json.Str Version.protocol);
      ("metrics_schema", Json.Str Scald_obs.Counters.schema_version);
    ]

let error ?op msg =
  Json.Obj
    ((match op with Some o -> [ ("op", Json.Str o) ] | None -> [])
    @ [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

let ok op fields = Json.Obj (("ok", Json.Bool true) :: ("op", Json.Str op) :: fields)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- telemetry ------------------------------------------------------------ *)

let uptime_us t = Scald_obs.Obs.now_us t.sv_obs -. t.sv_t0_us

let hist_for tbl name =
  match Hashtbl.find_opt tbl name with
  | Some h -> h
  | None ->
    let h = Scald_obs.Hist.create () in
    Hashtbl.add tbl name h;
    h

(* How many spans the last request produced: a request that produced
   any gets its own named trace lane. *)
let consume_spans t =
  let n = Scald_obs.Span.n_completed (Scald_obs.Obs.profiler t.sv_obs) in
  let fresh = n - t.sv_spans_seen in
  t.sv_spans_seen <- n;
  fresh

(* Memory + bytes-per-primitive sampling.  [full] reads /proc and
   walks the netlist sizes ([Stats.storage_of] is O(design)), so it
   runs only at load/stats/health boundaries; every other request
   boundary takes the cheap GC-only snapshot, carrying the last RSS
   reading forward — this is what keeps telemetry inside the <5%
   overhead budget on sub-millisecond re-verifies. *)
let refresh_resources ?(full = false) t =
  if t.sv_telemetry then
    if full then begin
      t.sv_mem <- Scald_obs.Mem.sample ();
      match Store.latest t.sv_store with
      | None -> ()
      | Some s ->
        let nl = Session.netlist s in
        let st = Stats.storage_of (Session.report s).Verifier.r_eval in
        t.sv_bpp <-
          Stats.bytes_per_primitive st ~n_primitives:(max 1 (Netlist.n_insts nl))
    end
    else
      t.sv_mem <-
        Scald_obs.Mem.sample
          ~peak_rss_kb:t.sv_mem.Scald_obs.Mem.mem_peak_rss_kb ()

let cumulative_counters t =
  List.fold_left
    (fun acc s -> Eval.merge_counters acc (Session.cumulative s))
    Eval.zero_counters
    (Store.sessions t.sv_store)

let cache_hit_rate (c : Eval.counters) =
  let total = c.Eval.c_cache_hits + c.Eval.c_cache_misses in
  if total = 0 then 0.0 else float_of_int c.Eval.c_cache_hits /. float_of_int total

(* kind -> {count, p50_us, p90_us, p99_us, max_us}, kinds with traffic
   only, in the fixed [kinds] order. *)
let latency_json t =
  Json.Obj
    (List.filter_map
       (fun k ->
         match Hashtbl.find_opt t.sv_kind_hist k with
         | Some h when Scald_obs.Hist.count h > 0 ->
           Some
             ( k,
               Json.Obj
                 [
                   ("count", Json.of_int (Scald_obs.Hist.count h));
                   ("p50_us", Json.Num (Scald_obs.Hist.quantile h 0.5));
                   ("p90_us", Json.Num (Scald_obs.Hist.quantile h 0.9));
                   ("p99_us", Json.Num (Scald_obs.Hist.quantile h 0.99));
                   ("max_us", Json.Num (Scald_obs.Hist.max_value h));
                 ] )
         | _ -> None)
       kinds)

let log_request t ~reqno ~op ~ok ~dur_us ~slow =
  match t.sv_log with
  | None -> ()
  | Some oc ->
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("req", Json.of_int reqno);
              ("trace", Json.Str (Printf.sprintf "r%d" reqno));
              ("op", Json.Str op);
              ("ok", Json.Bool ok);
              ("dur_us", Json.Num dur_us);
              ("slow", Json.Bool slow);
            ]));
    output_char oc '\n';
    flush oc

let prom_families t =
  let open Scald_obs in
  let kind_hists =
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt t.sv_kind_hist k with
        | Some h when Hist.count h > 0 -> Some (k, h)
        | _ -> None)
      kinds
  in
  let cum = cumulative_counters t in
  let f = float_of_int in
  [
    Prom.family ~name:"scald_uptime_us"
      ~help:"Microseconds since the service started" ~typ:`Gauge
      [ Prom.sample (uptime_us t) ];
    Prom.family ~name:"scald_requests_total" ~help:"Requests served by operation"
      ~typ:`Counter
      (List.map
         (fun (k, h) -> Prom.sample ~labels:[ ("op", k) ] (f (Hist.count h)))
         kind_hists);
    Prom.family ~name:"scald_errors_total" ~help:"Requests answered with an error"
      ~typ:`Counter
      [ Prom.sample (f t.sv_errors) ];
    Prom.family ~name:"scald_slow_requests_total"
      ~help:"Requests over the --slow-ms threshold" ~typ:`Counter
      [ Prom.sample (f t.sv_slow) ];
    Prom.family ~name:"scald_request_duration_us"
      ~help:"Request wall-clock quantile estimates by operation" ~typ:`Gauge
      (List.concat_map
         (fun (k, h) ->
           [
             Prom.sample
               ~labels:[ ("op", k); ("quantile", "0.5") ]
               (Hist.quantile h 0.5);
             Prom.sample
               ~labels:[ ("op", k); ("quantile", "0.9") ]
               (Hist.quantile h 0.9);
             Prom.sample
               ~labels:[ ("op", k); ("quantile", "0.99") ]
               (Hist.quantile h 0.99);
             Prom.sample ~labels:[ ("op", k); ("quantile", "1") ] (Hist.max_value h);
           ])
         kind_hists);
    Prom.family ~name:"scald_cache_hits_total"
      ~help:"Waveform/register cache hits over all sessions" ~typ:`Counter
      [ Prom.sample (f cum.Eval.c_cache_hits) ];
    Prom.family ~name:"scald_cache_misses_total"
      ~help:"Waveform/register cache fills over all sessions" ~typ:`Counter
      [ Prom.sample (f cum.Eval.c_cache_misses) ];
    Prom.family ~name:"scald_sessions" ~help:"Live sessions in the store"
      ~typ:`Gauge
      [ Prom.sample (f (Store.n_sessions t.sv_store)) ];
    Prom.family ~name:"scald_mem_peak_rss_kb"
      ~help:"Peak resident set size in kB (VmHWM)" ~typ:`Gauge
      [ Prom.sample (f t.sv_mem.Mem.mem_peak_rss_kb) ];
    Prom.family ~name:"scald_mem_heap_words" ~help:"Major heap size in words"
      ~typ:`Gauge
      [ Prom.sample (f t.sv_mem.Mem.mem_heap_words) ];
    Prom.family ~name:"scald_bytes_per_primitive"
      ~help:"Circuit-description bytes per primitive of the latest design"
      ~typ:`Gauge
      [ Prom.sample t.sv_bpp ];
  ]

(* ---- request decoding ----------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* An optional request field: [None] when absent, its value when of the
   right type; any other type is an error naming the field, never a
   silent fall-back to the default. *)
let opt_field conv ty j key =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "%S must be %s" key ty))

let opt_str = opt_field Json.str "a string"

let target_session t j =
  let* handle = opt_str j "session" in
  match handle with
  | Some handle -> (
    match Store.find t.sv_store handle with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "no session %s" handle))
  | None -> (
    match Store.latest t.sv_store with
    | Some s -> Ok s
    | None -> Error "no session loaded")

let cases_of j =
  let* text = opt_str j "cases" in
  let* path = opt_str j "cases_file" in
  match text, path with
  | Some text, None -> Case_analysis.parse text
  | None, Some path -> (
    match read_file path with
    | text -> Case_analysis.parse text
    | exception Sys_error m -> Error m)
  | None, None -> Ok []
  | Some _, Some _ -> Error "give either \"cases\" or \"cases_file\", not both"

let source_of j =
  let* src = opt_str j "source" in
  let* path = opt_str j "file" in
  match src, path with
  | Some src, None -> Ok src
  | None, Some path -> (
    match read_file path with
    | src -> Ok src
    | exception Sys_error m -> Error m)
  | None, None -> Error "load needs \"file\" (a path) or \"source\" (inline SCALD HDL)"
  | Some _, Some _ -> Error "give either \"file\" or \"source\", not both"

(* ---- operations ----------------------------------------------------------- *)

let session_fields s =
  [
    ("session", Json.Str (Session.id s));
    ("digest", Json.Str (Session.digest s));
  ]

let do_load t j =
  let* src = source_of j in
  let* cases = cases_of j in
  let* { Scald_sdl.Expander.e_netlist = nl; _ } = Scald_sdl.Expander.load src in
  (* a case group naming a signal the design lacks fails the load on
     every path — cold, warm or adopted — before the store sees it *)
  let* () = Edit.check nl (Edit.Cases cases) in
  let probe =
    if t.sv_telemetry then Some (Scald_obs.Obs.probe t.sv_obs) else None
  in
  let outcome = Store.load t.sv_store ~cases ?probe nl in
  let s, mode_str, staged =
    match outcome with
    | Store.Cold s -> (s, "cold", 0)
    | Store.Warm s -> (s, "warm", 0)
    | Store.Adopted (s, n) -> (s, "adopted", n)
  in
  Ok
    (ok "load"
       (session_fields s
       @ [
           ("mode", Json.Str mode_str);
           ("staged", Json.of_int staged);
           ("nets", Json.of_int (Netlist.n_nets (Session.netlist s)));
           ("insts", Json.of_int (Netlist.n_insts (Session.netlist s)));
         ]))

let do_delta t j =
  let* s = target_session t j in
  let* edits =
    match Option.bind (Json.member "edits" j) Json.list with
    | None -> Error "delta needs an \"edits\" array"
    | Some js ->
      List.fold_left
        (fun acc ej ->
          let* acc = acc in
          let* e = Edit.of_json ej in
          let* () = Edit.check (Session.netlist s) e in
          Ok (e :: acc))
        (Ok []) js
  in
  let edits = List.rev edits in
  List.iter (Session.stage s) edits;
  Ok (ok "delta" (session_fields s @ [ ("staged", Json.of_int (Session.pending s)) ]))

let stats_fields (st : Session.stats) =
  [
    ("reused_nets", Json.of_int st.Session.st_reused_nets);
    ("dirtied_nets", Json.of_int st.Session.st_dirtied_nets);
    ("warm_hits", Json.of_int st.Session.st_warm_hits);
    ("events", Json.of_int st.Session.st_events);
    ("evaluations", Json.of_int st.Session.st_evaluations);
  ]

let report_fields (r : Verifier.report) =
  [
    ("violations", Json.of_int (List.length r.Verifier.r_violations));
    ("converged", Json.Bool r.Verifier.r_converged);
    ("cases", Json.of_int (List.length r.Verifier.r_cases));
    ("unasserted", Json.of_int (List.length r.Verifier.r_unasserted));
  ]

let do_verify t j =
  let* s = target_session t j in
  let* carry = opt_field Json.bool "a boolean" j "carry_counters" in
  let* listing = opt_str j "listing" in
  let report, st, fresh =
    if Session.pending s = 0 then
      (* nothing staged: the session's report already answers this
         request — full reuse, no work *)
      ( Session.report s,
        {
          Session.st_requests = (Session.stats s).Session.st_requests;
          st_reused_nets = Netlist.n_nets (Session.netlist s);
          st_dirtied_nets = 0;
          st_warm_hits = 0;
          st_fp_changed = 0;
          st_events = 0;
          st_evaluations = 0;
        },
        false )
    else
      let report, st =
        Session.reverify ~carry_counters:(Option.value carry ~default:true) s
      in
      (report, st, true)
  in
  t.sv_reused_nets <- t.sv_reused_nets + st.Session.st_reused_nets;
  t.sv_dirtied_nets <- t.sv_dirtied_nets + st.Session.st_dirtied_nets;
  t.sv_warm_hits <- t.sv_warm_hits + st.Session.st_warm_hits;
  t.sv_last_report <- Some report;
  let* listed =
    match listing with
    | None -> Ok []
    | Some path -> (
      match
        let oc = open_out_bin path in
        output_string oc (Session.listing s);
        close_out oc
      with
      | () -> Ok [ ("listing", Json.Str path) ]
      | exception Sys_error m -> Error m)
  in
  Ok
    (ok "verify"
       (session_fields s
       @ report_fields report
       @ stats_fields st
       @ [ ("fresh", Json.Bool fresh) ]
       @ listed))

let do_stats t =
  let cum = cumulative_counters t in
  Ok
    (ok "stats"
       [
         ("sessions", Json.of_int (Store.n_sessions t.sv_store));
         ("loads", Json.of_int (Store.loads t.sv_store));
         ("warm_loads", Json.of_int (Store.warm_loads t.sv_store));
         ("adopted_loads", Json.of_int (Store.adopted_loads t.sv_store));
         ("requests", Json.of_int t.sv_requests);
         ("errors", Json.of_int t.sv_errors);
         ("slow_requests", Json.of_int t.sv_slow);
         ("uptime_us", Json.of_int (int_of_float (uptime_us t)));
         ("reused_nets", Json.of_int t.sv_reused_nets);
         ("dirtied_nets", Json.of_int t.sv_dirtied_nets);
         ("warm_hits", Json.of_int t.sv_warm_hits);
         ("events", Json.of_int cum.Eval.c_events);
         ("evaluations", Json.of_int cum.Eval.c_evaluations);
         ("cache_hits", Json.of_int cum.Eval.c_cache_hits);
         ("cache_misses", Json.of_int cum.Eval.c_cache_misses);
         ("cache_hit_rate", Json.Num (cache_hit_rate cum));
         ("latency_us", latency_json t);
         ("peak_rss_kb", Json.of_int t.sv_mem.Scald_obs.Mem.mem_peak_rss_kb);
         ("bytes_per_primitive", Json.Num t.sv_bpp);
       ])

let do_health t =
  let cum = cumulative_counters t in
  let m = t.sv_mem in
  Ok
    (ok "health"
       [
         ("uptime_us", Json.of_int (int_of_float (uptime_us t)));
         ("requests", Json.of_int t.sv_requests);
         ("errors", Json.of_int t.sv_errors);
         ("slow_requests", Json.of_int t.sv_slow);
         ("sessions", Json.of_int (Store.n_sessions t.sv_store));
         ("latency_us", latency_json t);
         ("cache_hit_rate", Json.Num (cache_hit_rate cum));
         ( "mem",
           Json.Obj
             [
               ("minor_words", Json.Num m.Scald_obs.Mem.mem_minor_words);
               ("promoted_words", Json.Num m.Scald_obs.Mem.mem_promoted_words);
               ("major_words", Json.Num m.Scald_obs.Mem.mem_major_words);
               ("heap_words", Json.of_int m.Scald_obs.Mem.mem_heap_words);
               ("compactions", Json.of_int m.Scald_obs.Mem.mem_compactions);
               ("peak_rss_kb", Json.of_int m.Scald_obs.Mem.mem_peak_rss_kb);
             ] );
         ("bytes_per_primitive", Json.Num t.sv_bpp);
       ])

let extra_counters t =
  let open Scald_obs in
  let svc =
    List.concat_map
      (fun k ->
        match Hashtbl.find_opt t.sv_kind_hist k with
        | Some h when Hist.count h > 0 ->
          [
            (Printf.sprintf "svc_%s_requests" k, Hist.count h);
            (Printf.sprintf "svc_%s_p50_us" k, int_of_float (Hist.quantile h 0.5));
            (Printf.sprintf "svc_%s_p90_us" k, int_of_float (Hist.quantile h 0.9));
            (Printf.sprintf "svc_%s_p99_us" k, int_of_float (Hist.quantile h 0.99));
            (Printf.sprintf "svc_%s_max_us" k, int_of_float (Hist.max_value h));
          ]
        | _ -> [])
      kinds
  in
  [
    ("incr_requests", t.sv_requests);
    ("incr_sessions", Store.n_sessions t.sv_store);
    ("incr_loads", Store.loads t.sv_store);
    ("incr_warm_loads", Store.warm_loads t.sv_store);
    ("incr_adopted_loads", Store.adopted_loads t.sv_store);
    ("incr_reused_nets", t.sv_reused_nets);
    ("incr_dirtied_nets", t.sv_dirtied_nets);
    ("incr_warm_hits", t.sv_warm_hits);
    ("svc_slow_requests", t.sv_slow);
    ("mem_minor_words", int_of_float t.sv_mem.Mem.mem_minor_words);
    ("mem_promoted_words", int_of_float t.sv_mem.Mem.mem_promoted_words);
    ("mem_major_words", int_of_float t.sv_mem.Mem.mem_major_words);
    ("mem_heap_words", t.sv_mem.Mem.mem_heap_words);
    ("mem_compactions", t.sv_mem.Mem.mem_compactions);
    ("mem_peak_rss_kb", t.sv_mem.Mem.mem_peak_rss_kb);
    ("bytes_per_primitive", int_of_float t.sv_bpp);
  ]
  @ svc

let write_metrics t path =
  match
    match t.sv_last_report with
    | Some r -> Some r
    | None -> Option.map Session.report (Store.latest t.sv_store)
  with
  | None -> false
  | Some report ->
    Scald_obs.Obs.write_metrics ~extra:(extra_counters t) t.sv_obs ~report path;
    true

let request_op req = Option.value (Option.bind (Json.member "op" req) Json.str) ~default:""

(* How a response or log line names a request's op: "?" when it has
   none. *)
let op_label op = if op = "" then "?" else op

let handle t req =
  t.sv_requests <- t.sv_requests + 1;
  let reqno = t.sv_requests in
  let op = request_op req in
  let t_start = if t.sv_telemetry then Scald_obs.Obs.now_us t.sv_obs else 0.0 in
  (* one lane per request: every span recorded while it runs — the
     req:* wrapper plus the nested Session/Eval phases — lands on the
     request's own trace track *)
  if t.sv_telemetry then Scald_obs.Obs.set_lane t.sv_obs reqno;
  let result =
    match op with
    | "" -> Error "request needs an \"op\" field"
    | "load" -> Scald_obs.Obs.span t.sv_obs "req:load" (fun () -> do_load t req)
    | "delta" -> Scald_obs.Obs.span t.sv_obs "req:delta" (fun () -> do_delta t req)
    | "verify" -> Scald_obs.Obs.span t.sv_obs "req:verify" (fun () -> do_verify t req)
    | "stats" ->
      (* the response carries the memory snapshot: refresh first *)
      refresh_resources ~full:true t;
      do_stats t
    | "health" ->
      refresh_resources ~full:true t;
      do_health t
    | "shutdown" -> Ok (ok "shutdown" [])
    | o -> Error (Printf.sprintf "unknown op %S" o)
  in
  let succeeded = match result with Ok _ -> true | Error _ -> false in
  if not succeeded then t.sv_errors <- t.sv_errors + 1;
  if t.sv_telemetry then begin
    Scald_obs.Obs.set_lane t.sv_obs 0;
    let fresh = consume_spans t in
    if fresh > 0 then
      t.sv_lanes <- (reqno, Printf.sprintf "r%d:%s" reqno op) :: t.sv_lanes;
    let dur_us = Scald_obs.Obs.now_us t.sv_obs -. t_start in
    if List.mem op kinds then
      Scald_obs.Hist.add (hist_for t.sv_kind_hist op) dur_us;
    let slow = dur_us /. 1000.0 > t.sv_slow_ms in
    if slow then t.sv_slow <- t.sv_slow + 1;
    (match op with
    | "load" when succeeded -> refresh_resources ~full:true t
    | "stats" | "health" -> ()  (* refreshed pre-dispatch *)
    | _ ->
      (* between the full sampling points only the prom exporter reads
         the snapshot, so only it pays the per-request GC sample *)
      if t.sv_prom <> None then refresh_resources t);
    log_request t ~reqno ~op:(op_label op) ~ok:succeeded ~dur_us ~slow;
    match t.sv_prom with
    | Some path -> Scald_obs.Prom.write_file path (prom_families t)
    | None -> ()
  end;
  match result with
  | Ok resp -> (resp, op <> "shutdown")
  | Error msg -> (error ~op:(op_label op) msg, true)

let handle_line t line =
  match Json.parse line with
  | Error msg ->
    t.sv_requests <- t.sv_requests + 1;
    t.sv_errors <- t.sv_errors + 1;
    (Json.to_string (error (Printf.sprintf "bad JSON: %s" msg)), true)
  | Ok req -> (
    match handle t req with
    | resp, cont -> (Json.to_string resp, cont)
    | exception (Invalid_argument msg | Failure msg | Sys_error msg) ->
      t.sv_errors <- t.sv_errors + 1;
      (Json.to_string (error ~op:(op_label (request_op req)) msg), true))

let write_trace t path =
  Scald_obs.Obs.write_profile ~process_name:"scald_tv serve" ~lanes:(lanes t)
    ?report:t.sv_last_report t.sv_obs path

let run ?metrics ?slow_ms ?log ?prom ?trace ?telemetry ic oc =
  let log_oc = Option.map open_out log in
  let t = create ?telemetry ?slow_ms ?log:log_oc ?prom () in
  output_string oc (Json.to_string (hello ()));
  output_char oc '\n';
  flush oc;
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
      if String.trim line = "" then loop ()
      else begin
        let resp, cont = handle_line t line in
        output_string oc resp;
        output_char oc '\n';
        flush oc;
        if cont then loop ()
      end
  in
  loop ();
  (match metrics with
  | Some path -> ignore (write_metrics t path)
  | None -> ());
  (match trace with Some path -> write_trace t path | None -> ());
  Option.iter close_out log_oc;
  0
