open Scald_core
module Hist = Scald_obs.Hist
module Mem = Scald_obs.Mem
module Prom = Scald_obs.Prom

type t = {
  sv_store : Store.t;
  sv_obs : Scald_obs.Obs.t;
  sv_telemetry : bool;
  sv_slow_ms : float;
  sv_log : out_channel option;
  sv_prom : string option;
  mutable sv_prom_us : float;  (* service clock at the last --prom write *)
  sv_t0_us : float;
  mutable sv_requests : int;
  mutable sv_errors : int;
  mutable sv_slow : int;
  mutable sv_loads : int;
  mutable sv_warm_loads : int;
  mutable sv_adopted_loads : int;
  mutable sv_reused_nets : int;
  mutable sv_dirtied_nets : int;
  mutable sv_warm_hits : int;
  mutable sv_last_report : Verifier.report option;
  sv_kinds : (string * Hist.t) array;
      (* the request kinds with a latency histogram (request wall µs),
         in the order every exposition lists them *)
  mutable sv_mem : Mem.snapshot;
  mutable sv_bpp : float;  (* bytes per primitive, last sampled *)
}

(* Each of these flags reads the per-request timing that telemetry off
   skips: without it the flag would print nothing, silently. *)
let telemetry_conflict ~telemetry ?slow_ms ?log ?prom ?trace () =
  [ ("--slow-ms", slow_ms <> None); ("--log", log <> None); ("--prom", prom <> None);
    ("--trace", trace <> None) ]
  |> List.find_opt (fun (_, given) -> given && not telemetry)
  |> Option.map (fun (flag, _) ->
         flag ^ " needs the per-request timing that --no-telemetry turns off")

let create ?obs ?(telemetry = true) ?slow_ms ?log ?prom () =
  Option.iter invalid_arg (telemetry_conflict ~telemetry ?slow_ms ?log ?prom ());
  let sv_obs =
    match obs with Some o -> o | None -> Scald_obs.Obs.create ~keep_spans:false ()
  in
  {
    sv_store = Store.create ();
    sv_obs;
    sv_telemetry = telemetry;
    sv_slow_ms = Option.value slow_ms ~default:infinity;
    sv_log = log;
    sv_prom = prom;
    sv_prom_us = neg_infinity;
    sv_t0_us = Scald_obs.Obs.now_us sv_obs;
    sv_requests = 0;
    sv_errors = 0;
    sv_slow = 0;
    sv_loads = 0;
    sv_warm_loads = 0;
    sv_adopted_loads = 0;
    sv_reused_nets = 0;
    sv_dirtied_nets = 0;
    sv_warm_hits = 0;
    sv_last_report = None;
    sv_kinds =
      Array.map (fun k -> (k, Hist.create ()))
        [| "load"; "delta"; "verify"; "stats"; "health" |];
    sv_mem = Mem.zero;
    sv_bpp = 0.0;
  }

let store t = t.sv_store

(* Each request that ran under telemetry completed exactly one req:<op>
   span, on its own lane: the trace names that lane after it. *)
let lanes t =
  let open Scald_obs.Span in
  List.filter_map
    (fun s ->
      match String.split_on_char ':' s.s_name with
      | [ "req"; op ] -> Some (s.s_lane, Printf.sprintf "r%d:%s" s.s_lane op)
      | _ -> None)
    (spans (Scald_obs.Obs.profiler t.sv_obs))

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

(* A directory would open, then fail naming no path. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": Is a directory"));
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---- telemetry ------------------------------------------------------------ *)

(* Memory + bytes-per-primitive sampling.  [full] reads /proc and
   walks the netlist sizes ([Stats.storage_of] is O(design)), so it
   runs only at load/stats/health boundaries; every other request
   boundary takes the cheap GC-only snapshot, carrying the last RSS
   reading forward — this is what keeps telemetry inside the <5%
   overhead budget on sub-millisecond re-verifies. *)
let refresh_resources ?(full = false) t =
  if t.sv_telemetry then
    if full then begin
      t.sv_mem <- Mem.sample ();
      match Store.latest t.sv_store with
      | None -> ()
      | Some s ->
        let nl = Session.netlist s in
        let st = Stats.storage_of (Session.report s).Verifier.r_eval in
        t.sv_bpp <-
          Stats.bytes_per_primitive st ~n_primitives:(max 1 (Netlist.n_insts nl))
    end
    else t.sv_mem <- Mem.sample ~peak_rss_kb:t.sv_mem.Mem.mem_peak_rss_kb ()

(* ---- the counter table ---------------------------------------------------- *)

type exposition = Stats | Health | Metrics | Prom

(* A row's group sets its names: the metrics key is the group prefix
   plus the member, the Prometheus name [scald_] plus [mem_] for the
   memory group, and health nests the memory group under "mem". *)
type group = Incr | Svc | Memory | Plain

type row = {
  group : group;
  name : string;  (* the stats/health member *)
  typ : [ `Counter | `Gauge ];
  shows : exposition list;
  read : t -> Eval.counters -> float;  (* given [cumulative t], once per walk *)
  doc : string;  (* one line, also the Prometheus HELP *)
}

let row group name typ shows read doc = { group; name; typ; shows; read; doc }
let n = float_of_int

let cumulative t =
  List.fold_left
    (fun acc s -> Eval.merge_counters acc (Session.cumulative s))
    Eval.zero_counters (Store.sessions t.sv_store)

(* An evaluator counter summed over the live sessions: its key and doc
   are its [Eval.table] row's. *)
let eval_row key shows =
  let r = List.find (fun (r : Eval.row) -> r.Eval.key = key) Eval.table in
  row Plain key `Counter shows
    (fun _ c -> n (Eval.counter c key))
    (r.Eval.doc ^ ", summed over the live sessions")

let cache_hit_rate _ c =
  let hits = Eval.counter c "cache_hits" in
  let total = hits + Eval.counter c "cache_misses" in
  if total = 0 then 0.0 else n hits /. n total

(* Every service counter, declared once, in the order each exposition
   prints its rows; the per-kind latency block follows them. *)
let table =
  let all = [ Stats; Health; Metrics; Prom ] in
  let mem name typ shows f doc = row Memory name typ shows (fun t _ -> f t.sv_mem) doc in
  [
    row Incr "sessions" `Gauge all (fun t _ -> n (Store.n_sessions t.sv_store))
      "live sessions in the store";
    row Incr "loads" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_loads)
      "successful loads, every mode";
    row Incr "warm_loads" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_warm_loads)
      "loads answered warm: a live session already held the design";
    row Incr "adopted_loads" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_adopted_loads)
      "loads that adopted a structurally identical session";
    row Incr "requests" `Counter [ Stats; Health; Metrics ] (fun t _ -> n t.sv_requests)
      "request lines handled, the one being answered included";
    row Svc "errors" `Counter [ Stats; Health; Prom ] (fun t _ -> n t.sv_errors)
      "requests answered with an error";
    row Svc "slow_requests" `Counter all (fun t _ -> n t.sv_slow)
      "requests over the --slow-ms threshold";
    row Svc "uptime_us" `Gauge [ Stats; Health; Prom ]
      (fun t _ -> Float.trunc (Scald_obs.Obs.now_us t.sv_obs -. t.sv_t0_us))
      "whole microseconds since the service started";
    row Incr "reused_nets" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_reused_nets)
      "nets a verify left unmoved, summed over verify requests";
    row Incr "dirtied_nets" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_dirtied_nets)
      "nets whose stamp a verify moved, summed over verify requests";
    row Incr "warm_hits" `Counter [ Stats; Metrics ] (fun t _ -> n t.sv_warm_hits)
      "verdicts the check passes kept, summed over verify requests";
    eval_row "events" [ Stats ];
    eval_row "evaluations" [ Stats ];
    eval_row "cache_hits" [ Stats; Prom ];
    eval_row "cache_misses" [ Stats; Prom ];
    row Plain "cache_hit_rate" `Gauge [ Stats; Health ] cache_hit_rate
      "cache_hits over cache_hits + cache_misses, 0 when nothing was cached";
    mem "minor_words" `Counter [ Health; Metrics ] (fun m -> m.mem_minor_words)
      "words allocated in the minor heap";
    mem "promoted_words" `Counter [ Health; Metrics ] (fun m -> m.mem_promoted_words)
      "words promoted to the major heap, as of the last collection";
    mem "major_words" `Counter [ Health; Metrics ] (fun m -> m.mem_major_words)
      "words allocated in the major heap, as of the last collection";
    mem "heap_words" `Gauge [ Health; Metrics; Prom ] (fun m -> n m.mem_heap_words)
      "major heap size in words, as of the last collection";
    mem "compactions" `Counter [ Health; Metrics ] (fun m -> n m.mem_compactions)
      "heap compactions so far";
    mem "peak_rss_kb" `Gauge all (fun m -> n m.mem_peak_rss_kb)
      "peak resident set size in kB (VmHWM), 0 without procfs";
    row Plain "bytes_per_primitive" `Gauge all (fun t _ -> t.sv_bpp)
      "circuit-description bytes per primitive of the latest design";
  ]

(* The per-kind latency block: a count, then each quantile's member
   under "latency_us" (also its svc_<kind>_ metrics suffix) and its
   Prometheus label. *)
let quantiles =
  [
    ("p50_us", "0.5", fun h -> Hist.quantile h 0.5);
    ("p90_us", "0.9", fun h -> Hist.quantile h 0.9);
    ("p99_us", "0.99", fun h -> Hist.quantile h 0.99);
    ("max_us", "1", Hist.max_value);
  ]

let shown e = List.filter (fun r -> List.mem e r.shows) table

(* The kinds that saw traffic, in [sv_kinds] order. *)
let busy t = List.filter (fun (_, h) -> Hist.count h > 0) (Array.to_list t.sv_kinds)

(* The stats or health members: the rows it shows, health's memory
   rows nested under "mem", then the latency block. *)
let members e t =
  let c = cumulative t in
  let member r = (r.name, Json.Num (r.read t c)) in
  let nested, flat = List.partition (fun r -> e = Health && r.group = Memory) (shown e) in
  let summary h =
    Json.Obj
      (("count", Json.of_int (Hist.count h))
      :: List.map (fun (m, _, f) -> (m, Json.Num (f h))) quantiles)
  in
  List.map member flat
  @ (if nested = [] then [] else [ ("mem", Json.Obj (List.map member nested)) ])
  @ [ ("latency_us", Json.Obj (List.map (fun (k, h) -> (k, summary h)) (busy t))) ]

let metrics_key r =
  (match r.group with Incr -> "incr_" | Svc -> "svc_" | Memory -> "mem_" | Plain -> "")
  ^ r.name

let extra_counters t =
  let c = cumulative t in
  List.map (fun r -> (metrics_key r, int_of_float (r.read t c))) (shown Metrics)
  @ List.concat_map
      (fun (k, h) ->
        (Printf.sprintf "svc_%s_requests" k, Hist.count h)
        :: List.map
             (fun (m, _, f) -> (Printf.sprintf "svc_%s_%s" k m, int_of_float (f h)))
             quantiles)
      (busy t)

let prom_name r =
  let suffix = if r.typ = `Counter then "_total" else "" in
  "scald_" ^ (if r.group = Memory then "mem_" else "") ^ r.name ^ suffix

(* named once: the exporter walks them on every write *)
let prom_rows = List.map (fun r -> (prom_name r, r)) (shown Prom)

let prom_families t =
  let c = cumulative t in
  List.map
    (fun (name, r) ->
      Prom.family ~name ~help:r.doc ~typ:r.typ [ Prom.sample (r.read t c) ])
    prom_rows
  @ [
      Prom.family ~name:"scald_requests_total" ~help:"requests served, by operation"
        ~typ:`Counter
        (List.map
           (fun (k, h) -> Prom.sample ~labels:[ ("op", k) ] (n (Hist.count h)))
           (busy t));
      Prom.family ~name:"scald_request_duration_us"
        ~help:"request wall-clock quantile estimates in microseconds, by operation"
        ~typ:`Gauge
        (List.concat_map
           (fun (k, h) ->
             List.map
               (fun (_, q, f) -> Prom.sample ~labels:[ ("op", k); ("quantile", q) ] (f h))
               quantiles)
           (busy t));
    ]

(* A scraper reads the Prometheus file far less often than requests
   arrive, so the file is rewritten at most once per interval on the
   service clock; [stats], [health] and the end of [run] write it
   regardless. *)
let prom_interval_us = 250_000.0

(* [sampled]: the memory snapshot is already current.  Between the full
   sampling points only this exporter reads the snapshot, so only a
   write pays the GC sample. *)
let write_prom ~force ~sampled t ~now_us =
  match t.sv_prom with
  | Some path when force || now_us -. t.sv_prom_us >= prom_interval_us ->
    if not sampled then refresh_resources t;
    Prom.write_file path (prom_families t);
    t.sv_prom_us <- now_us
  | _ -> ()

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

(* The case-specification text of a [load]: empty when it names none. *)
let cases_text_of j =
  let* text = opt_str j "cases" in
  let* path = opt_str j "cases_file" in
  match text, path with
  | Some text, None -> Ok text
  | None, Some path -> (
    match read_file path with
    | text -> Ok text
    | exception Sys_error m -> Error m)
  | None, None -> Ok ""
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
  let* case_text = cases_text_of j in
  let* { Scald_sdl.Expander.e_netlist = nl; _ } = Scald_sdl.Expander.load src in
  (* a case group naming a signal the design lacks fails the load on
     every path — cold, warm or adopted — before the store sees it *)
  let* cases = Case_analysis.parse ~netlist:nl case_text in
  let probe =
    if t.sv_telemetry then Some (Scald_obs.Obs.probe t.sv_obs) else None
  in
  let s, mode_str, staged =
    match Store.load t.sv_store ~cases ?probe nl with
    | Store.Cold s -> (s, "cold", 0)
    | Store.Warm s -> (s, "warm", 0)
    | Store.Adopted (s, n) -> (s, "adopted", n)
  in
  t.sv_loads <- t.sv_loads + 1;
  if mode_str = "warm" then t.sv_warm_loads <- t.sv_warm_loads + 1;
  if mode_str = "adopted" then t.sv_adopted_loads <- t.sv_adopted_loads + 1;
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
          let* e = Edit.of_json ~netlist:(Session.netlist s) ej in
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
  let in_span f =
    if t.sv_telemetry then Scald_obs.Obs.span t.sv_obs ("req:" ^ op) f else f ()
  in
  let result =
    match op with
    | "" -> Error "request needs an \"op\" field"
    | "load" -> in_span (fun () -> do_load t req)
    | "delta" -> in_span (fun () -> do_delta t req)
    | "verify" -> in_span (fun () -> do_verify t req)
    | "stats" ->
      (* the response carries the memory snapshot: refresh first *)
      refresh_resources ~full:true t;
      Ok (ok "stats" (members Stats t))
    | "health" ->
      refresh_resources ~full:true t;
      Ok (ok "health" (members Health t))
    | "shutdown" -> Ok (ok "shutdown" [])
    | o -> Error (Printf.sprintf "unknown op %S" o)
  in
  let succeeded = match result with Ok _ -> true | Error _ -> false in
  if not succeeded then t.sv_errors <- t.sv_errors + 1;
  if t.sv_telemetry then begin
    Scald_obs.Obs.set_lane t.sv_obs 0;
    let t_end = Scald_obs.Obs.now_us t.sv_obs in
    let dur_us = t_end -. t_start in
    Array.iter (fun (k, h) -> if String.equal k op then Hist.add h dur_us) t.sv_kinds;
    let slow = dur_us /. 1000.0 > t.sv_slow_ms in
    if slow then t.sv_slow <- t.sv_slow + 1;
    (* stats and health refreshed the snapshot pre-dispatch *)
    let full = op = "stats" || op = "health" in
    let loaded = op = "load" && succeeded in
    if loaded then refresh_resources ~full:true t;
    log_request t ~reqno ~op:(op_label op) ~ok:succeeded ~dur_us ~slow;
    write_prom ~force:full ~sampled:(full || loaded) t ~now_us:t_end
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

let run ?metrics ?slow_ms ?log ?prom ?trace ?(telemetry = true) ic oc =
  (* before the log file is created *)
  Option.iter invalid_arg (telemetry_conflict ~telemetry ?slow_ms ?log ?prom ?trace ());
  let log_oc = Option.map open_out log in
  (* the span list is kept only for the trace file *)
  let obs = Scald_obs.Obs.create ~keep_spans:(trace <> None) () in
  let t = create ~obs ~telemetry ?slow_ms ?log:log_oc ?prom () in
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
  write_prom ~force:true ~sampled:false t ~now_us:(Scald_obs.Obs.now_us t.sv_obs);
  (match metrics with
  | Some path -> ignore (write_metrics t path)
  | None -> ());
  (match trace with Some path -> write_trace t path | None -> ());
  Option.iter close_out log_oc;
  0
