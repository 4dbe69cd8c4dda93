(* The observability subsystem: span profiler, evaluator counters and
   event hook, causal ring buffer and violation traces, and the two
   JSON exporters (Chrome trace events, flat metrics). *)

open Scald_core
open Scald_obs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

(* ---- a minimal JSON syntax checker --------------------------------------

   The exporters hand-roll their JSON, so validity is worth an actual
   parse rather than substring checks.  Accepts the RFC 8259 grammar
   (sans \u surrogate pairing) and nothing trailing. *)

let json_ok s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
    else fail := true
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
        advance ();
        fin := true
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
            | _ -> fail := true);
            if not !fail then advance ()
          done
        | _ -> fail := true)
      | Some c when Char.code c < 0x20 -> fail := true
      | Some _ -> advance ()
    done
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let any = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        any := true;
        advance ()
      done;
      if not !any then fail := true
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let more = ref true in
        while !more && not !fail do
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some '}' ->
            advance ();
            more := false
          | _ ->
            fail := true;
            more := false
        done
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let more = ref true in
        while !more && not !fail do
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some ']' ->
            advance ();
            more := false
          | _ ->
            fail := true;
            more := false
        done
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true);
    skip_ws ()
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_checker_sanity () =
  Alcotest.(check bool) "object" true (json_ok {|{"a": 1, "b": [true, null, "x\n"]}|});
  Alcotest.(check bool) "trailing junk" false (json_ok "{} x");
  Alcotest.(check bool) "bare comma" false (json_ok "[1,]");
  Alcotest.(check bool) "unterminated" false (json_ok {|{"a": "b|})

(* ---- span profiler ------------------------------------------------------- *)

let fake_clock () =
  let t = ref 0.0 in
  ( (fun () -> !t),
    fun dt -> t := !t +. dt )

let test_span_nesting () =
  let clock, tick = fake_clock () in
  let prof = Span.create ~clock () in
  let r =
    Span.with_span prof "outer" (fun () ->
        tick 0.001;
        Span.with_span prof "inner" (fun () ->
            tick 0.002;
            17))
  in
  Alcotest.(check int) "value through" 17 r;
  match Span.spans prof with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner name" "inner" inner.Span.s_name;
    Alcotest.(check string) "outer name" "outer" outer.Span.s_name;
    Alcotest.(check int) "inner depth" 1 inner.Span.s_depth;
    Alcotest.(check int) "outer depth" 0 outer.Span.s_depth;
    Alcotest.(check (float 1.0)) "inner dur" 2000. inner.Span.s_dur_us;
    Alcotest.(check (float 1.0)) "outer dur" 3000. outer.Span.s_dur_us;
    Alcotest.(check (float 1.0)) "inner starts after outer" 1000. inner.Span.s_ts_us;
    Alcotest.(check (float 1.0)) "total" 3000. (Span.total_us prof "outer")
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_records_on_raise () =
  let clock, tick = fake_clock () in
  let prof = Span.create ~clock () in
  (try
     Span.with_span prof "boom" (fun () ->
         tick 0.004;
         failwith "x")
   with Failure _ -> ());
  match Span.spans prof with
  | [ s ] ->
    Alcotest.(check string) "name" "boom" s.Span.s_name;
    Alcotest.(check (float 1.0)) "dur" 4000. s.Span.s_dur_us;
    Alcotest.(check int) "depth restored" 0 s.Span.s_depth
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* ---- evaluator counters and hook ------------------------------------------ *)

let two_buf_circuit () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  let nl = Netlist.create tb ~default_wire_delay:Delay.zero in
  let a = Netlist.signal nl "A .S0-4" in
  let n1 = Netlist.signal nl "N1" in
  let q = Netlist.signal nl "Q" in
  let ck = Netlist.signal nl "CK .P7-8" in
  ignore
    (Netlist.add nl ~name:"B1"
       (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn a ] ~output:(Some n1));
  ignore
    (Netlist.add nl ~name:"B2"
       (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn n1 ] ~output:(Some q));
  ignore
    (Netlist.add nl ~name:"CHK"
       (Primitive.Setup_hold_check
          { setup = Timebase.ps_of_ns 30.0; hold = Timebase.ps_of_ns 1.0 })
       ~inputs:[ Netlist.conn q; Netlist.conn ck ]
       ~output:None);
  nl

let test_counters () =
  let nl = two_buf_circuit () in
  let ev = Eval.create nl in
  Eval.run ev;
  let c = Eval.counters ev in
  Alcotest.(check int) "events match accessor" (Eval.events ev) c.Eval.c_events;
  Alcotest.(check int) "evals match accessor" (Eval.evaluations ev)
    c.Eval.c_evaluations;
  Alcotest.(check bool) "queued >= events" true (c.Eval.c_queued >= c.Eval.c_events);
  Alcotest.(check bool) "hwm positive" true (c.Eval.c_queue_hwm >= 1);
  Alcotest.(check bool) "coalesced non-negative" true (c.Eval.c_coalesced >= 0);
  Alcotest.(check int) "per-kind sums to total" c.Eval.c_evaluations
    (List.fold_left (fun acc (_, n) -> acc + n) 0 c.Eval.c_evals_by_kind);
  Alcotest.(check bool) "BUF kind counted" true
    (match List.assoc_opt "BUF" c.Eval.c_evals_by_kind with
    | Some n -> n >= 2
    | None -> false);
  Eval.reset_counters ev;
  let c = Eval.counters ev in
  Alcotest.(check int) "reset events" 0 c.Eval.c_events;
  Alcotest.(check int) "reset hwm" 0 c.Eval.c_queue_hwm;
  Alcotest.(check (list (pair string int))) "reset kinds" [] c.Eval.c_evals_by_kind

let test_event_hook () =
  let nl = two_buf_circuit () in
  let ev = Eval.create nl in
  let calls = ref 0 in
  Alcotest.(check bool) "hook off by default" true (Eval.event_hook ev = None);
  Eval.set_event_hook ev (Some (fun ~inst_id:_ ~net_id:_ -> incr calls));
  Eval.run ev;
  Alcotest.(check int) "one call per event" (Eval.events ev) !calls;
  Alcotest.(check bool) "events happened" true (!calls > 0);
  Eval.set_event_hook ev None;
  Alcotest.(check bool) "hook cleared" true (Eval.event_hook ev = None)

(* ---- causal ring ---------------------------------------------------------- *)

let test_ring_bounds () =
  let r = Causal.create ~capacity:3 in
  for i = 0 to 9 do
    Causal.record r ~inst_id:i ~net_id:(100 + i)
  done;
  Alcotest.(check int) "total recorded" 10 (Causal.recorded r);
  let evs = Causal.events r in
  Alcotest.(check int) "bounded" 3 (List.length evs);
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9 ]
    (List.map (fun e -> e.Causal.e_seq) evs);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Causal.create: capacity must be >= 1") (fun () ->
      ignore (Causal.create ~capacity:0))

let test_causal_chain () =
  let nl = two_buf_circuit () in
  let ev = Eval.create nl in
  let ring = Causal.create ~capacity:64 in
  Eval.set_event_hook ev (Some (Causal.hook ring));
  Eval.run ev;
  Alcotest.(check int) "ring saw every event" (Eval.events ev)
    (Causal.recorded ring);
  let steps = Causal.explain_signal ring ev "Q" in
  Alcotest.(check bool) "chain found" true (List.length steps >= 2);
  let last = List.nth steps (List.length steps - 1) in
  Alcotest.(check string) "chain ends at Q" "Q" last.Causal.st_net;
  Alcotest.(check string) "driven by B2" "B2" last.Causal.st_inst;
  Alcotest.(check string) "primitive named" "BUF" last.Causal.st_prim;
  let first = List.hd steps in
  Alcotest.(check string) "root cause is N1" "N1" first.Causal.st_net;
  Alcotest.(check bool) "root precedes final" true
    (first.Causal.st_seq < last.Causal.st_seq);
  Alcotest.(check bool) "edge time attached" true (last.Causal.st_at_ns <> None)

let test_explain_violation () =
  let nl = two_buf_circuit () in
  let obs = Obs.create ~trace_buffer:64 () in
  let report = Verifier.verify ~probe:(Obs.probe obs) nl in
  Alcotest.(check bool) "setup violation present" true
    (report.Verifier.r_violations <> []);
  let v = List.hd report.Verifier.r_violations in
  let ring = match Obs.ring obs with Some r -> r | None -> assert false in
  let ev = report.Verifier.r_eval in
  let steps = Causal.explain ring ev v in
  Alcotest.(check bool) "violation explained" true (steps <> []);
  let listing = Obs.explain_all obs ev report.Verifier.r_violations in
  Alcotest.(check int) "one block per violation"
    (List.length report.Verifier.r_violations)
    (count_substring listing "EXPLAIN ");
  Alcotest.(check bool) "names the driving primitive" true (contains listing "B2")

let test_explain_without_tracing () =
  let nl = two_buf_circuit () in
  let obs = Obs.create () in
  let report = Verifier.verify ~probe:(Obs.probe obs) nl in
  Alcotest.(check bool) "no ring allocated" true (Obs.ring obs = None);
  Alcotest.(check bool) "evaluator hook stayed off" true
    (Eval.event_hook report.Verifier.r_eval = None);
  let listing = Obs.explain_all obs report.Verifier.r_eval report.Verifier.r_violations in
  Alcotest.(check int) "blocks still printed"
    (List.length report.Verifier.r_violations)
    (count_substring listing "EXPLAIN ");
  Alcotest.(check bool) "degrades to the note" true
    (contains listing "no recorded events")

(* ---- verifier probe and r_obs --------------------------------------------- *)

let test_probe_spans_and_r_obs () =
  let nl = two_buf_circuit () in
  let clock, _ = fake_clock () in
  let obs = Obs.create ~clock ~trace_buffer:16 () in
  let report =
    Verifier.verify ~probe:(Obs.probe obs)
      ~lint:(fun _ ->
        { Verifier.ls_errors = 0; ls_warnings = 0; ls_infos = 0; ls_listing = "" })
      nl
  in
  let names = List.map (fun s -> s.Span.s_name) (Span.spans (Obs.profiler obs)) in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " span present") true
        (List.mem expected names))
    [ "lint"; "evaluate:case1"; "check:case1" ];
  Alcotest.(check int) "r_obs queued matches counters"
    (Eval.counters report.Verifier.r_eval).Eval.c_queued
    report.Verifier.r_obs.Verifier.os_queued;
  Alcotest.(check bool) "r_obs hwm positive" true
    (report.Verifier.r_obs.Verifier.os_queue_hwm >= 1);
  Alcotest.(check bool) "r_obs kinds populated" true
    (report.Verifier.r_obs.Verifier.os_evals_by_kind <> [])

let test_r_obs_without_probe () =
  let nl = two_buf_circuit () in
  let report = Verifier.verify nl in
  Alcotest.(check bool) "counters carried with no probe" true
    (report.Verifier.r_obs.Verifier.os_queued > 0);
  Alcotest.(check bool) "hook never installed" true
    (Eval.event_hook report.Verifier.r_eval = None)

(* ---- exporters ------------------------------------------------------------- *)

let test_metrics_json () =
  let nl = two_buf_circuit () in
  let obs = Obs.create ~trace_buffer:16 () in
  let report = Verifier.verify ~probe:(Obs.probe obs) nl in
  let m = Obs.metrics obs ~report in
  Alcotest.(check int) "events counter" report.Verifier.r_events
    (Counters.counter m "events");
  Alcotest.(check int) "hwm counter"
    report.Verifier.r_obs.Verifier.os_queue_hwm
    (Counters.counter m "queue_hwm");
  Alcotest.(check bool) "phases captured" true
    (List.mem_assoc "evaluate:case1" m.Counters.m_phases);
  let json = Counters.to_json m in
  Alcotest.(check bool) "valid json" true (json_ok json);
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " present") true (contains json key))
    [
      "\"schema\"";
      "\"events\"";
      "\"evaluations\"";
      "\"queue_hwm\"";
      "\"sched_levels\"";
      "\"sccs\"";
      "\"max_scc_size\"";
      "\"cache_hits\"";
      "\"cache_misses\"";
      "\"events_coalesced\"";
      "\"converged\"";
      "\"evals_by_kind\"";
      "\"phases_s\"";
    ]

let test_trace_json () =
  let clock, tick = fake_clock () in
  let prof = Span.create ~clock () in
  Span.with_span prof "expand \"quoted\"" (fun () ->
      tick 0.001;
      Span.with_span prof "evaluate" (fun () -> tick 0.002));
  let json = Trace_export.to_json ~counters:[ ("events", 42) ] prof in
  Alcotest.(check bool) "valid json" true (json_ok json);
  Alcotest.(check bool) "array shape" true (String.length json > 0 && json.[0] = '[');
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " present") true (contains json key))
    [ "\"ph\": \"X\""; "\"ph\": \"C\""; "\"ts\":"; "\"dur\":"; "\"name\":" ];
  Alcotest.(check bool) "escapes names" true (contains json "expand \\\"quoted\\\"");
  Alcotest.(check bool) "counter value" true (contains json "{\"events\": 42}")

let test_json_string_escaping () =
  Alcotest.(check string) "plain" "\"abc\"" (Counters.json_string "abc");
  Alcotest.(check string) "specials" "\"a\\\"b\\\\c\\nd\""
    (Counters.json_string "a\"b\\c\nd");
  Alcotest.(check string) "control" "\"\\u0001\"" (Counters.json_string "\x01");
  Alcotest.(check bool) "result parses" true (json_ok (Counters.json_string "a\"b\\c\nd\x01"))

(* ---- latency histograms ---------------------------------------------------- *)

let test_hist_buckets () =
  Alcotest.(check int) "<=1 lands in bucket 0" 0 (Hist.index 0.5);
  Alcotest.(check int) "1.0 lands in bucket 0" 0 (Hist.index 1.0);
  Alcotest.(check (float 1e-9)) "bound 0" 1.0 (Hist.bound 0);
  Alcotest.(check (float 1e-9)) "bound 4 is an octave" 2.0 (Hist.bound 4);
  (* the bucket invariant: every value is at most its bucket's upper
     bound, and above the previous bucket's *)
  List.iter
    (fun v ->
      let i = Hist.index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g <= bound %d" v i)
        true
        (v <= Hist.bound i +. 1e-9);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%g > bound %d" v (i - 1))
          true
          (v > Hist.bound (i - 1) -. 1e-9))
    [ 1.5; 2.0; 3.0; 10.0; 1000.0; 12345.678; 1.0e9 ];
  (* index is monotone over a sweep *)
  let last = ref (-1) in
  for k = 1 to 400 do
    let i = Hist.index (float_of_int k *. 7.3) in
    Alcotest.(check bool) "monotone" true (i >= !last);
    last := i
  done

let test_hist_exact_stats () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Hist.quantile h 0.5);
  List.iter (Hist.add h) [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ];
  Alcotest.(check int) "count" 8 (Hist.count h);
  Alcotest.(check (float 1e-9)) "sum exact" 31.0 (Hist.sum h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Hist.min_value h);
  Alcotest.(check (float 1e-9)) "max exact" 9.0 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" (31.0 /. 8.0) (Hist.mean h);
  Hist.clear h;
  Alcotest.(check int) "cleared" 0 (Hist.count h);
  Alcotest.(check (float 0.0)) "cleared sum" 0.0 (Hist.sum h)

let test_hist_quantiles () =
  (* insertion order never changes a quantile *)
  let values = List.init 100 (fun i -> float_of_int (i + 1) *. 37.0) in
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) values;
  List.iter (Hist.add b) (List.rev values);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%g order-independent" q)
        (Hist.quantile a q) (Hist.quantile b q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* bounded relative error: the estimate is the bucket's upper bound,
     so it sits within [true, true * 2^(1/4)] *)
  let true_p50 = 50.0 *. 37.0 in
  let est = Hist.quantile a 0.5 in
  Alcotest.(check bool) "p50 >= true" true (est >= true_p50 -. 1e-9);
  Alcotest.(check bool) "p50 within one bucket" true
    (est <= true_p50 *. Float.pow 2.0 0.25 +. 1e-9);
  Alcotest.(check (float 1e-9)) "p100 is the max exactly" (100.0 *. 37.0)
    (Hist.quantile a 1.0);
  (* a one-element histogram reports the element at every quantile *)
  let one = Hist.create () in
  Hist.add one 1234.5;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single element q=%g" q)
        1234.5 (Hist.quantile one q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () and whole = Hist.create () in
  let va = [ 10.0; 20.0; 30.0 ] and vb = [ 5.0; 40.0; 80.0; 160.0 ] in
  List.iter (Hist.add a) va;
  List.iter (Hist.add b) vb;
  List.iter (Hist.add whole) (va @ vb);
  let m = Hist.merge a b in
  Alcotest.(check int) "count adds" 7 (Hist.count m);
  Alcotest.(check (float 1e-9)) "sum adds" (Hist.sum whole) (Hist.sum m);
  Alcotest.(check (float 1e-9)) "min combines" 5.0 (Hist.min_value m);
  Alcotest.(check (float 1e-9)) "max combines" 160.0 (Hist.max_value m);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "merged quantile q=%g" q)
        (Hist.quantile whole q) (Hist.quantile m q))
    [ 0.25; 0.5; 0.75; 1.0 ];
  Alcotest.(check int) "arguments untouched" 3 (Hist.count a);
  let e = Hist.merge (Hist.create ()) b in
  Alcotest.(check (float 1e-9)) "empty merge keeps min" 5.0 (Hist.min_value e)

(* ---- resource accounting --------------------------------------------------- *)

let test_mem_sample () =
  let s = Mem.sample () in
  Alcotest.(check bool) "heap words positive" true (s.Mem.mem_heap_words > 0);
  Alcotest.(check bool) "minor words non-negative" true
    (s.Mem.mem_minor_words >= 0.0);
  Alcotest.(check bool) "compactions non-negative" true
    (s.Mem.mem_compactions >= 0);
  Alcotest.(check bool) "rss non-negative" true (s.Mem.mem_peak_rss_kb >= 0);
  let carried = Mem.sample ~peak_rss_kb:4321 () in
  Alcotest.(check int) "rss carried forward" 4321 carried.Mem.mem_peak_rss_kb;
  Alcotest.(check int) "zero placeholder" 0 Mem.zero.Mem.mem_heap_words

(* ---- trace lanes ----------------------------------------------------------- *)

let test_span_lanes () =
  let clock, tick = fake_clock () in
  let prof = Span.create ~clock () in
  Alcotest.(check int) "lane starts at 0" 0 (Span.lane prof);
  Span.with_span prof "boot" (fun () -> tick 0.001);
  Span.set_lane prof 3;
  Span.with_span prof "outer" (fun () ->
      tick 0.001;
      Span.with_span prof "inner" (fun () -> tick 0.001));
  Span.set_lane prof 0;
  Alcotest.(check int) "three spans complete" 3 (Span.n_completed prof);
  (match Span.spans prof with
  | [ boot; inner; outer ] ->
    Alcotest.(check string) "last-completed span last" "outer" outer.Span.s_name;
    Alcotest.(check string) "inner completes before it" "inner" inner.Span.s_name;
    Alcotest.(check int) "request spans stamped" 3 outer.Span.s_lane;
    Alcotest.(check int) "nested span inherits lane" 3 inner.Span.s_lane;
    Alcotest.(check int) "pre-request span on lane 0" 0 boot.Span.s_lane
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l));
  let json = Trace_export.to_json ~lanes:[ (3, "r3:verify") ] prof in
  Alcotest.(check bool) "valid json" true (json_ok json);
  Alcotest.(check bool) "lane becomes tid" true (contains json "\"tid\": 3");
  Alcotest.(check bool) "thread_name metadata" true
    (contains json "\"thread_name\"");
  Alcotest.(check bool) "lane named" true (contains json "\"r3:verify\"")

(* ---- metrics/3: requests counter and duplicate-key rejection ---------------- *)

let test_metrics_requests_and_dups () =
  Alcotest.(check string) "schema id" "scald-metrics/8" Counters.schema_version;
  let nl = two_buf_circuit () in
  let report = Verifier.verify nl in
  let m = Counters.of_report report in
  Alcotest.(check int) "one-shot run reports 0 requests" 0
    (Counters.counter m "requests");
  Alcotest.(check bool) "requests serialized" true
    (contains (Counters.to_json m) "\"requests\"");
  Alcotest.(check bool) "schema id serialized" true
    (contains (Counters.to_json m) "scald-metrics/8");
  let m = Counters.of_report ~extra:[ ("incr_requests", 7) ] report in
  Alcotest.(check int) "extra appended" 7 (Counters.counter m "incr_requests");
  Alcotest.check_raises "extra colliding with a builtin"
    (Invalid_argument "Counters.of_report: duplicate key \"events\"") (fun () ->
      ignore (Counters.of_report ~extra:[ ("events", 1) ] report));
  Alcotest.check_raises "extra colliding with itself"
    (Invalid_argument "Counters.of_report: duplicate key \"svc_x\"") (fun () ->
      ignore (Counters.of_report ~extra:[ ("svc_x", 1); ("svc_x", 2) ] report))

(* ---- the underconstrained example (acceptance shape) ----------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ---- the metrics schema declares what the writers emit ----------------------- *)

(* Every run writes the [Counters.of_report] keys, so they are exactly
   the schema's [required]; the serve extras (every request kind with
   traffic) and the capacity bench's [cap_*] keys are the only other
   properties.  A key a writer drops must leave the schema too. *)
let test_metrics_schema_pins_writers () =
  let module Json = Scald_incr.Json in
  let schema =
    match Json.parse (read_file "../doc/metrics.schema.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let field key =
    match Json.member key schema with Some v -> v | None -> Alcotest.failf "no %s" key
  in
  let required = List.filter_map Json.str (Option.get (Json.list (field "required"))) in
  let properties =
    match field "properties" with Json.Obj kvs -> List.map fst kvs | _ -> Alcotest.fail "properties"
  in
  let m = Counters.of_report (Verifier.verify (two_buf_circuit ())) in
  let every_run =
    ("schema" :: List.map fst m.Counters.m_counters)
    @ List.map fst m.Counters.m_flags
    @ [ "evals_by_kind"; "phases_s" ]
  in
  let svc = Scald_incr.Serve.create () in
  List.iter
    (fun line ->
      let resp, _ = Scald_incr.Serve.handle_line svc line in
      Alcotest.(check bool) (line ^ " served") true (contains resp "\"ok\":true"))
    [
      {|{"op":"load","source":"PERIOD 50.0;\nCLOCK UNIT 6.25;\n1 CHG (DELAY=1.0/3.0) (A .S0-6) -> B;\nSETUP HOLD CHK (SETUP=8.0, HOLD=1.0) (B, CK .P2-3);"}|};
      {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"B","min_ns":0,"max_ns":9}]}|};
      {|{"op":"verify"}|};
      {|{"op":"stats"}|};
      {|{"op":"health"}|};
    ];
  let serve = List.map fst (Scald_incr.Serve.extra_counters svc) in
  Alcotest.(check bool) "every request kind has latency figures" true
    (List.mem "svc_health_requests" serve && List.mem "svc_load_max_us" serve);
  let sorted l = List.sort_uniq compare l in
  Alcotest.(check (list string)) "required = the keys every run writes" (sorted every_run)
    (sorted required);
  let is_cap k = String.length k > 4 && String.sub k 0 4 = "cap_" in
  Alcotest.(check (list string)) "properties = the keys some writer emits, plus cap_*"
    (sorted (every_run @ serve))
    (sorted (List.filter (fun k -> not (is_cap k)) properties))

let test_underconstrained_explain () =
  match Scald_sdl.Expander.load (read_file "../examples/underconstrained.sdl") with
  | Error e -> Alcotest.failf "expander: %s" e
  | Ok { Scald_sdl.Expander.e_netlist = nl; _ } ->
    let obs = Obs.create ~trace_buffer:4096 () in
    let report = Verifier.verify ~probe:(Obs.probe obs) nl in
    Alcotest.(check bool) "violations exist" true
      (report.Verifier.r_violations <> []);
    let listing = Obs.explain_all obs report.Verifier.r_eval report.Verifier.r_violations in
    Alcotest.(check int) "a causal block for every violation"
      (List.length report.Verifier.r_violations)
      (count_substring listing "EXPLAIN ")

let suite =
  [
    Alcotest.test_case "json-checker-sanity" `Quick test_json_checker_sanity;
    Alcotest.test_case "span-nesting" `Quick test_span_nesting;
    Alcotest.test_case "span-records-on-raise" `Quick test_span_records_on_raise;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "event-hook" `Quick test_event_hook;
    Alcotest.test_case "ring-bounds" `Quick test_ring_bounds;
    Alcotest.test_case "causal-chain" `Quick test_causal_chain;
    Alcotest.test_case "explain-violation" `Quick test_explain_violation;
    Alcotest.test_case "explain-without-tracing" `Quick test_explain_without_tracing;
    Alcotest.test_case "probe-spans-and-r-obs" `Quick test_probe_spans_and_r_obs;
    Alcotest.test_case "r-obs-without-probe" `Quick test_r_obs_without_probe;
    Alcotest.test_case "metrics-json" `Quick test_metrics_json;
    Alcotest.test_case "trace-json" `Quick test_trace_json;
    Alcotest.test_case "json-string-escaping" `Quick test_json_string_escaping;
    Alcotest.test_case "hist-buckets" `Quick test_hist_buckets;
    Alcotest.test_case "hist-exact-stats" `Quick test_hist_exact_stats;
    Alcotest.test_case "hist-quantiles" `Quick test_hist_quantiles;
    Alcotest.test_case "hist-merge" `Quick test_hist_merge;
    Alcotest.test_case "mem-sample" `Quick test_mem_sample;
    Alcotest.test_case "span-lanes" `Quick test_span_lanes;
    Alcotest.test_case "metrics-requests-and-dups" `Quick
      test_metrics_requests_and_dups;
    Alcotest.test_case "metrics-schema-pins-writers" `Quick
      test_metrics_schema_pins_writers;
    Alcotest.test_case "underconstrained-explain" `Quick test_underconstrained_explain;
  ]
