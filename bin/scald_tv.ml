(* The SCALD Timing Verifier command-line driver.

   Reads a design in the textual SCALD HDL, runs the Macro Expander and
   the Timing Verifier, and prints the error listing — optionally the
   timing summary (Figure 3-10), the cross-reference listings, and
   per-case results from a case-analysis file (§2.7.1). *)

open Scald_core

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run file case_file jobs corners summary xref quiet paths corr_advice prob
    slack diagram vcd_out phys lint lint_only lint_fatal lint_json profile_out
    metrics_out explain classes windows =
  (* The observability layer is built only when asked for; with every
     obs flag off the verifier sees no probe (the zero-overhead contract
     of doc/OBSERVABILITY.md). *)
  let obs =
    if profile_out <> None || metrics_out <> None then
      Some (Scald_obs.Obs.create ~keep_spans:(profile_out <> None) ())
    else None
  in
  let span name f =
    match obs with None -> f () | Some o -> Scald_obs.Obs.span o name f
  in
  let src = span "read" (fun () -> read_file file) in
  match span "expand" (fun () -> Scald_sdl.Expander.load src) with
  | Error msg ->
    Format.eprintf "%s: %s@." file msg;
    1
  | Ok { Scald_sdl.Expander.e_netlist = nl; e_summary; _ } ->
    (* --corners replaces the SDL's CORNERS table before anything reads
       it: lint's W rules and --windows as much as the verifier. *)
    Option.iter (Netlist.set_corners nl) corners;
    if classes then begin
      (* Static listing only: classify and exit without evaluating, so
         the dump also works on designs that would not converge. *)
      Format.printf "%a@." Flow.pp_classes (Flow.analyse nl);
      exit 0
    end;
    if windows then begin
      (* Same contract as --classes: the arrival-window listing is
         static, so it also works on designs that would not converge. *)
      Format.printf "%a@." Window.pp_windows (Window.analyse nl);
      exit 0
    end;
    if not quiet then
      Format.printf "expanded %s: %a@." file Scald_sdl.Expander.pp_summary e_summary;
    (* The static design-rule audit (lint) runs before any evaluation,
       so it also works on incomplete designs (--lint-only). *)
    let want_lint = lint || lint_only || lint_fatal || lint_json <> None in
    let lint_report =
      if want_lint then Some (span "lint" (fun () -> Scald_lint.Lint.audit nl))
      else None
    in
    (match lint_report with
    | None -> ()
    | Some lr ->
      Format.printf "@.%a@." Scald_lint.Lint_report.pp lr;
      (match lint_json with
      | None -> ()
      | Some path ->
        let oc = open_out_bin path in
        let ppf = Format.formatter_of_out_channel oc in
        Scald_lint.Lint_report.pp_jsonl ppf lr;
        Format.pp_print_flush ppf ();
        close_out oc;
        if not quiet then Format.printf "wrote lint findings to %s@." path));
    let lint_failed =
      lint_fatal
      && (match lint_report with
         | Some lr -> not (Scald_lint.Lint_report.clean lr)
         | None -> false)
    in
    if lint_only then begin
      (match obs, profile_out with
      | Some o, Some path ->
        Scald_obs.Obs.write_profile o path;
        if not quiet then Format.printf "wrote phase profile to %s@." path
      | _ -> ());
      if lint_failed then 3 else 0
    end
    else begin
    (* A bad cases file is a design error: every case is parsed and
       resolved against the netlist before anything is evaluated. *)
    let cases =
      match case_file with
      | None -> Ok []
      | Some cf ->
        Case_analysis.parse ~netlist:nl (read_file cf)
        |> Result.map_error (fun msg -> (cf, msg))
    in
    match cases with
    | Error (cf, msg) ->
      Format.eprintf "%s: %s@." cf msg;
      1
    | Ok cases ->
    (* The packaged-design mode (§2.5.3): compute interconnection
       delays from placement and routing before verifying. *)
    let phys_violations = ref [] in
    if phys then begin
      let pr = Physical.apply nl in
      Format.printf "@.%a@." Physical.pp pr;
      phys_violations := Physical.violations pr
    end;
    let report =
      Verifier.verify ?probe:(Option.map Scald_obs.Obs.probe obs) ~cases ~jobs nl
    in
    if summary then Format.printf "@.%a@." Report.pp_summary report.Verifier.r_eval;
    if diagram then
      Format.printf "@.%a@." (fun ppf -> Timing_diagram.pp ppf) report.Verifier.r_eval;
    if slack then begin
      let ev = report.Verifier.r_eval in
      if Eval.n_corners ev = 1 then
        Format.printf "@.%a@." Slack.pp (Slack.compute ev)
      else
        Array.iteri
          (fun lane (c : Corner.t) ->
            Format.printf "@.CORNER %a@.%a@." Corner.pp c Slack.pp
              (Slack.compute ~lane ev))
          (Eval.corners ev)
    end;
    (match vcd_out with
    | None -> ()
    | Some path ->
      Vcd.write_file report.Verifier.r_eval path;
      if not quiet then Format.printf "wrote waveforms to %s@." path);
    if xref then begin
      Format.printf "@.%a@." Scald_sdl.Xref.pp (Scald_sdl.Xref.build nl);
      Format.printf "@.%a@." Report.pp_cross_reference nl
    end;
    if paths then Format.printf "@.%a@." Path_analysis.pp (Path_analysis.analyze nl);
    (match prob with
    | None -> ()
    | Some correlation ->
      let r = Prob_analysis.analyze ~correlation nl in
      Format.printf "@.%a@." Prob_analysis.pp r;
      Format.printf "min/max cycle: %.1f ns   3-sigma cycle: %.1f ns@."
        (Prob_analysis.minmax_cycle_ns r)
        (Prob_analysis.predicted_cycle_ns r ~z:3.0));
    if corr_advice then begin
      let advice = Path_analysis.Corr.advise nl in
      Format.printf "@.CORR ADVISOR (clock-skew correlation, see thesis 4.2.3)@.";
      if advice = [] then Format.printf "  no fictitious delays needed@."
      else
        List.iter (fun a -> Format.printf "  %a@." Path_analysis.Corr.pp_advice a) advice
    end;
    span "report" (fun () ->
        Format.printf "@.%a@." Report.pp_violations
          (!phys_violations @ report.Verifier.r_violations));
    (* The error listing above is the reference corner's; on a
       multi-corner run follow it with the per-corner tally and the full
       listing of the worst corner (when it is not the reference). *)
    Format.printf "%a" Verifier.pp_corner_listing report;
    if not quiet then
      Format.printf "@.cases: %d  events: %d  evaluations: %d@."
        (List.length report.Verifier.r_cases)
        (Eval.counter report.Verifier.r_counters "events")
        (Eval.counter report.Verifier.r_counters "evaluations");
    if explain then Format.printf "@.%a@." Scald_obs.Causal.pp_listing report;
    (match obs with
    | None -> ()
    | Some o ->
      (match metrics_out with
      | None -> ()
      | Some path ->
        Scald_obs.Obs.write_metrics o ~report path;
        if not quiet then
          Format.printf "wrote run metrics to %s (%s)@." path
            Scald_obs.Counters.schema_version);
      (match profile_out with
      | None -> ()
      | Some path ->
        Scald_obs.Obs.write_profile ~report o path;
        if not quiet then Format.printf "wrote phase profile to %s@." path));
    (* Exit-code contract: 0 clean, 2 timing violations, 3 lint errors
       under --lint-fatal (lint errors take precedence). *)
    if lint_failed then 3
    else if Verifier.clean report && !phys_violations = [] then 0
    else 2
    end

open Cmdliner

(* A number outside its option's range is a usage error (exit 124)
   quoting the value, as a bad --corners spec is — never clamped, and
   never left to raise from the library. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let non_negative = checked Arg.int ~expected:"an integer >= 0" (fun n -> n >= 0)

let file =
  let doc = "Design source in the textual SCALD HDL." in
  Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"DESIGN" ~doc)

let case_file =
  let doc = "Case-analysis specification file (e.g. \"CONTROL = 0; CONTROL = 1;\")." in
  Arg.(value & opt (some non_dir_file) None & info [ "c"; "cases" ] ~docv:"CASES" ~doc)

let corners =
  let doc =
    "Evaluate $(docv) delay corners in one packed traversal: a \
     comma-separated list of $(i,name[=dscale[/wscale]]) entries, e.g. \
     $(b,slow,typ,fast) or $(b,typ,hot=1.4/1.2).  Bare names must be one \
     of the presets (slow=1.25, typ=1.0, fast=0.8).  The first corner is \
     the reference: its violations, ordering and convergence flags are \
     bit-identical to a run without this option.  Overrides any CORNERS \
     directive in the design source."
  in
  let spec_conv =
    let parse s =
      match Scald_core.Corner.of_spec s with
      | tbl -> Ok tbl
      | exception Invalid_argument m -> Error (`Msg m)
    in
    Arg.conv (parse, Scald_core.Corner.pp_table)
  in
  Arg.(value & opt (some spec_conv) None & info [ "corners" ] ~docv:"SPEC" ~doc)

let jobs =
  let doc =
    "Evaluate the cases on $(docv) parallel domains (0 = one per available \
     core; negative values are rejected).  Any value produces the identical \
     report; above 1 the case list is sharded over private evaluators of the \
     one netlist, each warm-started from its shard's predecessor case."
  in
  Arg.(value & opt non_negative 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let summary =
  let doc = "Print the signal-value timing summary (Figure 3-10 style)." in
  Arg.(value & flag & info [ "s"; "summary" ] ~doc)

let xref =
  let doc = "Print the cross-reference listings." in
  Arg.(value & flag & info [ "x"; "xref" ] ~doc)

let quiet =
  let doc = "Only print the error listing." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let paths =
  let doc = "Also run the worst-case path analysis (GRASP/RAS baseline)." in
  Arg.(value & flag & info [ "p"; "paths" ] ~doc)

let corr_advice =
  let doc =
    "Run the CORR advisor: find same-clock feedback paths that need a      fictitious delay to suppress false hold errors."
  in
  Arg.(value & flag & info [ "corr-advice" ] ~doc)

let slack =
  let doc = "Print the slack (margin) table, most critical constraint first." in
  Arg.(value & flag & info [ "slack" ] ~doc)

let diagram =
  let doc = "Print an ASCII timing diagram of every signal." in
  Arg.(value & flag & info [ "d"; "diagram" ] ~doc)

let vcd_out =
  let doc = "Write the evaluated waveforms to a VCD file." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let phys =
  let doc =
    "Run the physical-design subsystem first: compute interconnection delays \
     from placement/routing and flag reflection-prone edge-sensitive runs."
  in
  Arg.(value & flag & info [ "physical" ] ~doc)

let prob =
  let doc =
    "Also run the probability-based path analysis with the given component \
     correlation coefficient, a finite number in [0, 1] (0 = independent, 1 = \
     same production run)."
  in
  let rho =
    checked Arg.float ~expected:"a finite number in [0, 1]" (fun r -> r >= 0. && r <= 1.)
  in
  Arg.(value & opt (some rho) None & info [ "prob" ] ~docv:"RHO" ~doc)

let lint =
  let doc =
    "Run the static constraint lint (design-rule audit) over the expanded \
     netlist before evaluation and print its listing."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let lint_only =
  let doc =
    "Run only the constraint lint and skip evaluation entirely — usable on \
     incomplete designs that would not evaluate cleanly."
  in
  Arg.(value & flag & info [ "lint-only" ] ~doc)

let lint_fatal =
  let doc =
    "Treat lint errors as fatal: exit with status 3 when the lint reports \
     any ERROR-severity finding (implies $(b,--lint))."
  in
  Arg.(value & flag & info [ "lint-fatal" ] ~doc)

let lint_json =
  let doc = "Write the lint findings as JSON lines (one object per finding) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "lint-json" ] ~docv:"FILE" ~doc)

let profile_out =
  let doc =
    "Write a phase profile (parse, expand, lint, per-case evaluate, check, \
     report) as Chrome trace-event JSON to $(docv) — open it in \
     chrome://tracing or https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write flat run metrics (events, evaluations, queue high-water mark, \
     per-kind evaluation counts, per-phase wall times) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let explain =
  let doc =
    "After the error listing, print a causal trace for every violation, from \
     the waveforms of the first case that raised it: the chain of signals, \
     each changing within its driver's delay range before the next, from an \
     asserted source to the checked signal's failing edge."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let classes =
  let doc =
    "Print the signal class listing — every net's statically inferred class \
     ($(b,const), $(b,stable), $(b,clock), $(b,data), $(b,unknown)) with its \
     clock domains and the witness that produced it — and exit without \
     evaluating."
  in
  Arg.(value & flag & info [ "classes" ] ~doc)

let windows =
  let doc =
    "Print the arrival-window listing — every net's conservative transition \
     windows at the reference corner with the witness that seeded them, and \
     the static proof summary (checkers proven, guaranteed violations, \
     asserted nets proven) — and exit without evaluating."
  in
  Arg.(value & flag & info [ "windows" ] ~doc)

let verify_term =
  Term.(
    const run $ file $ case_file $ jobs $ corners $ summary $ xref $ quiet $ paths
    $ corr_advice $ prob $ slack $ diagram $ vcd_out $ phys $ lint $ lint_only
    $ lint_fatal $ lint_json $ profile_out $ metrics_out $ explain $ classes $ windows)

let verify_cmd =
  let doc = "verify one design and print the error listing (the default command)" in
  Cmd.v (Cmd.info "verify" ~doc) verify_term

let serve_metrics =
  let doc =
    "On shutdown, write the final run metrics (scald-metrics/8, with the \
     $(b,incr_*)/$(b,svc_*)/$(b,mem_*) service counters) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let serve_slow_ms =
  let doc =
    "Mark requests whose wall-clock exceeds $(docv) milliseconds as slow: \
     flagged in the request log, counted in $(b,slow_requests)."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let serve_log =
  let doc =
    "Append one JSON line per request (trace id, op, duration, slow flag) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let serve_prom =
  let doc =
    "Maintain a Prometheus text-format exposition of the service metrics in \
     $(docv), atomically rewritten at most once per 250 ms, after every stats and \
     health request, and on exit."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

let serve_trace =
  let doc =
    "On shutdown, write a Chrome trace of the whole run to $(docv), one named \
     track per request."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let serve_no_telemetry =
  let doc =
    "Disable per-request telemetry (latency histograms, trace lanes, memory \
     snapshots).  $(b,stats)/$(b,health) then report zeros for those fields; \
     $(b,--trace), $(b,--log), $(b,--slow-ms) and $(b,--prom) need it."
  in
  Arg.(value & flag & info [ "no-telemetry" ] ~doc)

let serve_run metrics slow_ms log prom trace no_telemetry =
  let telemetry = not no_telemetry in
  match Scald_incr.Serve.telemetry_conflict ~telemetry ?slow_ms ?log ?prom ?trace () with
  | Some msg -> `Error (true, msg)
  | None ->
    `Ok (Scald_incr.Serve.run ?metrics ?slow_ms ?log ?prom ?trace ~telemetry stdin stdout)

let serve_cmd =
  let doc = "run the persistent incremental verification service" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line on standard input and writes one JSON \
         response per line on standard output (doc/SERVICE.md).  Requests are \
         dispatched on their \"op\" field: $(b,load) a design into a \
         content-addressed session, stage $(b,delta) edits against it, \
         $(b,verify) by re-evaluating only the dirty cone of the staged edits, \
         query $(b,stats) or $(b,health) (per-kind latency quantiles, cache \
         hit rate, memory accounting), and $(b,shutdown).";
      `S Manpage.s_examples;
      `P
        "printf '%s\\n%s\\n' \
         '{\"op\":\"load\",\"file\":\"examples/register_file.sdl\"}' \
         '{\"op\":\"shutdown\"}' | $(tname)";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      ret
        (const serve_run $ serve_metrics $ serve_slow_ms $ serve_log $ serve_prom
        $ serve_trace $ serve_no_telemetry))

let cmd =
  let doc = "verify the timing constraints of a synchronous digital design" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reproduction of the SCALD Timing Verifier (T. M. McWilliams, \
         \"Verification of Timing Constraints on Large Digital Systems\", 1980): \
         a seven-value symbolic timing simulation of one clock period that checks \
         set-up, hold, minimum-pulse-width and clock-gating constraints against \
         min/max component delays, interconnect delays and clock skew.";
      `P
        "With no command, behaves as $(tname) $(b,verify).  The $(b,serve) \
         command instead starts the persistent incremental verification \
         service (doc/SERVICE.md).";
      `S Manpage.s_examples;
      `P "$(tname) examples/register_file.sdl --summary";
    ]
  in
  Cmd.group ~default:verify_term
    (Cmd.info "scald_tv" ~version:Scald_core.Version.version ~doc ~man)
    [ verify_cmd; serve_cmd ]

(* Backward compatibility: [scald_tv design.sdl ...] predates the
   command group and must keep working.  When the first argument names
   neither a command nor a group-level option, route it to [verify]. *)
let argv =
  let argv = Sys.argv in
  if
    Array.length argv > 1
    && not (List.mem argv.(1) [ "serve"; "verify"; "--help"; "--version" ])
  then Array.concat [ [| argv.(0); "verify" |]; Array.sub argv 1 (Array.length argv - 1) ]
  else argv

let () = exit (Cmd.eval' ~argv cmd)
