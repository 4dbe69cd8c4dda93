(* Benchmark harness: regenerates every table and figure of the thesis's
   evaluation (Tables 3-1, 3-2, 3-3; Figures 1-5, 2-6, 2-8/2-9, 3-10,
   3-11, 4-1/4-2) plus the comparisons against the two prior approaches
   (gate-level min/max logic simulation, §1.4.1; worst-case path
   searching, §1.4.2) and a scaling study.

   Run with no arguments for everything, with experiment ids (e.g.
   "table-3-1 fig-2-6") for a subset, or with --bechamel to add the
   Bechamel micro-benchmarks. *)

open Scald_core
module Circuits = Scald_cells.Circuits

let section title =
  Printf.printf "\n==================== %s ====================\n\n" title

let timed f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

(* With --metrics-dir DIR, experiments that verify a design also write
   their evaluator counters (plus any hand-timed phases) to
   DIR/BENCH_<id>.json in the scald-metrics/8 shape, so runs can be
   compared column-by-column across commits. *)
let metrics_dir : string option ref = ref None

let emit_bench_metrics id ?(phases = []) ?(extra = []) report =
  match !metrics_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
    Scald_obs.Counters.write_file
      (Scald_obs.Counters.of_report ~phases ~extra report)
      path;
    Printf.printf "\n  wrote counters to %s\n" path

(* ---- Table 3-1: execution statistics ----------------------------------------- *)

(* The paper's numbers are minutes on the S-1 Mark I (~ IBM 370/168);
   absolute times on this machine differ by the hardware ratio, but the
   structure — where the time goes, events processed, time per event
   proportional to events — is the reproducible part. *)
let table_3_1 () =
  section "TABLE 3-1: execution statistics, 6357-chip design";
  let design = Netgen.generate Netgen.default_config in
  let sdl = Netgen.to_sdl design in
  Printf.printf "synthetic design: %d chips, %d bytes of SCALD HDL\n\n"
    (Netgen.n_chips design) (String.length sdl);
  let ast, t_read = timed (fun () -> Scald_sdl.Parser.parse_exn sdl) in
  let e, _ = timed (fun () -> Scald_sdl.Expander.expand_exn ast) in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let xref, t_xref = timed (fun () -> Scald_sdl.Xref.build nl) in
  let report, t_verify = timed (fun () -> Verifier.verify nl) in
  let _, t_summary =
    timed (fun () ->
        let buf = Buffer.create 65536 in
        let ppf = Format.formatter_of_buffer buf in
        Report.pp_summary ppf report.Verifier.r_eval;
        Format.pp_print_flush ppf ())
  in
  let row activity paper_min measured_s =
    Printf.printf "  %-46s %10s %12.3f s\n" activity paper_min measured_s
  in
  Printf.printf "  %-46s %10s %12s\n" "ACTIVITY" "paper(min)" "measured";
  Printf.printf "  MACRO EXPANSION\n";
  row "reading input files and building data structures" "1.92" t_read;
  row "pass 1 of macro expansion" "8.42" e.Scald_sdl.Expander.e_pass1_s;
  row "pass 2 of macro expansion" "6.18" e.Scald_sdl.Expander.e_pass2_s;
  Printf.printf "  TIMING VERIFIER\n";
  row "generating cross reference listings" "0.72" t_xref;
  row "verifying circuit" "6.75" t_verify;
  row "generating timing summary listing" "0.22" t_summary;
  let prims = Netlist.n_insts nl in
  let events = report.Verifier.r_events in
  Printf.printf "\n  %-40s %10s %12s\n" "" "paper" "measured";
  Printf.printf "  %-40s %10d %12d\n" "primitives" 8282 prims;
  Printf.printf "  %-40s %10d %12d\n" "events processed" 20052 events;
  Printf.printf "  %-40s %10.2f %12.2f\n" "events per primitive" (20052. /. 8282.)
    (float_of_int events /. float_of_int prims);
  Printf.printf "  %-40s %10s %12.4f\n" "verify ms per primitive" "49"
    (1000. *. t_verify /. float_of_int prims);
  Printf.printf "  %-40s %10s %12.4f\n" "verify ms per event" "20"
    (1000. *. t_verify /. float_of_int events);
  Printf.printf "  %-40s %10s %12d\n" "cross-reference entries" "-" (List.length xref);
  Printf.printf "\n  violations in the clean design: %d (expected 0)\n"
    (List.length report.Verifier.r_violations);
  emit_bench_metrics "table-3-1"
    ~phases:
      [
        ("read", t_read);
        ("pass1", e.Scald_sdl.Expander.e_pass1_s);
        ("pass2", e.Scald_sdl.Expander.e_pass2_s);
        ("xref", t_xref);
        ("verify", t_verify);
        ("summary", t_summary);
      ]
    report

(* ---- Table 3-2: primitive definitions generated -------------------------------- *)

let table_3_2 () =
  section "TABLE 3-2: primitive definitions generated";
  let design = Netgen.generate Netgen.default_config in
  let e = Netgen.to_netlist design in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let census = Stats.primitive_census nl in
  Format.printf "%a@." Stats.pp_census census;
  let prims = Stats.total_primitives census in
  let chips = Netgen.n_chips design in
  Printf.printf "\n  %-40s %10s %12s\n" "" "paper" "measured";
  Printf.printf "  %-40s %10d %12d\n" "primitive types" 22 (List.length census);
  Printf.printf "  %-40s %10d %12d\n" "total primitives" 8282 prims;
  Printf.printf "  %-40s %10d %12d\n" "chips" 6357 chips;
  Printf.printf "  %-40s %10.1f %12.2f\n" "primitives per chip" 1.3
    (float_of_int prims /. float_of_int chips);
  Printf.printf "  %-40s %10.1f %12.2f\n" "mean primitive width (bits)" 6.5
    (float_of_int (Stats.unvectored_count nl) /. float_of_int prims);
  Printf.printf "  %-40s %10d %12d\n" "primitives without vector symmetry" 53833
    (Stats.unvectored_count nl)

(* ---- Table 3-3: storage --------------------------------------------------------- *)

let table_3_3 () =
  section "TABLE 3-3: storage required for the data structures";
  let design = Netgen.generate Netgen.default_config in
  let e = Netgen.to_netlist design in
  let nl = e.Scald_sdl.Expander.e_netlist in
  (* Evaluate first: value-record counts come from real waveforms. *)
  let ev = (Verifier.verify nl).Verifier.r_eval in
  let st = Stats.storage_of ev in
  Format.printf "%a@." Stats.pp_storage st;
  Printf.printf "\n  %-40s %10s %12s\n" "" "paper" "measured";
  Printf.printf "  %-40s %10s %12.1f%%\n" "circuit description share" "37.8%"
    (100. *. float_of_int st.Stats.circuit_description /. float_of_int (Stats.total st));
  Printf.printf "  %-40s %10d %12d\n" "signal value lists" 33152 (Stats.n_value_lists nl);
  Printf.printf "  %-40s %10.2f %12.2f\n" "value records per list" 2.97
    (Stats.value_records_per_signal ev);
  Printf.printf "  %-40s %10d %12.1f\n" "bytes per signal value" 56
    (Stats.bytes_per_signal_value ev);
  Printf.printf "  %-40s %10d %12.1f\n" "bytes per primitive (circuit desc)" 260
    (Stats.bytes_per_primitive st ~n_primitives:(Netlist.n_insts nl))

(* ---- Figure 3-10: timing summary listing ------------------------------------------ *)

let fig_3_10 () =
  section "FIGURE 3-10: Timing Verifier output, register-file example";
  let circuit = Circuits.register_file_example () in
  let report = Verifier.verify circuit.Circuits.rf_netlist in
  Format.printf "%a@." Report.pp_summary report.Verifier.r_eval;
  let adr =
    Format.asprintf "%a" (fun ppf ev -> Report.pp_signal ppf ev "ADR<0:3>")
      report.Verifier.r_eval
  in
  let expected = "S 0.0  C 0.5  S 5.5  C 25.5  S 30.5" in
  Printf.printf
    "\n  paper: ADR<0:3> stable at 0, changing 0.5-5.5 ns, stable to 25.5,\n\
    \         changing 25.5-30.5 ns, stable for the rest of the cycle\n";
  Printf.printf "  measured line: %s\n" (String.trim adr);
  Printf.printf "  match: %b\n"
    (String.length adr >= String.length expected
    &&
    let rec contains i =
      i + String.length expected <= String.length adr
      && (String.sub adr i (String.length expected) = expected || contains (i + 1))
    in
    contains 0)

(* ---- Figure 3-11: error listing ----------------------------------------------------- *)

let fig_3_11 () =
  section "FIGURE 3-11: set-up and hold time errors";
  let circuit = Circuits.register_file_example () in
  let report = Verifier.verify circuit.Circuits.rf_netlist in
  let ev = report.Verifier.r_eval in
  List.iter
    (fun v -> Format.printf "%a@." (fun ppf -> Report.pp_violation_with_values ppf ev) v)
    report.Verifier.r_violations;
  Printf.printf
    "\n  paper: (1) set-up interval of 3.5 ns missed by the full 3.5 ns;\n\
    \         data stable at 11.5 ns, clock starting to rise at 11.5 ns.\n\
    \         (2) output register set-up of 2.5 ns missed by 1.0 ns; data\n\
    \         stable at 47.5 ns, clock starting to rise at 49.0 ns.\n";
  let setups = Verifier.violations_of_kind Check.Setup_violation report in
  Printf.printf "  measured: %d violations, %d set-up violations\n"
    (List.length report.Verifier.r_violations)
    (List.length setups);
  List.iter
    (fun (v : Check.t) ->
      Printf.printf "    set-up required %.1f ns, margin %s, at %.1f ns\n"
        (Timebase.ns_of_ps v.Check.v_required)
        (match v.Check.v_actual with
        | Some a -> Printf.sprintf "%.1f ns (missed by %.1f)" (Timebase.ns_of_ps a)
                      (Timebase.ns_of_ps (v.Check.v_required - a))
        | None -> "none")
        (match v.Check.v_at with Some t -> Timebase.ns_of_ps t | None -> nan))
    setups

(* ---- Figure 1-5: clock-gating hazard -------------------------------------------------- *)

let fig_1_5 () =
  section "FIGURE 1-5: hazard on a gated register clock";
  (* Symbolic detection by the Timing Verifier. *)
  let broken = Circuits.gated_clock_hazard ~enable_stable_at:2.5 () in
  let fixed = Circuits.gated_clock_hazard ~enable_stable_at:1.5 () in
  let hazards gc =
    Verifier.violations_of_kind Check.Hazard (Verifier.verify gc.Circuits.gc_netlist)
  in
  Printf.printf "  Timing Verifier (&A directive):\n";
  Printf.printf "    broken circuit (ENABLE settles at 25 ns): %d hazard(s) [paper: 1]\n"
    (List.length (hazards broken));
  Printf.printf "    fixed circuit  (ENABLE settles at 15 ns): %d hazard(s) [paper: 0]\n"
    (List.length (hazards fixed));
  (* Concrete demonstration with the min/max logic simulator: the 5 ns
     runt pulse of the figure actually appears on REG CLOCK. *)
  let c = Logic_sim.create () in
  let clock = Logic_sim.add_net c "CLOCK" in
  let enable = Logic_sim.add_net c "ENABLE" in
  let reg_clock = Logic_sim.add_net c "REG CLOCK" in
  Logic_sim.add_gate c ~name:"GATE" Logic_sim.And ~dmin:0 ~dmax:0
    ~inputs:[ clock; enable ] ~output:reg_clock;
  (* times in tenths of ns: CLOCK high 20-30 ns, ENABLE reaches 0 at 25 ns *)
  let r =
    Logic_sim.simulate c
      ~stimuli:
        [
          (clock, [ (0, Logic_sim.L0); (200, Logic_sim.L1); (300, Logic_sim.L0) ]);
          (enable, [ (0, Logic_sim.L1); (250, Logic_sim.L0) ]);
        ]
      ~horizon:500
  in
  let pulse = Logic_sim.pulses r.Logic_sim.traces.(reg_clock) ~at_least:Logic_sim.L1 in
  List.iter
    (fun (s, w) ->
      Printf.printf
        "  logic simulation: REG CLOCK pulses high at %.1f ns for %.1f ns [paper: 5 ns runt pulse at 25 ns]\n"
        (float_of_int s /. 10.) (float_of_int w /. 10.))
    pulse;
  let runts =
    Logic_sim.min_pulse_violations r.Logic_sim.traces.(reg_clock) ~level:Logic_sim.L1
      ~min_width:60 ~horizon:500
  in
  Printf.printf "  runt pulses below the 6 ns minimum width: %d\n" runts

(* ---- Figure 2-6: case analysis ----------------------------------------------------------- *)

let fig_2_6 () =
  section "FIGURE 2-6: case analysis removes the false 40 ns path";
  let bp = Circuits.bypass_example () in
  let nl = bp.Circuits.bp_netlist in
  let report0 = Verifier.verify nl in
  let d0 = Circuits.bypass_path_ns report0 bp in
  let cases =
    Case_analysis.parse_exn
      (Printf.sprintf "%s = 0;\n%s = 1;\n" bp.Circuits.bp_control bp.Circuits.bp_control)
  in
  let report1 = Verifier.verify ~cases nl in
  let d1 = Circuits.bypass_path_ns report1 bp in
  Printf.printf "  %-44s %8s %10s\n" "" "paper" "measured";
  Printf.printf "  %-44s %6.0f ns %7.1f ns\n" "INPUT->OUTPUT delay without case analysis"
    40. d0;
  Printf.printf "  %-44s %6.0f ns %7.1f ns\n" "INPUT->OUTPUT delay with case analysis" 30.
    d1;
  List.iteri
    (fun i (c : Verifier.case_result) ->
      Printf.printf "  case %d re-evaluation: %d events (incremental, affected cone only)\n"
        (i + 1) c.Verifier.cr_events)
    report1.Verifier.r_cases;
  emit_bench_metrics "fig-2-6" report1

(* ---- Figure 2-8 / 2-9: separate skew preserves pulse widths ------------------------------- *)

let fig_2_8 () =
  section "FIGURE 2-8/2-9: skew kept separate preserves pulse widths";
  let period = Timebase.ps_of_ns 50.0 in
  let pulse =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (Timebase.ps_of_ns 10., Timebase.ps_of_ns 20.) ]
  in
  (* A 10 ns pulse through a gate with 5.0/10.0 ns delay. *)
  let delayed =
    Waveform.delay ~dmin:(Timebase.ps_of_ns 5.) ~dmax:(Timebase.ps_of_ns 10.) pulse
  in
  let folded = Waveform.materialize delayed in
  let width wf =
    match Waveform.pulse_intervals Tvalue.V1 wf with
    | [ (_, w) ] -> Timebase.ns_of_ps w
    | _ -> nan
  in
  Printf.printf "  input pulse width:                        10.0 ns\n";
  Printf.printf "  skew kept separate (Figure 2-8):          %4.1f ns guaranteed width\n"
    (width delayed);
  Printf.printf "  skew folded into Rise/Fall (Figure 2-9):   %4.1f ns guaranteed width\n"
    (width folded);
  let check wf =
    Check.check_min_pulse_width ~inst:"MPW" ~signal:"Z" ~high:(Timebase.ps_of_ns 8.)
      ~low:0 wf
  in
  Printf.printf
    "  8 ns minimum-width check: %d violation(s) with separate skew [paper: 0],\n\
    \                            %d violation(s) after folding (pessimism avoided)\n"
    (List.length (check delayed))
    (List.length (check folded))

(* ---- Figures 4-1 / 4-2: the correlation problem --------------------------------------------- *)

let fig_4_1 () =
  section "FIGURE 4-1/4-2: clock-skew correlation and the CORR delay";
  let check corr =
    let fb = Circuits.correlation_example ~corr_delay_ns:corr in
    let report = Verifier.verify fb.Circuits.fb_netlist in
    List.length (Verifier.violations_of_kind Check.Hold_violation report)
  in
  Printf.printf
    "  feedback register, 4 ns of clock-buffer skew, min reg+mux delay > hold time:\n";
  Printf.printf
    "    without CORR delay: %d hold violation(s)  [paper: 1, a FALSE error]\n"
    (check 0.);
  Printf.printf
    "    with 4 ns CORR delay in the feedback path: %d  [paper: 0, error suppressed]\n"
    (check 4.)

(* ---- comparison: logic simulation ------------------------------------------------------------ *)

(* A random combinational cone built in both representations. *)
let build_cone ~seed ~n_inputs ~n_gates =
  let rng = Netgen.Rng.create seed in
  (* the shared shape: gate i has kind k and two source node indices *)
  let nodes = n_inputs + n_gates in
  let shape =
    Array.init n_gates (fun i ->
        let n = n_inputs + i in
        let a = Netgen.Rng.int rng n in
        let b = Netgen.Rng.int rng n in
        let kind = Netgen.Rng.int rng 3 in
        (kind, a, b))
  in
  ignore nodes;
  shape

let cone_logic_sim shape ~n_inputs =
  let c = Logic_sim.create () in
  let nets =
    Array.init (n_inputs + Array.length shape) (fun i ->
        Logic_sim.add_net c (Printf.sprintf "n%d" i))
  in
  Array.iteri
    (fun i (kind, a, b) ->
      let k =
        match kind with 0 -> Logic_sim.And | 1 -> Logic_sim.Or | _ -> Logic_sim.Xor
      in
      Logic_sim.add_gate c k ~dmin:10 ~dmax:20 ~inputs:[ nets.(a); nets.(b) ]
        ~output:nets.(n_inputs + i))
    shape;
  (c, nets)

let cone_scald shape ~n_inputs =
  let tb = Timebase.make ~period_ns:200.0 ~clock_unit_ns:10.0 in
  let nl = Netlist.create tb ~default_wire_delay:Delay.zero in
  let nets =
    Array.init
      (n_inputs + Array.length shape)
      (fun i ->
        if i < n_inputs then Netlist.signal nl (Printf.sprintf "n%d .S1-19" i)
        else Netlist.signal nl (Printf.sprintf "n%d" i))
  in
  Array.iteri
    (fun i (kind, a, b) ->
      let fn =
        match kind with 0 -> Primitive.And | 1 -> Primitive.Or | _ -> Primitive.Xor
      in
      ignore
        (Netlist.add nl
           (Primitive.Gate { fn; n_inputs = 2; invert = false; delay = Delay.of_ns 1.0 2.0 })
           ~inputs:[ Netlist.conn nets.(a); Netlist.conn nets.(b) ]
           ~output:(Some nets.(n_inputs + i))))
    shape;
  (nl, nets)

let compare_logicsim () =
  section "COMPARISON: symbolic verification vs exhaustive logic simulation";
  Printf.printf
    "  Complete timing verification by simulation must exercise every input\n\
    \  pattern with a distinct timing path (2^n vectors); the Timing Verifier\n\
    \  covers them in one symbolic cycle (§2.1: savings of exponential order).\n\n";
  Printf.printf "  %6s %10s %12s %12s %10s %12s %10s\n" "inputs" "vectors" "sim events"
    "sim time" "tv events" "tv time" "ratio";
  List.iter
    (fun n ->
      let n_gates = 4 * n in
      let shape = build_cone ~seed:(100 + n) ~n_inputs:n ~n_gates in
      let c, nets = cone_logic_sim shape ~n_inputs:n in
      let inputs = List.init n (fun i -> nets.(i)) in
      let outputs = [ nets.(n + n_gates - 1) ] in
      let ex, sim_t =
        timed (fun () -> Logic_sim.verify_exhaustive c ~inputs ~outputs ~settle:200)
      in
      let nl, _ = cone_scald shape ~n_inputs:n in
      let report, tv_t = timed (fun () -> Verifier.verify nl) in
      Printf.printf "  %6d %10d %12d %10.4f s %10d %10.4f s %9.1fx\n" n
        ex.Logic_sim.vectors_simulated ex.Logic_sim.total_events sim_t
        report.Verifier.r_events tv_t
        (sim_t /. max 1e-9 tv_t))
    [ 4; 6; 8; 10; 12; 14 ]

(* ---- comparison: path analysis ------------------------------------------------------------------ *)

let compare_path () =
  section "COMPARISON: Timing Verifier vs worst-case path searching";
  Printf.printf
    "  Path searching cannot use control-signal values (§1.4.2), so chains of\n\
    \  complementary-select multiplexers produce spurious long paths; the\n\
    \  Timing Verifier with case analysis reports the true delay.\n\n";
  Printf.printf "  %7s %12s %14s %14s %18s\n" "stages" "true delay" "path analysis"
    "tv (cases)" "spurious reports";
  List.iter
    (fun k ->
      let ch = Circuits.bypass_chain ~stages:k in
      let nl = ch.Circuits.ch_netlist in
      (* Path analysis from INPUT to the chain output only. *)
      let pa =
        Path_analysis.analyze ~sources:[ ch.Circuits.ch_input ]
          ~sinks:[ ch.Circuits.ch_output ] nl
      in
      let pa_max =
        match Path_analysis.worst pa with
        | Some p -> Timebase.ns_of_ps p.Path_analysis.p_max
        | None -> nan
      in
      let true_delay = float_of_int (30 * k) in
      (* The designer's limit: anything beyond the true worst case is
         spurious. *)
      let spurious =
        Path_analysis.violations pa ~max_delay:(Timebase.ps_of_ns (true_delay +. 0.5))
      in
      let cases =
        if k <= 4 then Case_analysis.complete_exn ch.Circuits.ch_controls
        else
          [
            List.map (fun c -> (c, Tvalue.V0)) ch.Circuits.ch_controls;
            List.map (fun c -> (c, Tvalue.V1)) ch.Circuits.ch_controls;
          ]
      in
      let report = Verifier.verify ~cases nl in
      let tv = Circuits.chain_path_ns report ch in
      Printf.printf "  %7d %9.0f ns %11.1f ns %11.1f ns %18d\n" k true_delay pa_max tv
        (List.length spurious))
    [ 1; 2; 3; 4; 6 ]

(* ---- extension: rise/fall delays (§4.2.2) ------------------------------------ *)

let ext_rise_fall () =
  section "EXTENSION (§4.2.2): different rising and falling delays";
  Printf.printf
    "  Two nMOS-style inverters (rise 1.0 ns, fall 3.0 ns) in series.  The
    \  envelope model (thesis baseline: use the longer delay) accumulates 2 ns
    \  of false skew per stage; tracking the delays per output edge keeps the
    \  clock pulse exact through any number of inverting levels.

";
  let build delay =
    let nl =
      Netlist.create
        (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
        ~default_wire_delay:Delay.zero
    in
    let ck = Netlist.signal nl "CK .P(0,0)2-3" in
    let n1 = Netlist.signal nl "N1" in
    let n2 = Netlist.signal nl "N2" in
    ignore
      (Netlist.add nl (Primitive.Buf { invert = true; delay })
         ~inputs:[ Netlist.conn ck ] ~output:(Some n1));
    ignore
      (Netlist.add nl (Primitive.Buf { invert = true; delay })
         ~inputs:[ Netlist.conn n1 ] ~output:(Some n2));
    let ev = Eval.create nl in
    Eval.run ev;
    let wf = Waveform.materialize (Eval.value ev n2) in
    match Waveform.pulse_intervals Tvalue.V1 wf with
    | (_, w) :: _ -> Timebase.ns_of_ps w
    | [] -> nan
  in
  let envelope = build (Delay.of_ns 1.0 3.0) in
  let exact = build (Delay.of_rise_fall_ns ~rise:(1.0, 1.0) ~fall:(3.0, 3.0)) in
  Printf.printf "  input clock pulse width:                    6.25 ns
";
  Printf.printf "  guaranteed width, envelope model:           %.2f ns (false shrink)
"
    envelope;
  Printf.printf "  guaranteed width, per-edge delays:          %.2f ns (exact)
" exact

(* ---- extension: probability-based analysis (§4.2.4) ------------------------------ *)

let ext_prob () =
  section "EXTENSION (§4.2.4): probability-based analysis vs min/max";
  Printf.printf
    "  A chain of n gates, each 1.0/4.0 ns.  The min/max analysis signs off at
    \  the sum of maxima; the DIGSIM-style probabilistic analysis at mean +
    \  3 sigma.  Uncorrelated components run much faster than min/max predicts
    \  (§1.4.1.1); fully correlated components (one production run, §4.2.4)
    \  converge back to the min/max bound -- both thesis claims.

";
  Printf.printf "  %6s %12s %16s %18s
" "n" "min/max" "3-sigma rho=0" "3-sigma rho=1";
  List.iter
    (fun n ->
      let nl =
        Netlist.create
          (Timebase.make ~period_ns:200.0 ~clock_unit_ns:10.0)
          ~default_wire_delay:Delay.zero
      in
      let input = Netlist.signal nl "IN .S0-20" in
      let rec go i current =
        if i = n then current
        else begin
          let next = Netlist.signal nl (Printf.sprintf "N%d" i) in
          ignore
            (Netlist.add nl
               (Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 4.0 })
               ~inputs:[ Netlist.conn current ] ~output:(Some next));
          go (i + 1) next
        end
      in
      let out = go 0 input in
      ignore
        (Netlist.add nl
           (Primitive.Setup_hold_check { setup = 0; hold = 0 })
           ~inputs:[ Netlist.conn out; Netlist.conn input ]
           ~output:None);
      let r0 = Prob_analysis.analyze nl in
      let r1 = Prob_analysis.analyze ~correlation:1.0 nl in
      Printf.printf "  %6d %9.1f ns %13.1f ns %15.1f ns
" n
        (Prob_analysis.minmax_cycle_ns r0)
        (Prob_analysis.predicted_cycle_ns r0 ~z:3.0)
        (Prob_analysis.predicted_cycle_ns r1 ~z:3.0))
    [ 2; 5; 10; 20; 40 ]

(* ---- extension: automatic CORR advisor (§4.2.3) ------------------------------------ *)

let ext_corr () =
  section "EXTENSION (§4.2.3): automatic CORR advisor";
  Printf.printf
    "  The thesis's correlation workaround puts the burden on the designer and
    \  notes an automatic method would be preferable.  The advisor finds every
    \  same-clock feedback path whose minimum delay loses the race against the
    \  clock uncertainty and computes the CORR delay that fixes it.

";
  let fb = Circuits.correlation_example ~corr_delay_ns:0. in
  let advice = Path_analysis.Corr.advise fb.Circuits.fb_netlist in
  List.iter (fun a -> Format.printf "  %a@." Path_analysis.Corr.pp_advice a) advice;
  (match advice with
  | [ a ] ->
    let ns = Timebase.ns_of_ps a.Path_analysis.Corr.a_required_delay in
    let fixed = Circuits.correlation_example ~corr_delay_ns:ns in
    let report = Verifier.verify fixed.Circuits.fb_netlist in
    Printf.printf
      "
  applying the recommended %.1f ns: %d hold violation(s) remain (false
      \  error suppressed without over-delaying, vs the hand-chosen 4.0 ns)
"
      ns
      (List.length (Verifier.violations_of_kind Check.Hold_violation report))
  | _ -> Printf.printf "  unexpected advice count
");
  let clean = Circuits.correlation_example ~corr_delay_ns:4.0 in
  Printf.printf "  on the already-fixed circuit: %d advice(s) [expected 0]
"
    (List.length (Path_analysis.Corr.advise clean.Circuits.fb_netlist))

(* ---- extension: refined interconnection rules (§3.3) ---------------------------- *)

let ext_wire_rule () =
  section "EXTENSION (§3.3): load-dependent interconnection rules";
  Printf.printf
    "  The S-1 used a flat 0.0/2.0 ns default wire delay; the thesis suggests\n\
    \  refined rules charging each load on a run.  On the synthetic design the\n\
    \  per-load rule lengthens heavy fan-out runs and surfaces marginal paths\n\
    \  that the flat rule hides.\n\n";
  let verify_with rule =
    let d = Netgen.generate (Netgen.scaled ~chips:1500 ()) in
    let e = Netgen.to_netlist d in
    let nl = e.Scald_sdl.Expander.e_netlist in
    ignore (Wire_rule.apply nl rule);
    let report = Verifier.verify nl in
    let ev = report.Verifier.r_eval in
    let worst =
      match Slack.worst ev with
      | Some w -> Timebase.ns_of_ps w.Slack.e_slack
      | None -> nan
    in
    (List.length report.Verifier.r_violations, worst)
  in
  let flat_v, flat_s = verify_with Wire_rule.s1_default in
  let loaded_v, loaded_s =
    verify_with
      (Wire_rule.loaded ~base:(Delay.of_ns 0.0 1.0) ~per_load:(Delay.of_ns 0.0 0.7))
  in
  Printf.printf "  %-44s %10s %14s\n" "rule" "violations" "worst slack";
  Printf.printf "  %-44s %10d %11.2f ns\n" "flat 0.0/2.0 ns (the S-1 rule)" flat_v flat_s;
  Printf.printf "  %-44s %10d %11.2f ns\n" "0.0/1.0 ns + 0.0/0.7 ns per load" loaded_v
    loaded_s

(* ---- extension: physical-design delays (§2.5.3, §1.3.2) --------------------------- *)

let ext_physical () =
  section "SUBSTRATE (§2.5.3): computed interconnection delays and reflections";
  Printf.printf
    "  Once the design is packaged, the SCALD Physical Design Subsystem\n\
    \  replaces the default wire rule with delays computed from the actual\n\
    \  runs, and flags reflection-prone runs feeding edge-sensitive inputs\n\
    \  (1.3.2) for the verifier's attention.\n\n";
  let run placement label =
    let d = Netgen.generate (Netgen.scaled ~chips:1500 ()) in
    let e = Netgen.to_netlist d in
    let nl = e.Scald_sdl.Expander.e_netlist in
    let config = { Physical.default_config with Physical.placement } in
    let pr = Physical.apply ~config nl in
    let after = Verifier.verify nl in
    Printf.printf
      "  %-24s %8.0f cm wire %6d t-line runs %4d flagged %6d violations\n" label
      pr.Physical.p_total_wire_cm
      (List.length
         (List.filter (fun r -> r.Physical.r_needs_line_analysis) pr.Physical.p_routes))
      (List.length pr.Physical.p_flagged)
      (List.length after.Verifier.r_violations)
  in
  Printf.printf "  (violations with the designer default rule: 0)\n";
  run Physical.By_id "naive placement:";
  run Physical.By_connectivity "connectivity placement:" 

(* ---- scaling --------------------------------------------------------------------------------------- *)

let scaling () =
  section "SCALING: verify time proportional to events; incremental cases";
  Printf.printf "  %8s %8s %8s %10s %10s %12s %14s\n" "chips" "prims" "events" "verify"
    "ev/prim" "case2 evals" "case2 fraction";
  List.iter
    (fun chips ->
      let d = Netgen.generate (Netgen.scaled ~chips ()) in
      let e = Netgen.to_netlist d in
      let nl = e.Scald_sdl.Expander.e_netlist in
      let ev = Eval.create nl in
      let _, t1 = timed (fun () -> Eval.run ev) in
      let base_events = Eval.events ev in
      let base_evals = Eval.evaluations ev in
      (* Re-evaluate with one primary input forced to 0: only its
         affected cone is recomputed (§2.7). *)
      let case =
        let found = ref [] in
        Netlist.iter_nets nl (fun n ->
            if !found = [] && String.length n.Netlist.n_name >= 3
               && String.sub n.Netlist.n_name 0 3 = "IN "
            then found := [ (n.Netlist.n_id, Tvalue.V0) ]);
        !found
      in
      let _, _ = timed (fun () -> Eval.run ~case ev) in
      let case_evals = Eval.evaluations ev - base_evals in
      Printf.printf "  %8d %8d %8d %8.3f s %10.2f %12d %13.1f%%\n" (Netgen.n_chips d)
        (Netlist.n_insts nl) base_events t1
        (float_of_int base_events /. float_of_int (Netlist.n_insts nl))
        case_evals
        (100. *. float_of_int case_evals /. float_of_int (max 1 base_evals)))
    [ 500; 1000; 2000; 4000; 8000 ]

(* ---- lint throughput --------------------------------------------------------------------------------- *)

let lint_throughput () =
  section "LINT THROUGHPUT: static audit cost vs design size";
  Printf.printf
    "  The constraint lint audits the expanded netlist without evaluating it,\n\
    \  so it must stay cheap relative to verification even on full-size\n\
    \  designs -- the audit is meant to run on every incomplete revision.\n\n";
  Printf.printf "  %8s %8s %8s %10s %12s %10s %12s\n" "chips" "prims" "findings"
    "lint" "nets/s" "verify" "lint/verify";
  List.iter
    (fun chips ->
      let d = Netgen.generate (Netgen.scaled ~chips ()) in
      let e = Netgen.to_netlist d in
      let nl = e.Scald_sdl.Expander.e_netlist in
      let report, lint_t = timed (fun () -> Scald_lint.Lint.audit nl) in
      let _, verify_t = timed (fun () -> Verifier.verify nl) in
      Printf.printf "  %8d %8d %8d %8.3f s %12.0f %8.3f s %11.1f%%\n"
        (Netgen.n_chips d) (Netlist.n_insts nl)
        (List.length report.Scald_lint.Lint_report.findings)
        lint_t
        (float_of_int report.Scald_lint.Lint_report.nets_audited
        /. max 1e-9 lint_t)
        verify_t
        (100. *. lint_t /. max 1e-9 verify_t))
    [ 500; 1000; 2000; 4000 ]

(* ---- instrumentation overhead ------------------------------------------------------------------------- *)

(* The observability contract: the always-on counters plus an installed
   probe (spans + causal ring) must not change the verifier's complexity
   class — the bench holds the full instrumented run to < 5% over the
   bare run on the netgen workload.  Both variants are repeated and the
   best time kept, which cancels most scheduler noise. *)
let obs_overhead () =
  section "INSTRUMENTATION OVERHEAD: counters + probe vs bare verify";
  let d = Netgen.generate (Netgen.scaled ~chips:2000 ()) in
  let e = Netgen.to_netlist d in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let best f =
    let rec go n acc =
      if n = 0 then acc
      else
        let _, t = timed f in
        go (n - 1) (Float.min acc t)
    in
    go 5 infinity
  in
  (* warm up allocators and caches on a run that is not measured *)
  ignore (Verifier.verify nl);
  let t_bare = best (fun () -> ignore (Verifier.verify nl)) in
  let obs = Scald_obs.Obs.create ~trace_buffer:4096 () in
  let t_obs =
    best (fun () -> ignore (Verifier.verify ~probe:(Scald_obs.Obs.probe obs) nl))
  in
  let overhead = 100. *. ((t_obs /. Float.max 1e-9 t_bare) -. 1.) in
  let report = Verifier.verify ~probe:(Scald_obs.Obs.probe obs) nl in
  Printf.printf "  %-44s %10.4f s\n" "bare verify (no probe, counters only)" t_bare;
  Printf.printf "  %-44s %10.4f s\n" "instrumented verify (spans + event ring)" t_obs;
  Printf.printf "  %-44s %+9.1f %%\n" "overhead" overhead;
  Printf.printf "  %-44s %10d\n" "events recorded in ring"
    (match Scald_obs.Obs.ring obs with
    | Some r -> Scald_obs.Causal.recorded r
    | None -> 0);
  let budget = 5.0 in
  Printf.printf "\n  overhead budget %.1f%%: %s\n" budget
    (if overhead < budget then "PASS" else "FAIL");
  emit_bench_metrics "obs-overhead"
    ~phases:[ ("verify_bare", t_bare); ("verify_instrumented", t_obs) ]
    report;
  overhead < budget

(* ---- parallel case evaluation ------------------------------------------------------------------------- *)

(* Wall-clock timing: [Sys.time] sums CPU time over every domain, which
   would report a parallel run as *slower* by construction. *)
let wall_timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Reports must agree field-for-field before any speedup is worth
   reporting — a fast wrong answer is not an optimisation. *)
let reports_equal (a : Verifier.report) (b : Verifier.report) =
  let case_equal (x : Verifier.case_result) (y : Verifier.case_result) =
    x.Verifier.cr_case = y.Verifier.cr_case
    && x.Verifier.cr_violations = y.Verifier.cr_violations
    && x.Verifier.cr_events = y.Verifier.cr_events
    && x.Verifier.cr_evaluations = y.Verifier.cr_evaluations
    && x.Verifier.cr_converged = y.Verifier.cr_converged
  in
  a.Verifier.r_events = b.Verifier.r_events
  && a.Verifier.r_evaluations = b.Verifier.r_evaluations
  && a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && a.Verifier.r_obs = b.Verifier.r_obs
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_equal a.Verifier.r_cases b.Verifier.r_cases

let par_speedup () =
  section "PARALLEL CASE EVALUATION: -j 4 vs sequential, 16-case workload";
  let d = Netgen.generate (Netgen.scaled ~chips:2000 ()) in
  let e = Netgen.to_netlist d in
  let nl = e.Scald_sdl.Expander.e_netlist in
  (* 16 cases: complete case analysis over four of the design's primary
     inputs (the fig-2-6 workload shape, at netgen scale). *)
  let inputs =
    let found = ref [] in
    Netlist.iter_nets nl (fun n ->
        if List.length !found < 4
           && String.length n.Netlist.n_name >= 3
           && String.sub n.Netlist.n_name 0 3 = "IN "
        then found := n.Netlist.n_name :: !found);
    List.rev !found
  in
  let cases = Case_analysis.complete_exn inputs in
  Printf.printf "  workload: %d chips, %d cases over %s\n"
    (Netgen.n_chips d) (List.length cases) (String.concat ", " inputs);
  let best jobs =
    let rec go n acc =
      if n = 0 then acc
      else
        let _, t = wall_timed (fun () -> ignore (Verifier.verify ~cases ~jobs nl)) in
        go (n - 1) (Float.min acc t)
    in
    go 3 infinity
  in
  (* reports compared once, un-timed; timing runs are then pure *)
  let r1 = Verifier.verify ~cases ~jobs:1 nl in
  let r4 = Verifier.verify ~cases ~jobs:4 nl in
  let equal = reports_equal r1 r4 in
  Printf.printf "  report identical to sequential at -j 4: %s\n"
    (if equal then "PASS" else "FAIL");
  let t1 = best 1 in
  let t4 = best 4 in
  let speedup = t1 /. Float.max 1e-9 t4 in
  Printf.printf "  %-44s %10.4f s\n" "sequential (-j 1), best of 3" t1;
  Printf.printf "  %-44s %10.4f s\n" "parallel (-j 4), best of 3" t4;
  Printf.printf "  %-44s %9.2fx\n" "speedup" speedup;
  emit_bench_metrics "par-speedup"
    ~phases:[ ("verify_j1", t1); ("verify_j4", t4) ]
    r4;
  (* The speedup gate only binds where 4 domains can actually run at
     once; the equality gate above binds everywhere. *)
  let cores = Par.available () in
  if cores >= 4 then begin
    Printf.printf "\n  speedup budget > 1.00x on %d cores: %s\n" cores
      (if speedup > 1.0 then "PASS" else "FAIL");
    equal && speedup > 1.0
  end
  else begin
    Printf.printf "\n  speedup gate skipped: only %d core(s) available\n" cores;
    equal
  end

(* Cross-configuration comparisons (packed/dedicated corners,
   incremental/cold) are verdict-based: the violations and
   their order, every per-case verdict and the convergence flags must
   agree, while counters legitimately differ. *)
let verdicts_equal (a : Verifier.report) (b : Verifier.report) =
  let case_equal (x : Verifier.case_result) (y : Verifier.case_result) =
    x.Verifier.cr_case = y.Verifier.cr_case
    && x.Verifier.cr_violations = y.Verifier.cr_violations
    && x.Verifier.cr_converged = y.Verifier.cr_converged
  in
  a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_equal a.Verifier.r_cases b.Verifier.r_cases

(* ---- incremental re-verify ---------------------------------------------------------------------------- *)

(* The incremental service (doc/SERVICE.md) answers a 1-net delay edit
   by re-evaluating and re-checking only what the edit's forward cone
   moves.  On the S-1-scale generated design the cone of a typical
   internal net is a few dozen nets out of thousands, so the re-verify
   must be at least 10x cheaper than the cold run in BOTH evaluations
   and wall-clock — while producing the identical error listing. *)
let incr_reverify () =
  section "INCREMENTAL RE-VERIFY: 1-net delay edit vs cold run, S-1-scale design";
  let module Session = Scald_incr.Session in
  let module Edit = Scald_incr.Edit in
  let fresh () =
    (Netgen.to_netlist (Netgen.generate Netgen.default_config))
      .Scald_sdl.Expander.e_netlist
  in
  let nl = fresh () in
  (* pick, deterministically, the sampled driven net with the smallest
     forward cone — the shape of a real designer edit: local rework,
     not a clock-tree change *)
  let cone_size nl seed =
    let inst_seen = Array.make (max 1 (Netlist.n_insts nl)) false in
    let net_seen = Array.make (max 1 (Netlist.n_nets nl)) false in
    let q = Queue.create () in
    let add id =
      if not inst_seen.(id) then begin
        inst_seen.(id) <- true;
        Queue.add id q
      end
    in
    net_seen.(seed) <- true;
    Netlist.iter_fanout (Netlist.net nl seed) add;
    while not (Queue.is_empty q) do
      match (Netlist.inst nl (Queue.take q)).Netlist.i_output with
      | None -> ()
      | Some o ->
        if not net_seen.(o) then begin
          net_seen.(o) <- true;
          Netlist.iter_fanout (Netlist.net nl o) add
        end
    done;
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 net_seen
  in
  let candidates =
    let all = ref [] in
    Netlist.iter_nets nl (fun n ->
        if n.Netlist.n_driver <> None && Netlist.fanout_count n > 0 then
          all := n.Netlist.n_id :: !all);
    let all = Array.of_list (List.rev !all) in
    let step = max 1 (Array.length all / 64) in
    List.init (Array.length all / step) (fun i -> all.(i * step))
  in
  let victim =
    List.fold_left
      (fun best id ->
        let sz = cone_size nl id in
        match best with
        | Some (_, best_sz) when best_sz <= sz -> best
        | _ -> Some (id, sz))
      None candidates
    |> Option.get |> fst
  in
  let signal = (Netlist.net nl victim).Netlist.n_name in
  let edit = Edit.Wire_delay { signal; delay = Some (Delay.of_ns 0.3 2.7) } in
  Printf.printf "  workload: %d primitives, %d nets; edit: %s\n"
    (Netlist.n_insts nl) (Netlist.n_nets nl)
    (Format.asprintf "%a" Edit.pp edit);
  (* cold baseline: a fresh build with the same edit applied up front *)
  let cold_nl = fresh () in
  ignore (Edit.apply cold_nl edit);
  let r_cold, t_cold = wall_timed (fun () -> Verifier.verify ~jobs:1 cold_nl) in
  (* incremental: load once (not timed — it IS a cold verify), then
     stage the edit and time only the re-verify *)
  let s = Session.load nl in
  Session.stage s edit;
  let (r_incr, st), t_incr = wall_timed (fun () -> Session.reverify s) in
  let ev_cold = r_cold.Verifier.r_evaluations in
  let ev_incr = st.Session.st_evaluations in
  let ev_x = float_of_int ev_cold /. float_of_int (max 1 ev_incr) in
  let wall_x = t_cold /. (t_incr +. epsilon_float) in
  Printf.printf "  %-44s %12d %10.4f s\n" "cold verify: evaluations, wall" ev_cold t_cold;
  Printf.printf "  %-44s %12d %10.4f s\n" "incremental re-verify: evaluations, wall"
    ev_incr t_incr;
  Printf.printf "  %-44s %12d of %d (%d reused)\n" "nets dirtied"
    st.Session.st_dirtied_nets (Netlist.n_nets nl) st.Session.st_reused_nets;
  Printf.printf "  %-44s %12d\n" "verdicts the check pass kept"
    st.Session.st_warm_hits;
  Printf.printf "  %-44s %11.1fx\n" "evaluation reduction" ev_x;
  Printf.printf "  %-44s %11.1fx\n" "wall-clock reduction" wall_x;
  let agree = verdicts_equal r_cold r_incr in
  let listing r =
    Format.asprintf "@.%a@." Report.pp_violations r.Verifier.r_violations
  in
  let bytes_equal = listing r_cold = listing r_incr in
  Printf.printf "  verdicts identical to the cold run: %s\n"
    (if agree then "PASS" else "FAIL");
  Printf.printf "  listing byte-identical to the cold run: %s\n"
    (if bytes_equal then "PASS" else "FAIL");
  emit_bench_metrics "incr-reverify"
    ~phases:[ ("verify_cold", t_cold); ("reverify_incr", t_incr) ]
    r_incr;
  let budget = 10.0 in
  Printf.printf "\n  evaluation speedup >= %.0fx: %s\n" budget
    (if ev_x >= budget then "PASS" else "FAIL");
  Printf.printf "  wall-clock speedup >= %.0fx: %s\n" budget
    (if wall_x >= budget then "PASS" else "FAIL");
  agree && bytes_equal && ev_x >= budget && wall_x >= budget

(* ---- multi-corner packed evaluation ------------------------------------------------------------------- *)

(* Corner-vectorized evaluation (doc/CORNERS.md) must beat re-running
   the verifier once per corner by a wide margin — the shared traversal,
   memo caches and lane canonicalization are the whole point.  Gates:
   the packed k=4 run stays under 2x ONE single-corner run (so the
   marginal corner costs well under a full run), the reference corner's
   verdicts are identical to a plain run, every other corner's verdicts
   match a dedicated single-corner run at that corner, and the packed
   report stays bit-identical across job counts.  Events and counters
   legitimately differ between packed and sequential (lane changes are
   events), so cross-shape comparisons are verdict-based. *)
let corner_speedup () =
  section "MULTI-CORNER: 4 corners packed in one traversal vs 4 sequential runs";
  let d = Netgen.generate (Netgen.scaled ~chips:2000 ()) in
  let e = Netgen.to_netlist d in
  let nl = e.Scald_sdl.Expander.e_netlist in
  (* A full case analysis (32 cases) over five mode-style inputs: §2.7
     case signals are select/mode bits that reconfigure a slice of the
     design per case, so pick the IN nets with the smallest transitive
     fanout cones.  Per-case lane work hits the generation-keyed memos
     (dirty cones only), and the one-time k-lane first pass amortizes
     across the sweep exactly as in a production case sweep. *)
  let cone_size start =
    let seen_i = Hashtbl.create 64 and seen_n = Hashtbl.create 64 in
    let rec visit_net id =
      if not (Hashtbl.mem seen_n id) then begin
        Hashtbl.add seen_n id ();
        Netlist.iter_fanout (Netlist.net nl id) visit_inst
      end
    and visit_inst iid =
      if not (Hashtbl.mem seen_i iid) then begin
        Hashtbl.add seen_i iid ();
        match (Netlist.inst nl iid).Netlist.i_output with
        | Some o -> visit_net o
        | None -> ()
      end
    in
    visit_net start;
    Hashtbl.length seen_i
  in
  let inputs =
    let found = ref [] in
    Netlist.iter_nets nl (fun n ->
        if
          String.length n.Netlist.n_name >= 3
          && String.sub n.Netlist.n_name 0 3 = "IN "
        then found := (cone_size n.Netlist.n_id, n.Netlist.n_name) :: !found);
    List.sort compare !found |> List.filteri (fun i _ -> i < 5)
    |> List.map snd
  in
  let cases = Case_analysis.complete_exn inputs in
  let corners = Corner.of_spec "typ,slow,fast,hot=1.4/1.2" in
  let single c = Array.sub corners c 1 in
  Printf.printf "  workload: %d chips, %d primitives, %d cases; corners %s\n"
    (Netgen.n_chips d) (Netlist.n_insts nl) (List.length cases)
    (Corner.table_to_string corners);
  (* Timing first, on a pristine heap: the correctness verifies below
     retain whole reports (each holding an evaluator), and a packed run
     timed behind megabytes of live state pays their GC bill.  Each
     series starts from a compacted heap so single, sequential and
     packed face the same allocator. *)
  let best f =
    Gc.compact ();
    let rec go n acc =
      if n = 0 then acc
      else
        let _, t = wall_timed f in
        go (n - 1) (Float.min acc t)
    in
    go 3 infinity
  in
  let t_single =
    best (fun () -> ignore (Verifier.verify ~cases ~jobs:1 ~corners:(single 0) nl))
  in
  let t_seq4 =
    best (fun () ->
        for c = 0 to 3 do
          ignore (Verifier.verify ~cases ~jobs:1 ~corners:(single c) nl)
        done)
  in
  let t_packed = best (fun () -> ignore (Verifier.verify ~cases ~jobs:1 ~corners nl)) in
  (* verdicts compared un-timed; every verify names its corner table
     explicitly because the table travels on the (shared) netlist *)
  let r_plain = Verifier.verify ~cases ~jobs:1 ~corners:(single 0) nl in
  let r_packed = Verifier.verify ~cases ~jobs:1 ~corners nl in
  let ref_ok = verdicts_equal r_plain r_packed in
  Printf.printf "  reference-corner verdicts identical to plain run: %s\n"
    (if ref_ok then "PASS" else "FAIL");
  let per_corner_ok =
    List.for_all
      (fun c ->
        let r_c = Verifier.verify ~cases ~jobs:1 ~corners:(single c) nl in
        let packed_c = List.nth r_packed.Verifier.r_corners c in
        packed_c.Verifier.co_violations = r_c.Verifier.r_violations)
      [ 1; 2; 3 ]
  in
  Printf.printf "  per-corner verdicts match dedicated runs: %s\n"
    (if per_corner_ok then "PASS" else "FAIL");
  let det =
    reports_equal r_packed (Verifier.verify ~cases ~jobs:4 ~corners nl)
  in
  Printf.printf "  packed report bit-identical at -j 4: %s\n"
    (if det then "PASS" else "FAIL");
  let o = r_packed.Verifier.r_obs in
  Printf.printf "  %-44s %10.4f s\n" "single corner (typ), best of 3" t_single;
  Printf.printf "  %-44s %10.4f s\n" "4 sequential single-corner runs" t_seq4;
  Printf.printf "  %-44s %10.4f s\n" "packed 4-corner run" t_packed;
  Printf.printf "  %-44s %9.2fx\n" "speedup vs sequential"
    (t_seq4 /. Float.max 1e-9 t_packed);
  Printf.printf "  %-44s %9.2fx\n" "cost vs one corner"
    (t_packed /. Float.max 1e-9 t_single);
  Printf.printf "  %-44s %12d\n" "lane outputs shared with the reference"
    o.Verifier.os_corner_lanes_shared;
  Printf.printf "  %-44s %12d\n" "lane evaluations skipped"
    o.Verifier.os_corner_evals_saved;
  emit_bench_metrics "corner-speedup"
    ~phases:
      [ ("verify_single", t_single); ("verify_seq4", t_seq4);
        ("verify_packed", t_packed) ]
    r_packed;
  let budget = 2.0 in
  Printf.printf "\n  packed cost budget < %.1fx one single-corner run: %s\n" budget
    (if t_packed < budget *. t_single then "PASS" else "FAIL");
  ref_ok && per_corner_ok && det && t_packed < budget *. t_single

(* ---- service telemetry overhead ----------------------------------------------------------------------- *)

(* Same contract as [obs_overhead], one layer up: the serve loop's
   per-request telemetry (latency histograms, trace lanes, span
   consumption, GC snapshots) must stay under 5% against an identical
   scripted session with telemetry off.  The script is the CI smoke's
   shape — one cold load of the s1 subset, then a re-verify churn —
   driven through [handle_line] so the measured path is exactly the
   daemon's.  The opt-in exporters (--prom, --log) are file-I/O sinks
   a deployment chooses deliberately; the gate covers the measurement
   machinery every serve run pays. *)
let telemetry_overhead () =
  section "SERVICE TELEMETRY OVERHEAD: default vs --no-telemetry serve session";
  (* Three wide-bus edits per delta dirty most of the pipeline, so
     each re-verify does an honest slab of evaluation work — the
     telemetry cost under test is per-request and fixed. *)
  let edit =
    {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"PC NEXT<0:15>","min_ns":0.5,"max_ns":48.0},{"edit":"wire_delay","signal":"IR<0:31>","min_ns":0.3,"max_ns":3.0},{"edit":"wire_delay","signal":"ALU B<0:31>","min_ns":0.3,"max_ns":3.0}]}|}
  in
  let revert =
    {|{"op":"delta","edits":[{"edit":"wire_delay","signal":"PC NEXT<0:15>","delay":null},{"edit":"wire_delay","signal":"IR<0:31>","delay":null},{"edit":"wire_delay","signal":"ALU B<0:31>","delay":null}]}|}
  in
  let verify = {|{"op":"verify"}|} in
  let churn_requests =
    List.concat (List.init 100 (fun _ -> [ edit; verify; revert; verify ]))
  in
  let feed t line =
    let resp, _ = Scald_incr.Serve.handle_line t line in
    if not (String.length resp > 11 && String.sub resp 0 11 = {|{"ok":true,|})
    then failwith ("telemetry-overhead: request failed: " ^ resp)
  in
  (* The cold load is identical under both variants and an order of
     magnitude noisier than the steady state (parse + expand GC
     churn), so it runs untimed; the timed region is the re-verify
     churn — the path a long-lived daemon actually spends its life
     on.  On/off batches alternate so clock drift and cache warmth hit
     both sides alike. *)
  let session ~telemetry =
    let t = Scald_incr.Serve.create ~telemetry () in
    feed t
      {|{"op":"load","file":"examples/s1_subset.sdl","cases_file":"examples/s1_subset.cases"}|};
    t
  in
  let churn t () = List.iter (feed t) churn_requests in
  let s_on = session ~telemetry:true and s_off = session ~telemetry:false in
  churn s_on ();
  churn s_off ();
  let t_on = ref infinity and t_off = ref infinity in
  for rep = 1 to 15 do
    (* alternate which variant goes first so neither always pays the
       just-interrupted caches *)
    let order =
      if rep mod 2 = 0 then [ (s_on, t_on); (s_off, t_off) ]
      else [ (s_off, t_off); (s_on, t_on) ]
    in
    List.iter
      (fun (s, best) ->
        let _, b = wall_timed (churn s) in
        best := Float.min !best b)
      order
  done;
  let t_on = !t_on and t_off = !t_off in
  let overhead = 100. *. ((t_on /. Float.max 1e-9 t_off) -. 1.) in
  Printf.printf "  %-44s %10.4f s\n" "re-verify churn (400 reqs), telemetry off"
    t_off;
  Printf.printf "  %-44s %10.4f s\n" "re-verify churn (400 reqs), telemetry on"
    t_on;
  Printf.printf "  %-44s %+9.1f %%\n" "overhead" overhead;
  feed s_on {|{"op":"stats"}|};
  (match Scald_incr.Store.latest (Scald_incr.Serve.store s_on) with
  | Some s ->
    emit_bench_metrics "telemetry-overhead"
      ~phases:[ ("serve_off", t_off); ("serve_on", t_on) ]
      (Scald_incr.Session.report s)
  | None -> ());
  let budget = 5.0 in
  Printf.printf "\n  overhead budget %.1f%%: %s\n" budget
    (if overhead < budget then "PASS" else "FAIL");
  overhead < budget

(* ---- capacity: arena netlist at 100k/1M primitives ---------------------------------- *)

(* Measures the representation itself — generate, expand into the
   arena netlist, relax to a fixpoint — and gates bytes-per-primitive
   and evals/sec against the pre-arena pointer-heavy layout (measured at
   the same smoke scale with the identical flow, commit 36945d4).  The
   memory figures are snapshotted after the eval phase and before the
   checker pass on purpose: checker bookkeeping is identical under both
   layouts and would only dilute the ratio under test.  Peak RSS is the
   honest number here — OCaml 5 never returns pool memory to the OS, so
   any load-phase transient is carried to the end of the process.

   Scale comes from CAPACITY_CHIPS (default 77_000 chips, ~100k
   primitives — the CI smoke).  The manual 1M gate documented in
   doc/CAPACITY.md is CAPACITY_CHIPS=790000: the gates below switch to
   report-only, and the run must load, converge and verify clean. *)
let capacity () =
  section "CAPACITY: arena netlist + contiguous waveforms at scale";
  let smoke_chips = 77_000 in
  let chips =
    try int_of_string (Sys.getenv "CAPACITY_CHIPS") with _ -> smoke_chips
  in
  (* pre-refactor baselines at the smoke scale (97527 primitives),
     measured with this same flow as peak-RSS growth over the process's
     starting high-water mark — so the harness binary's own footprint
     cancels out of both sides *)
  let pre_peak_bpp = 1737.8
  and pre_live_bpp = 562.7
  and pre_evals_per_sec = 260_567. in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let peak0_kb = Scald_obs.Mem.peak_rss_kb () in
  let m0 = live_words () in
  let design, t_gen =
    wall_timed (fun () -> Netgen.generate (Netgen.scaled ~chips ()))
  in
  let e, t_load = wall_timed (fun () -> Netgen.to_netlist design) in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let prims = Netlist.n_insts nl in
  let fp = float_of_int prims in
  let live_load = float_of_int ((live_words () - m0) * 8) /. fp in
  Printf.printf "  %-44s %10d\n" "chips" (Netgen.n_chips design);
  Printf.printf "  %-44s %10d\n" "primitives" prims;
  Printf.printf "  %-44s %10d\n" "nets" (Netlist.n_nets nl);
  Printf.printf "  %-44s %10.2f s\n" "generate" t_gen;
  Printf.printf "  %-44s %10.2f s\n" "load" t_load;
  Printf.printf "  %-44s %10.1f\n" "netlist live bytes/primitive" live_load;
  let ev = Eval.create nl in
  let (), t_eval = wall_timed (fun () -> Eval.run ev) in
  let evals_per_sec = float_of_int (Eval.evaluations ev) /. t_eval in
  let live_bpp = float_of_int ((live_words () - m0) * 8) /. fp in
  let peak_kb = Scald_obs.Mem.peak_rss_kb () in
  let peak_bpp = float_of_int (peak_kb - peak0_kb) *. 1024. /. fp in
  Printf.printf "  %-44s %10.2f s  (%.0f evals/s)\n" "eval to fixpoint" t_eval
    evals_per_sec;
  Printf.printf "  %-44s %10.1f\n" "live bytes/primitive (incl eval caches)"
    live_bpp;
  Printf.printf "  %-44s %10.1f  (%d kB)\n" "peak RSS bytes/primitive" peak_bpp
    peak_kb;
  let report, t_verify = wall_timed (fun () -> Verifier.verify nl) in
  Printf.printf "  %-44s %10.2f s\n" "full verify (checks included)" t_verify;
  Printf.printf "  %-44s %10d\n" "violations (expected 0)"
    (List.length report.Verifier.r_violations);
  emit_bench_metrics "capacity"
    ~phases:
      [ ("generate", t_gen); ("load", t_load); ("eval", t_eval);
        ("verify", t_verify) ]
    ~extra:
      [ ("mem_peak_rss_kb", peak_kb);
        ("cap_primitives", prims);
        ("cap_nets", Netlist.n_nets nl);
        ("cap_peak_bytes_per_primitive", int_of_float peak_bpp);
        ("cap_live_bytes_per_primitive", int_of_float live_bpp);
        ("cap_evals_per_sec", int_of_float evals_per_sec) ]
    report;
  let failed = ref false in
  let gate name ok detail =
    Printf.printf "  gate: %-39s %10s  %s\n" name
      (if ok then "PASS" else "FAIL")
      detail;
    if not ok then failed := true
  in
  print_newline ();
  gate "clean design converges, no violations"
    (report.Verifier.r_converged && report.Verifier.r_violations = [])
    "";
  if chips = smoke_chips then begin
    gate "peak RSS <= 50% of pre-arena layout"
      (peak_bpp <= 0.5 *. pre_peak_bpp)
      (Printf.sprintf "%.1f vs %.1f B/prim" peak_bpp (0.5 *. pre_peak_bpp));
    gate "live bytes/prim no worse than pre-arena"
      (live_bpp <= pre_live_bpp)
      (Printf.sprintf "%.1f vs %.1f B/prim" live_bpp pre_live_bpp);
    (* 0.75x absorbs shared-runner timing variance; the representation
       change itself measured ~1.3x faster *)
    gate "evals/sec no worse than pre-arena"
      (evals_per_sec >= 0.75 *. pre_evals_per_sec)
      (Printf.sprintf "%.0f vs floor %.0f" evals_per_sec
         (0.75 *. pre_evals_per_sec))
  end
  else
    Printf.printf
      "  (memory/throughput gates apply at the %d-chip smoke scale only)\n"
      smoke_chips;
  not !failed

(* ---- bechamel micro-benchmarks ------------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let rf = Circuits.register_file_example () in
  let bp = Circuits.bypass_example () in
  let fb = Circuits.correlation_example ~corr_delay_ns:4.0 in
  let small = Netgen.generate (Netgen.scaled ~chips:500 ()) in
  let small_sdl = Netgen.to_sdl small in
  let small_nl = (Netgen.to_netlist small).Scald_sdl.Expander.e_netlist in
  let small_ev = Eval.create small_nl in
  let shape = build_cone ~seed:42 ~n_inputs:8 ~n_gates:32 in
  let cone_c, cone_nets = cone_logic_sim shape ~n_inputs:8 in
  let cone_inputs = List.init 8 (fun i -> cone_nets.(i)) in
  let cases =
    Case_analysis.parse_exn
      (Printf.sprintf "%s = 0;\n%s = 1;\n" bp.Circuits.bp_control bp.Circuits.bp_control)
  in
  let period = Timebase.ps_of_ns 50.0 in
  let skewed =
    Waveform.with_skew ~early:(-1000) ~late:1000
      (Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
         [ (Timebase.ps_of_ns 10., Timebase.ps_of_ns 20.) ])
  in
  [
    Test.make ~name:"table-3-1/expand-500-chips"
      (Staged.stage (fun () -> Scald_sdl.Expander.load small_sdl));
    Test.make ~name:"table-3-1/verify-500-chips"
      (Staged.stage (fun () -> Verifier.verify small_nl));
    Test.make ~name:"table-3-2/primitive-census"
      (Staged.stage (fun () -> Stats.primitive_census small_nl));
    Test.make ~name:"table-3-3/storage-accounting"
      (Staged.stage (fun () -> Stats.storage_of small_ev));
    Test.make ~name:"fig-3-10/verify-register-file"
      (Staged.stage (fun () -> Verifier.verify rf.Circuits.rf_netlist));
    Test.make ~name:"fig-3-11/error-listing"
      (Staged.stage (fun () ->
           let report = Verifier.verify rf.Circuits.rf_netlist in
           Format.asprintf "%a" Report.pp_violations report.Verifier.r_violations));
    Test.make ~name:"fig-1-5/hazard-check"
      (Staged.stage (fun () ->
           Verifier.verify
             (Circuits.gated_clock_hazard ~enable_stable_at:2.5 ()).Circuits.gc_netlist));
    Test.make ~name:"fig-2-6/two-case-analysis"
      (Staged.stage (fun () -> Verifier.verify ~cases bp.Circuits.bp_netlist));
    Test.make ~name:"fig-2-8/materialize-skew"
      (Staged.stage (fun () -> Waveform.materialize skewed));
    Test.make ~name:"fig-4-1/correlation-circuit"
      (Staged.stage (fun () -> Verifier.verify fb.Circuits.fb_netlist));
    Test.make ~name:"compare/logic-sim-cone-8-inputs"
      (Staged.stage (fun () ->
           Logic_sim.verify_exhaustive cone_c ~inputs:cone_inputs
             ~outputs:[ cone_nets.(39) ] ~settle:200));
    Test.make ~name:"compare/path-analysis-chain-3"
      (Staged.stage (fun () ->
           let ch = Circuits.bypass_chain ~stages:3 in
           Path_analysis.analyze ch.Circuits.ch_netlist));
    Test.make ~name:"ext/rise-fall-delay"
      (Staged.stage
         (let pulse =
            Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
              [ (Timebase.ps_of_ns 10., Timebase.ps_of_ns 20.) ]
          in
          fun () ->
            Waveform.delay_rise_fall ~rise:(1_000, 1_000) ~fall:(3_000, 3_000) pulse));
    Test.make ~name:"ext/prob-analysis"
      (Staged.stage (fun () -> Prob_analysis.analyze fb.Circuits.fb_netlist));
    Test.make ~name:"ext/corr-advisor"
      (Staged.stage (fun () -> Path_analysis.Corr.advise fb.Circuits.fb_netlist));
  ]

let run_bechamel () =
  section "BECHAMEL MICRO-BENCHMARKS (one per table/figure)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"scald" ~fmt:"%s %s" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ t ] ->
        if t > 1e6 then Printf.printf "  %-44s %12.3f ms/run\n" name (t /. 1e6)
        else Printf.printf "  %-44s %12.1f ns/run\n" name t
      | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ---- driver ------------------------------------------------------------------------------------------------ *)

(* Each experiment either only reports ([None]) or asserts budgets and
   returns whether they all held ([Some ok]). *)
let ungated f () =
  f ();
  None

let gated f () = Some (f ())

let experiments =
  [
    ("table-3-1", ungated table_3_1);
    ("table-3-2", ungated table_3_2);
    ("table-3-3", ungated table_3_3);
    ("fig-3-10", ungated fig_3_10);
    ("fig-3-11", ungated fig_3_11);
    ("fig-1-5", ungated fig_1_5);
    ("fig-2-6", ungated fig_2_6);
    ("fig-2-8", ungated fig_2_8);
    ("fig-4-1", ungated fig_4_1);
    ("compare-logicsim", ungated compare_logicsim);
    ("compare-path", ungated compare_path);
    ("ext-rise-fall", ungated ext_rise_fall);
    ("ext-prob", ungated ext_prob);
    ("ext-corr", ungated ext_corr);
    ("ext-wire-rule", ungated ext_wire_rule);
    ("ext-physical", ungated ext_physical);
    ("scaling", ungated scaling);
    ("lint-throughput", ungated lint_throughput);
    ("obs-overhead", gated obs_overhead);
    ("par-speedup", gated par_speedup);
    ("corner-speedup", gated corner_speedup);
    ("incr-reverify", gated incr_reverify);
    ("telemetry-overhead", gated telemetry_overhead);
    ("capacity", gated capacity);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bechamel = List.mem "--bechamel" args in
  let rec strip_metrics_dir = function
    | "--metrics-dir" :: dir :: rest ->
      metrics_dir := Some dir;
      strip_metrics_dir rest
    | a :: rest -> a :: strip_metrics_dir rest
    | [] -> []
  in
  let args = strip_metrics_dir args in
  let ids = List.filter (fun a -> a <> "--bechamel") args in
  let to_run =
    match ids with
    | [] -> experiments
    | ids ->
      List.map
        (fun id ->
          match List.assoc_opt id experiments with
          | Some f -> (id, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" id
              (String.concat ", " (List.map fst experiments));
            exit 1)
        ids
  in
  (* Every requested experiment runs, even after a failing gate (or an
     exception, which counts as a failure); the exit status reflects
     them all. *)
  let outcomes =
    List.map
      (fun (id, f) ->
        match f () with
        | outcome -> (id, outcome)
        | exception e ->
          Printf.printf "  %s raised %s\n" id (Printexc.to_string e);
          (id, Some false))
      to_run
  in
  if bechamel then run_bechamel ();
  let gates = List.filter_map (fun (id, o) -> Option.map (fun ok -> (id, ok)) o) outcomes in
  if gates <> [] then begin
    section "GATES";
    List.iter
      (fun (id, ok) -> Printf.printf "  %-44s %s\n" id (if ok then "PASS" else "FAIL"))
      gates
  end;
  print_newline ();
  if List.exists (fun (_, ok) -> not ok) gates then exit 1
