(* Levelized scheduler: the schedule must reflect the circuit's
   structure (levels, components, feedback regions), and — the contract
   that makes it safe to ship — the levelized evaluator must reach
   exactly the verdicts of the plain FIFO relaxation ([Sched.flat]) on
   every circuit, including ones that diverge. *)

open Scald_core

let prop = Test_par.prop

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- builders ---------------------------------------------------------------- *)

let fresh_netlist () =
  Netlist.create
    (Timebase.make ~period_ns:50.0 ~clock_unit_ns:5.0)
    ~default_wire_delay:Delay.zero

let buf = Primitive.Buf { invert = false; delay = Delay.of_ns 1.0 2.0 }

(* IN -> B0 -> B1 -> ... -> B(n-1), one buffer per stage *)
let chain n =
  let nl = fresh_netlist () in
  let input = Netlist.signal nl "IN .S0-8" in
  let rec go i current insts =
    if i = n then (nl, List.rev insts)
    else begin
      let next = Netlist.signal nl (Printf.sprintf "N%d" i) in
      let inst =
        Netlist.add nl ~name:(Printf.sprintf "B%d" i) buf
          ~inputs:[ Netlist.conn current ] ~output:(Some next)
      in
      go (i + 1) next (inst :: insts)
    end
  in
  go 0 input []

let test_chain_levels () =
  let nl, insts = chain 5 in
  let s = Sched.compute nl in
  Alcotest.(check int) "acyclic: one component per instance" 5 (Sched.n_sccs s);
  Alcotest.(check int) "largest component is a single instance" 1
    (Sched.max_scc_size s);
  Alcotest.(check int) "no cyclic components" 0 (Sched.n_cyclic s);
  Alcotest.(check int) "five levels" 5 (Sched.n_levels s);
  List.iteri
    (fun i (inst : Netlist.inst) ->
      Alcotest.(check int)
        (Printf.sprintf "stage %d sits at level %d" i i)
        i
        (Sched.level s inst.Netlist.i_id);
      Alcotest.(check int) "acyclic instances have no slot" (-1)
        (Sched.cyclic_slot s inst.Netlist.i_id))
    insts

let test_feedback_scc () =
  (* the slow_loop feedback region: XD -> AND -> OR -> X -> XD *)
  let nl = Test_par.slow_loop () in
  let s = Sched.compute nl in
  Alcotest.(check int) "one cyclic component" 1 (Sched.n_cyclic s);
  Alcotest.(check int) "all three loop instances in it" 3 (Sched.max_scc_size s);
  Alcotest.(check int) "its size by slot" 3 (Sched.cyclic_size s 0);
  let members = ref [] in
  Netlist.iter_insts nl (fun inst ->
      if Sched.cyclic_slot s inst.Netlist.i_id = 0 then
        members := inst.Netlist.i_name :: !members);
  Alcotest.(check int) "three members carry the slot" 3 (List.length !members);
  let region = Sched.cyclic_region s 0 nl in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "region names %s" name)
        true
        (contains ~sub:name region))
    !members;
  (* members share one component, hence one level *)
  let levels =
    List.sort_uniq compare
      (List.concat_map
         (fun name ->
           let l = ref [] in
           Netlist.iter_insts nl (fun inst ->
               if inst.Netlist.i_name = name then
                 l := Sched.level s inst.Netlist.i_id :: !l);
           !l)
         !members)
  in
  Alcotest.(check int) "members share one level" 1 (List.length levels)

let test_self_loop () =
  let nl = fresh_netlist () in
  let p = Netlist.signal nl "P .P(0,0)0-2" in
  let x = Netlist.signal nl "X" in
  ignore
    (Netlist.add nl ~name:"SELF"
       (Primitive.Gate
          { fn = Primitive.Or; n_inputs = 2; invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn x; Netlist.conn p ]
       ~output:(Some x));
  let s = Sched.compute nl in
  Alcotest.(check int) "self-loop is a cyclic component of size 1" 1
    (Sched.cyclic_size s 0);
  Alcotest.(check bool) "self-loop instance carries a slot" true
    (let slot = ref (-1) in
     Netlist.iter_insts nl (fun inst ->
         if inst.Netlist.i_name = "SELF" then
           slot := Sched.cyclic_slot s inst.Netlist.i_id);
     !slot = 0)

let test_flat () =
  let nl, _ = chain 4 in
  let s = Sched.flat nl in
  Alcotest.(check int) "one level" 1 (Sched.n_levels s);
  Alcotest.(check int) "one component" 1 (Sched.n_sccs s);
  Alcotest.(check int) "which is cyclic" 1 (Sched.n_cyclic s);
  Alcotest.(check int) "and holds every instance" 4 (Sched.cyclic_size s 0);
  Netlist.iter_insts nl (fun inst ->
      Alcotest.(check int) "every instance in slot 0" 0
        (Sched.cyclic_slot s inst.Netlist.i_id))

(* ---- level vs flat (FIFO) equivalence --------------------------------------------- *)

(* Cross-schedule equality is verdict-based: the violation listing
   (contents and order), per-case verdicts, convergence flags and the
   unasserted listing must match; counters and event totals legitimately
   differ — fewer evaluations is the point.  The one field that differs
   on purpose is the [No_convergence] detail: each names its own
   feedback region, and under the flat schedule that is the whole
   design. *)
let normalize (v : Check.t) =
  if v.Check.v_kind = Check.No_convergence then { v with Check.v_detail = "" }
  else v

let verdicts_equal (a : Verifier.report) (b : Verifier.report) =
  let vs r = List.map normalize r in
  let case_equal (x : Verifier.case_result) (y : Verifier.case_result) =
    x.Verifier.cr_case = y.Verifier.cr_case
    && vs x.Verifier.cr_violations = vs y.Verifier.cr_violations
    && x.Verifier.cr_converged = y.Verifier.cr_converged
  in
  vs a.Verifier.r_violations = vs b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_equal a.Verifier.r_cases b.Verifier.r_cases

let test_modes_agree_on_feedback () =
  Alcotest.(check bool) "verdicts agree on the feedback circuit" true
    (verdicts_equal
       (Test_par.verify_flat (Test_par.slow_loop ()))
       (Verifier.verify (Test_par.slow_loop ())))

let test_modes_agree_on_divergence () =
  (* the slow-relaxation regression: case 1 diverges under both
     schedules, and the level verdict names the feedback region *)
  let cases = Test_par.slow_loop_cases in
  let rf = Test_par.verify_flat ~cases (Test_par.slow_loop ())
  and rl = Verifier.verify ~cases (Test_par.slow_loop ()) in
  Alcotest.(check bool) "fifo diverges on case 1" false rf.Verifier.r_converged;
  Alcotest.(check bool) "level diverges on case 1" false rl.Verifier.r_converged;
  let flags r =
    List.map (fun (c : Verifier.case_result) -> c.Verifier.cr_converged)
      r.Verifier.r_cases
  in
  Alcotest.(check (list bool)) "same per-case convergence" (flags rf) (flags rl);
  (match Verifier.violations_of_kind Check.No_convergence rl with
  | v :: _ ->
    Alcotest.(check bool) "level verdict names the feedback region" true
      (contains ~sub:"feedback region" v.Check.v_detail)
  | [] -> Alcotest.fail "level run reported no No_convergence violation")

let test_waveforms_agree () =
  (* the converging case (CTL = 0 cuts the loop): both schedules must
     settle every net to the same waveform.  Diverged cases make no such
     promise — their truncated waveforms depend on the visit order. *)
  let case = Case_analysis.parse_exn "CTL .S0-9 = 0;\n" in
  let nl_f = Test_par.slow_loop () and nl_l = Test_par.slow_loop () in
  let ef = Eval.create ~sched:(Sched.flat nl_f) nl_f in
  let el = Eval.create nl_l in
  Eval.run ~case:(Case_analysis.resolve nl_f (List.hd case)) ef;
  Eval.run ~case:(Case_analysis.resolve nl_l (List.hd case)) el;
  Alcotest.(check bool) "fifo converged" true (Eval.converged ef);
  Alcotest.(check bool) "level converged" true (Eval.converged el);
  Netlist.iter_nets nl_f (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "same waveform on %s" n.Netlist.n_name)
        true
        (Waveform.equal (Eval.value ef n.Netlist.n_id) (Eval.value el n.Netlist.n_id)))

(* ---- counters ------------------------------------------------------------------ *)

let test_structural_counters () =
  let nl, _ = chain 4 in
  let r = Verifier.verify nl in
  Alcotest.(check int) "level mode surfaces the level count" 4
    r.Verifier.r_obs.Verifier.os_sched_levels;
  Alcotest.(check int) "and the component count" 4 r.Verifier.r_obs.Verifier.os_sccs;
  Alcotest.(check int) "largest component" 1 r.Verifier.r_obs.Verifier.os_max_scc_size;
  Alcotest.(check bool) "cache was exercised" true
    (r.Verifier.r_obs.Verifier.os_cache_misses > 0);
  let nl2, _ = chain 4 in
  let rf = Test_par.verify_flat nl2 in
  Alcotest.(check int) "the flat schedule has one level" 1
    rf.Verifier.r_obs.Verifier.os_sched_levels;
  Alcotest.(check int) "holding every instance in one component" 4
    rf.Verifier.r_obs.Verifier.os_max_scc_size

let test_cache_hits_during_relaxation () =
  (* inside the feedback region the loop signal changes every pass while
     CTL never does — re-evaluating the AND must hit the cache on the
     CTL connection instead of recomputing its waveform *)
  let nl = Test_par.slow_loop () in
  let case = Case_analysis.parse_exn "CTL .S0-9 = 0;\n" in
  let ev = Eval.create nl in
  Eval.run ~case:(Case_analysis.resolve nl (List.hd case)) ev;
  let c = Eval.counters ev in
  Alcotest.(check bool) "relaxation hits the input cache" true
    (c.Eval.c_cache_hits > 0)

(* ---- pinned evaluation counts ------------------------------------------------------ *)

(* The level schedule's work on two fixed workloads, pinned exactly: any
   change to how the evaluator schedules, prunes or caches its way to
   the fixpoint moves these numbers.  The flat (FIFO) schedule reaches
   the same verdicts with more evaluations — at least [flat_extra]
   percent more on a deep generated pipeline, the saving levelization
   exists for.  (On the shallow s1 subset the two orders nearly
   coincide.) *)
let s1_subset () =
  let src = In_channel.with_open_bin "../examples/s1_subset.sdl" In_channel.input_all in
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error m -> Alcotest.fail m

let s1_subset_cases () =
  Case_analysis.parse_exn
    (In_channel.with_open_bin "../examples/s1_subset.cases" In_channel.input_all)

let check_pinned ?corners name build cases ~events ~evaluations ~cache_hits
    ~cache_misses ~window_checks ~flat_extra =
  let rl = Verifier.verify ~cases ?corners (build ()) in
  let rf = Test_par.verify_flat ~cases ?corners (build ()) in
  let o = rl.Verifier.r_obs in
  Alcotest.(check int) (name ^ ": level events") events rl.Verifier.r_events;
  Alcotest.(check int) (name ^ ": level evaluations") evaluations
    rl.Verifier.r_evaluations;
  Alcotest.(check int) (name ^ ": cache hits") cache_hits o.Verifier.os_cache_hits;
  Alcotest.(check int) (name ^ ": cache misses") cache_misses
    o.Verifier.os_cache_misses;
  Alcotest.(check int) (name ^ ": window checks") window_checks
    o.Verifier.os_window_checks;
  Alcotest.(check bool) (name ^ ": queued = evaluations + coalesced") true
    (Test_par.counters_add_up rl);
  Alcotest.(check bool) (name ^ ": flat verdicts equal level") true
    (verdicts_equal rf rl);
  Alcotest.(check bool)
    (Printf.sprintf "%s: flat %d evaluations >= level %d + %d%%" name
       rf.Verifier.r_evaluations rl.Verifier.r_evaluations flat_extra)
    true
    (rf.Verifier.r_evaluations * 100 >= rl.Verifier.r_evaluations * (100 + flat_extra))

let test_pinned_counts () =
  check_pinned "s1_subset" s1_subset (s1_subset_cases ()) ~events:28 ~evaluations:36
    ~cache_hits:24 ~cache_misses:87 ~window_checks:12 ~flat_extra:0;
  let nl () = Test_par.netgen_nl 1 in
  check_pinned "netgen 120 chips" nl (Test_par.netgen_cases (nl ())) ~events:191
    ~evaluations:222 ~cache_hits:196 ~cache_misses:513 ~window_checks:136 ~flat_extra:30;
  check_pinned "netgen 120 chips, 3 corners"
    ~corners:(Corner.of_spec "typ,slow,fast")
    nl (Test_par.netgen_cases (nl ())) ~events:191 ~evaluations:225 ~cache_hits:613
    ~cache_misses:1544 ~window_checks:396 ~flat_extra:30

(* ---- properties ----------------------------------------------------------------- *)

let properties =
  [
    prop "level and fifo verdicts agree on random netlists" Test_par.gen_recipe
      (fun r ->
        let cases = Test_par.recipe_cases r in
        verdicts_equal
          (Test_par.verify_flat ~cases (Test_par.build_recipe r))
          (Verifier.verify ~cases (Test_par.build_recipe r)));
    prop "level and fifo waveforms agree on random netlists" Test_par.gen_recipe
      (fun r ->
        let nl_f = Test_par.build_recipe r and nl_l = Test_par.build_recipe r in
        let ef = Eval.create ~sched:(Sched.flat nl_f) nl_f in
        let el = Eval.create nl_l in
        Eval.run ef;
        Eval.run el;
        List.for_all2 Waveform.equal
          (Test_par.waveforms nl_f ef)
          (Test_par.waveforms nl_l el));
  ]

let suite =
  [
    Alcotest.test_case "chain levels" `Quick test_chain_levels;
    Alcotest.test_case "feedback scc" `Quick test_feedback_scc;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "flat schedule" `Quick test_flat;
    Alcotest.test_case "modes agree on feedback" `Quick test_modes_agree_on_feedback;
    Alcotest.test_case "modes agree on divergence" `Quick
      test_modes_agree_on_divergence;
    Alcotest.test_case "waveforms agree" `Quick test_waveforms_agree;
    Alcotest.test_case "structural counters" `Quick test_structural_counters;
    Alcotest.test_case "cache hits during relaxation" `Quick
      test_cache_hits_during_relaxation;
    Alcotest.test_case "pinned evaluation counts" `Quick test_pinned_counts;
  ]
  @ properties
