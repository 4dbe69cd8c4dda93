open Scald_core

let test_deterministic () =
  let cfg = Netgen.scaled ~chips:300 () in
  let a = Netgen.generate cfg and b = Netgen.generate cfg in
  Alcotest.(check string) "same seed, same design" (Netgen.to_sdl a) (Netgen.to_sdl b);
  let c = Netgen.generate { cfg with Netgen.seed = 2 } in
  Alcotest.(check bool) "different seed, different design" true
    (Netgen.to_sdl a <> Netgen.to_sdl c)

let test_clean_by_construction () =
  let d = Netgen.generate (Netgen.scaled ~chips:400 ()) in
  let e = Netgen.to_netlist d in
  let report = Verifier.verify e.Scald_sdl.Expander.e_netlist in
  Alcotest.(check bool) "converged" true report.Verifier.r_converged;
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun (v : Check.t) -> Format.asprintf "%a" Check.pp v)
       report.Verifier.r_violations)

let test_broken_registers_inject_violations () =
  let d = Netgen.generate (Netgen.scaled ~chips:800 ~broken_registers:2 ()) in
  let e = Netgen.to_netlist d in
  let report = Verifier.verify e.Scald_sdl.Expander.e_netlist in
  let setups = Verifier.violations_of_kind Check.Setup_violation report in
  Alcotest.(check bool) "at least two set-up violations" true (List.length setups >= 2)

let test_shape_matches_thesis () =
  let d = Netgen.generate (Netgen.scaled ~chips:2000 ()) in
  let e = Netgen.to_netlist d in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let census = Stats.primitive_census nl in
  let prims = Stats.total_primitives census in
  let ratio = float_of_int prims /. float_of_int (Netgen.n_chips d) in
  Alcotest.(check bool)
    (Printf.sprintf "primitives per chip %.2f in [1.1, 1.6]" ratio)
    true
    (ratio >= 1.1 && ratio <= 1.6);
  Alcotest.(check bool)
    (Printf.sprintf "%d primitive types in [18, 26]" (List.length census))
    true
    (List.length census >= 18 && List.length census <= 26);
  let mean_width = float_of_int (Stats.unvectored_count nl) /. float_of_int prims in
  Alcotest.(check bool)
    (Printf.sprintf "mean width %.1f in [4, 10]" mean_width)
    true
    (mean_width >= 4. && mean_width <= 10.)

let test_chip_count_near_target () =
  List.iter
    (fun chips ->
      let d = Netgen.generate (Netgen.scaled ~chips ()) in
      let got = Netgen.n_chips d in
      Alcotest.(check bool)
        (Printf.sprintf "%d chips within 20%% of %d" got chips)
        true
        (abs (got - chips) < max 40 (chips / 5)))
    [ 200; 1000; 3000 ]

(* Randomized determinism sweep across the schedule matrix: within one
   schedule the full report — violations, evaluator counters, case results,
   everything pp prints — must be bit-identical no matter the domain
   count; between the level and the flat (FIFO) schedule the evaluator
   counters may legitimately differ, but violations and the convergence
   verdict may not. *)
let prop_report_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"report deterministic across sched x jobs"
       QCheck.(pair (int_range 1 1000) (int_range 60 200))
       (fun (seed, chips) ->
         let d = Netgen.generate { (Netgen.scaled ~chips ()) with Netgen.seed } in
         let e = Netgen.to_netlist d in
         let nl = e.Scald_sdl.Expander.e_netlist in
         let render verify = Format.asprintf "%a" Verifier.pp (verify nl) in
         let violations r =
           List.map (fun (v : Check.t) -> Format.asprintf "%a" Check.pp v)
             r.Verifier.r_violations
         in
         let fifo1 = render (Test_par.verify_flat ~jobs:1) in
         let fifo3 = render (Test_par.verify_flat ~jobs:3) in
         let level1 = render (Verifier.verify ~jobs:1) in
         let level3 = render (Verifier.verify ~jobs:3) in
         let rf = Test_par.verify_flat nl and rl = Verifier.verify nl in
         String.equal fifo1 fifo3 && String.equal level1 level3
         && violations rf = violations rl
         && rf.Verifier.r_converged = rl.Verifier.r_converged))

let test_events_scale_linearly () =
  let events chips =
    let d = Netgen.generate (Netgen.scaled ~chips ()) in
    let e = Netgen.to_netlist d in
    let ev = Eval.create e.Scald_sdl.Expander.e_netlist in
    Eval.run ev;
    Eval.events ev
  in
  let e1 = events 500 and e2 = events 2000 in
  let ratio = float_of_int e2 /. float_of_int e1 in
  Alcotest.(check bool)
    (Printf.sprintf "4x design -> %.1fx events (linear-ish)" ratio)
    true
    (ratio > 2.5 && ratio < 6.)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "clean by construction" `Quick test_clean_by_construction;
    Alcotest.test_case "broken registers inject violations" `Quick
      test_broken_registers_inject_violations;
    Alcotest.test_case "shape matches thesis" `Quick test_shape_matches_thesis;
    Alcotest.test_case "chip count near target" `Quick test_chip_count_near_target;
    prop_report_deterministic;
    Alcotest.test_case "events scale linearly" `Quick test_events_scale_linearly;
  ]
