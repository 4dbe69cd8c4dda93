(* Domain-parallel case evaluation: the jobs:N report must be
   bit-identical to the sequential one, per-case convergence must not
   mask a diverging case, and the §2.7 warm-start must match a fresh
   evaluation of every case. *)

open Scald_core

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ---- Par primitives -------------------------------------------------------- *)

let test_shards () =
  let check_cover ~jobs n =
    let s = Par.shards ~jobs n in
    let covered = Array.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 s in
    Alcotest.(check int) (Printf.sprintf "covers %d items" n) n covered;
    Array.iteri
      (fun k (lo, hi) ->
        Alcotest.(check bool) "contiguous" true
          (lo <= hi && (k = 0 || snd s.(k - 1) = lo)))
      s;
    Array.iter
      (fun (lo, hi) ->
        Alcotest.(check bool) "balanced within one" true
          (hi - lo >= n / Array.length s && hi - lo <= (n / Array.length s) + 1))
      s
  in
  check_cover ~jobs:4 16;
  check_cover ~jobs:4 17;
  check_cover ~jobs:3 2;
  check_cover ~jobs:1 5;
  Alcotest.(check int) "never more shards than items" 2
    (Array.length (Par.shards ~jobs:8 2));
  Alcotest.(check int) "n = 0 still yields one block" 1
    (Array.length (Par.shards ~jobs:4 0))

let test_run () =
  Alcotest.(check (array int)) "results in index order" [| 0; 10; 20; 30 |]
    (Par.run ~jobs:4 (fun k -> k * 10));
  Alcotest.check_raises "worker exception propagates" (Failure "shard 2")
    (fun () -> ignore (Par.run ~jobs:3 (fun k ->
         if k = 2 then failwith "shard 2" else k)))

(* ---- evaluators share one netlist ----------------------------------------------- *)

let test_evaluators_independent () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:5.0 in
  let nl = Netlist.create tb ~default_wire_delay:Delay.zero in
  let i = Netlist.signal nl "IN .S0-8" in
  let q = Netlist.signal nl "Q" in
  ignore
    (Netlist.add nl (Primitive.Buf { invert = true; delay = Delay.of_ns 1.0 2.0 })
       ~inputs:[ Netlist.conn i ] ~output:(Some q));
  let idle = Eval.create nl in
  let before = Eval.value idle q in
  let ev = Eval.create nl in
  Eval.run ev;
  Alcotest.(check bool) "evaluating one leaves the other untouched" true
    (Waveform.equal before (Eval.value idle q));
  Alcotest.(check bool) "the evaluator that ran was evaluated" false
    (Waveform.equal before (Eval.value ev q))

(* ---- a circuit that diverges under one case only ------------------------------- *)

(* x = OR(AND(x delayed by 0.01 ns, CTL), PULSE): with CTL = 1 the V1
   region grows 10 ps per relaxation pass, so the evaluator exceeds its
   per-run budget long before the waveform fills the 50 ns period (a
   legitimate "diverges" verdict); with CTL = 0 the AND cuts the loop
   and it settles immediately. *)
let slow_loop () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:5.0 in
  let nl = Netlist.create tb ~default_wire_delay:Delay.zero in
  let p = Netlist.signal nl "P .P(0,0)0-2" in
  let ctl = Netlist.signal nl "CTL .S0-9" in
  let x = Netlist.signal nl "X" in
  let xd = Netlist.signal nl "XD" in
  let a = Netlist.signal nl "A" in
  ignore
    (Netlist.add nl (Primitive.Buf { invert = false; delay = Delay.of_ns 0.01 0.01 })
       ~inputs:[ Netlist.conn x ] ~output:(Some xd));
  ignore
    (Netlist.add nl
       (Primitive.Gate { fn = Primitive.And; n_inputs = 2; invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn xd; Netlist.conn ctl ]
       ~output:(Some a));
  ignore
    (Netlist.add nl
       (Primitive.Gate { fn = Primitive.Or; n_inputs = 2; invert = false; delay = Delay.zero })
       ~inputs:[ Netlist.conn a; Netlist.conn p ]
       ~output:(Some x));
  nl

(* The FIFO reference discipline as a schedule: under [Sched.flat] the
   evaluator dequeues in plain FIFO order.  The verifier reads only the
   schedule half of [~analysis]. *)
let verify_flat ?(cases = []) ?(jobs = 1) ?corners nl =
  Option.iter (Netlist.set_corners nl) corners;
  Verifier.verify ~cases ~jobs ~analysis:(Sched.flat nl, Flow.analyse nl) nl

let slow_loop_cases = Case_analysis.parse_exn "CTL .S0-9 = 1;\nCTL .S0-9 = 0;\n"

let test_divergence_not_masked () =
  (* case 1 diverges, case 2 converges: before cr_converged existed the
     report took the evaluator's flag after the LAST case and reported
     the whole run as converged. *)
  let r = Verifier.verify ~cases:slow_loop_cases (slow_loop ()) in
  (match r.Verifier.r_cases with
  | [ c1; c2 ] ->
    Alcotest.(check bool) "case 1 diverged" false c1.Verifier.cr_converged;
    Alcotest.(check bool) "case 2 converged" true c2.Verifier.cr_converged
  | _ -> Alcotest.fail "expected two case results");
  Alcotest.(check bool) "divergence not masked by the later case" false
    r.Verifier.r_converged;
  Alcotest.(check bool) "No_convergence violation reported" true
    (Verifier.violations_of_kind Check.No_convergence r <> [])

let test_divergence_shown_in_pp () =
  let r = Verifier.verify ~cases:slow_loop_cases (slow_loop ()) in
  let out = Format.asprintf "%a" Verifier.pp r in
  let count_marker s =
    (* parenthesized: the header/per-case flag, not the violation
       listing's "EVALUATION DID NOT CONVERGE" line *)
    let marker = "(DID NOT CONVERGE)" in
    let rec go i acc =
      if i + String.length marker > String.length s then acc
      else if String.sub s i (String.length marker) = marker then
        go (i + String.length marker) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  (* once on the header line, once on the case 1 line, not on case 2 *)
  Alcotest.(check int) "marked on header and diverging case only" 2 (count_marker out)

(* ---- sequential/parallel report equality ----------------------------------------- *)

let case_results_equal (a : Verifier.case_result) (b : Verifier.case_result) =
  a.Verifier.cr_case = b.Verifier.cr_case
  && a.Verifier.cr_violations = b.Verifier.cr_violations
  && a.Verifier.cr_events = b.Verifier.cr_events
  && a.Verifier.cr_evaluations = b.Verifier.cr_evaluations
  && a.Verifier.cr_converged = b.Verifier.cr_converged

let reports_equal (a : Verifier.report) (b : Verifier.report) =
  a.Verifier.r_events = b.Verifier.r_events
  && a.Verifier.r_evaluations = b.Verifier.r_evaluations
  && a.Verifier.r_violations = b.Verifier.r_violations
  && a.Verifier.r_converged = b.Verifier.r_converged
  && a.Verifier.r_unasserted = b.Verifier.r_unasserted
  && a.Verifier.r_obs = b.Verifier.r_obs
  && List.length a.Verifier.r_cases = List.length b.Verifier.r_cases
  && List.for_all2 case_results_equal a.Verifier.r_cases b.Verifier.r_cases

(* Every enqueue request either ran an evaluation or coalesced into one
   already pending, once the work list has drained; a diverged run drops
   what is left, so the law holds on converged reports only. *)
let counters_add_up (r : Verifier.report) =
  (not r.Verifier.r_converged)
  || r.Verifier.r_obs.Verifier.os_queued
     = r.Verifier.r_evaluations + r.Verifier.r_obs.Verifier.os_coalesced

let test_jobs_equal_on_diverging_circuit () =
  let r1 = Verifier.verify ~cases:slow_loop_cases (slow_loop ()) in
  List.iter
    (fun jobs ->
      let rn = Verifier.verify ~cases:slow_loop_cases ~jobs (slow_loop ()) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs:%d report equals jobs:1 (diverging case included)" jobs)
        true (reports_equal r1 rn))
    [ 2; 4 ]

let test_jobs_clamped_and_validated () =
  let r = Verifier.verify ~cases:slow_loop_cases ~jobs:16 (slow_loop ()) in
  Alcotest.(check int) "jobs clamped to the case count" 2 r.Verifier.r_jobs;
  let r0 = Verifier.verify ~cases:slow_loop_cases ~jobs:0 (slow_loop ()) in
  Alcotest.(check bool) "jobs:0 resolves to at least one domain" true
    (r0.Verifier.r_jobs >= 1 && reports_equal r r0);
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Verifier.verify: jobs must be >= 0") (fun () ->
      ignore (Verifier.verify ~jobs:(-1) (slow_loop ())))

let test_event_stream_replayed_in_case_order () =
  let stream jobs =
    let log = ref [] in
    let probe =
      {
        Verifier.pr_span = (fun _ f -> f ());
        pr_event = Some (fun ~inst_id ~net_id -> log := (inst_id, net_id) :: !log);
      }
    in
    ignore (Verifier.verify ~probe ~cases:slow_loop_cases ~jobs (slow_loop ()));
    List.rev !log
  in
  let seq = stream 1 in
  Alcotest.(check bool) "events were recorded" true (seq <> []);
  Alcotest.(check bool) "jobs:2 replays the sequential event stream" true
    (stream 2 = seq)

(* ---- random circuits ---------------------------------------------------------------- *)

type recipe = {
  rc_seed : int;
  rc_n_inputs : int;
  rc_gates : (int * int * int) list;
}

let print_recipe r =
  Printf.sprintf "seed %d, %d inputs, %d gates" r.rc_seed r.rc_n_inputs
    (List.length r.rc_gates)

let gen_recipe =
  let open QCheck.Gen in
  let gen =
    let* rc_seed = int_range 0 10_000 in
    let* rc_n_inputs = int_range 2 4 in
    let* n_gates = int_range 2 14 in
    let* raw =
      list_repeat n_gates (triple (int_range 0 4) (int_range 0 1000) (int_range 0 1000))
    in
    return { rc_seed; rc_n_inputs; rc_gates = raw }
  in
  QCheck.make ~print:print_recipe gen

let input_name i = Printf.sprintf "IN%d .S0-6" i

let build_recipe r =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let inputs = List.init r.rc_n_inputs (fun i -> Netlist.signal nl (input_name i)) in
  let nodes = ref (Array.of_list inputs) in
  List.iteri
    (fun i (fn_sel, a, b) ->
      let pool = !nodes in
      let pick x = pool.(x mod Array.length pool) in
      let fn =
        match fn_sel with
        | 0 -> Primitive.And
        | 1 -> Primitive.Or
        | 2 -> Primitive.Xor
        | _ -> Primitive.Chg
      in
      let out = Netlist.signal nl (Printf.sprintf "G%d" i) in
      ignore
        (Netlist.add nl
           (Primitive.Gate
              { fn; n_inputs = 2; invert = fn_sel = 4; delay = Delay.of_ns 1.0 3.0 })
           ~inputs:[ Netlist.conn (pick a); Netlist.conn (pick b) ]
           ~output:(Some out));
      nodes := Array.append pool [| out |])
    r.rc_gates;
  nl

(* Complete case analysis over the first two inputs: four cases, enough
   to give every shard of a jobs:2 / jobs:4 run distinct work. *)
let recipe_cases r =
  Case_analysis.complete_exn
    (List.init (min 2 r.rc_n_inputs) input_name)

(* Generated 120-chip designs, with complete case analysis over their
   first two primary inputs. *)
let netgen_nl seed =
  (Netgen.to_netlist (Netgen.generate (Netgen.scaled ~seed ~chips:120 ())))
    .Scald_sdl.Expander.e_netlist

let netgen_inputs ~count nl =
  let inputs = ref [] in
  Netlist.iter_nets nl (fun n ->
      if List.length !inputs < count
         && String.length n.Netlist.n_name >= 3
         && String.sub n.Netlist.n_name 0 3 = "IN "
      then inputs := n.Netlist.n_name :: !inputs);
  List.rev !inputs

let netgen_cases nl = Case_analysis.complete_exn (netgen_inputs ~count:2 nl)

(* Random netgen design + random corner table + scheduler/sharding
   choice, with the same complete case analysis over two primary
   inputs. *)
type corner_recipe = {
  co_seed : int;
  co_chips : int;
  co_broken : int;
  co_spec : string;
  co_flat : bool;
  co_jobs : int;
}

let print_corner_recipe c =
  Printf.sprintf "seed %d, %d chips, %d broken, corners %s, %s, -j %d" c.co_seed
    c.co_chips c.co_broken c.co_spec
    (if c.co_flat then "flat" else "level")
    c.co_jobs

let gen_corner_recipe =
  let open QCheck.Gen in
  let gen =
    let* co_seed = int_range 1 500 in
    let* co_chips = int_range 5 40 in
    let* co_broken = int_range 0 2 in
    let* k = int_range 1 3 in
    let scale = map (fun s -> float_of_int s /. 100.) (int_range 50 200) in
    let* ref_scales = pair scale scale in
    let* lane_scales = list_repeat k (pair scale scale) in
    let spec =
      (ref_scales :: lane_scales)
      |> List.mapi (fun i (d, w) -> Printf.sprintf "c%d=%.2f/%.2f" i d w)
      |> String.concat ","
    in
    let* co_flat = bool in
    let* co_jobs = oneofl [ 1; 3 ] in
    return { co_seed; co_chips; co_broken; co_spec = spec; co_flat; co_jobs }
  in
  QCheck.make ~print:print_corner_recipe gen

(* The recipe's design with its corner table not yet installed, and its
   cases. *)
let corner_design c =
  let nl =
    (Netgen.to_netlist
       (Netgen.generate
          (Netgen.scaled ~seed:c.co_seed ~broken_registers:c.co_broken
             ~chips:c.co_chips ())))
      .Scald_sdl.Expander.e_netlist
  in
  (nl, netgen_cases nl)

(* A random gate network, or now and then a netgen design (registers,
   latches, muxes, checkers), each with its case list. *)
type design = Recipe of recipe | Netgen of int

let gen_design =
  let open QCheck.Gen in
  QCheck.make
    ~print:(function
      | Recipe r -> print_recipe r
      | Netgen seed -> Printf.sprintf "netgen seed %d" seed)
    (frequency
       [
         (4, map (fun r -> Recipe r) (QCheck.gen gen_recipe));
         (1, map (fun seed -> Netgen seed) (int_range 1 1000));
       ])

let design_cases = function
  | Recipe r -> recipe_cases r
  | Netgen seed -> netgen_cases (netgen_nl seed)

let build_design = function Recipe r -> build_recipe r | Netgen seed -> netgen_nl seed

let waveforms ?lane nl ev =
  Array.to_list (Netlist.nets nl)
  |> List.map (fun (n : Netlist.net) -> Eval.value ?lane ev n.Netlist.n_id)

(* Inputs of the warm-start oracle: a random gate network, or a netgen
   design at a random corner table. *)
type warm_design = Gates of recipe | Corners of corner_recipe

(* Its case list: the design's complete case analysis, or cases that
   each map their own subset of the design's first four inputs (as
   (input, bit) pairs), one of them none, so that nets leave and
   re-enter the mapping between cases. *)
type warm_cases = Complete | Subsets of (int * int) list list

let print_warm (d, cases) =
  let design = match d with Gates r -> print_recipe r | Corners c -> print_corner_recipe c in
  match cases with
  | Complete -> design ^ ", complete cases"
  | Subsets cs ->
    design ^ ", cases "
    ^ String.concat "; "
        (List.map
           (fun c -> String.concat "," (List.map (fun (i, b) -> Printf.sprintf "%d=%d" i b) c))
           cs)

let gen_warm =
  let open QCheck.Gen in
  let gen_case =
    let* picks = list_repeat 4 (int_range 0 2) in
    return (List.concat (List.mapi (fun i b -> if b = 2 then [] else [ (i, b) ]) picks))
  in
  let gen_subsets =
    let* cases = list_size (int_range 1 5) gen_case in
    let* at = int_range 0 (List.length cases) in
    return
      (Subsets
         (List.filteri (fun i _ -> i < at) cases @ ([] :: List.filteri (fun i _ -> i >= at) cases)))
  in
  QCheck.make ~print:print_warm
    (pair
       (frequency
          [
            (3, map (fun r -> Gates r) (QCheck.gen gen_recipe));
            (1, map (fun c -> Corners c) (QCheck.gen gen_corner_recipe));
          ])
       (frequency [ (1, return Complete); (1, gen_subsets) ]))

(* A fresh netlist of the input's design, its cases, and an evaluator
   created the way the input asks. *)
let warm_evaluator (d, mode) =
  let nl, complete, inputs, flat =
    match d with
    | Gates r ->
      (build_recipe r, recipe_cases r, List.init (min 4 r.rc_n_inputs) input_name, false)
    | Corners c ->
      let nl, cases = corner_design c in
      Netlist.set_corners nl (Corner.of_spec c.co_spec);
      (nl, cases, netgen_inputs ~count:4 nl, c.co_flat)
  in
  let cases =
    match mode with
    | Complete -> complete
    | Subsets cs ->
      List.map
        (List.filter_map (fun (i, b) ->
             List.nth_opt inputs i
             |> Option.map (fun name -> (name, if b = 1 then Tvalue.V1 else Tvalue.V0))))
        cs
  in
  (nl, cases, Eval.create ?sched:(if flat then Some (Sched.flat nl) else None) nl)

(* ---- a report's waveforms belong to it ------------------------------------------ *)

(* The CI smoke step's design: netgen seed 4, 300 chips, two broken
   registers, and its 16 cases over the first four scalar primary
   inputs asserted stable ("IN k .S..." with the smallest k). *)
let ci_design () =
  let nl =
    (Netgen.to_netlist
       (Netgen.generate (Netgen.scaled ~seed:4 ~broken_registers:2 ~chips:300 ())))
      .Scald_sdl.Expander.e_netlist
  in
  let inputs = ref [] in
  Netlist.iter_nets nl (fun n ->
      match String.split_on_char ' ' n.Netlist.n_name with
      | [ "IN"; k; a ] when String.starts_with ~prefix:".S" a -> (
        match int_of_string_opt k with
        | Some k -> inputs := (k, n.Netlist.n_name) :: !inputs
        | None -> ())
      | _ -> ());
  let first4 =
    List.filteri (fun i _ -> i < 4) (List.sort compare !inputs) |> List.map snd
  in
  let cases =
    List.init 16 (fun k ->
        List.mapi
          (fun b name -> (name, if (k lsr b) land 1 = 1 then Tvalue.V1 else Tvalue.V0))
          first4)
  in
  (nl, cases)

(* The causal traces print each signal's final value: at every job count
   it is the value the last case left, not whatever another shard's
   evaluation left behind. *)
let test_explain_same_at_every_jobs () =
  let nl, cases = ci_design () in
  Alcotest.(check int) "sixteen cases over four inputs" 16 (List.length cases);
  List.iter
    (fun spec ->
      let explain jobs =
        let obs = Scald_obs.Obs.create ~trace_buffer:4096 () in
        let r =
          Verifier.verify ~probe:(Scald_obs.Obs.probe obs) ~cases ~jobs
            ~corners:(Corner.of_spec spec) nl
        in
        Alcotest.(check bool) (spec ^ ": violations to explain") true
          (r.Verifier.r_violations <> []);
        Scald_obs.Obs.explain_all obs r.Verifier.r_eval r.Verifier.r_violations
      in
      let j1 = explain 1 in
      Alcotest.(check string) (spec ^ ": -j 3 explains as -j 1") j1 (explain 3))
    [ "typ"; "typ,slow,fast" ]

let load_s1_subset () =
  let src = In_channel.with_open_bin "../examples/s1_subset.sdl" In_channel.input_all in
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error m -> Alcotest.fail m

(* A second verification of the same netlist leaves the first report's
   listing and waveforms, on every lane, as they were. *)
let test_report_owns_waveforms () =
  let nl = load_s1_subset () in
  let corners = Corner.of_spec "typ,slow" in
  let verify v =
    Verifier.verify ~corners
      ~cases:(Case_analysis.parse_exn (Printf.sprintf "BYPASS .S0-8 = %d;\n" v))
      nl
  in
  let snapshot (r : Verifier.report) =
    let ev = r.Verifier.r_eval in
    ( Format.asprintf "%a" Report.pp_summary ev,
      List.init (Eval.n_corners ev) (fun lane -> waveforms ~lane nl ev) )
  in
  let first = verify 0 in
  let summary, lanes = snapshot first in
  Alcotest.(check int) "two lanes" 2 (List.length lanes);
  let second = verify 1 in
  Alcotest.(check bool) "the second case moves some waveform" true
    (fst (snapshot second) <> summary);
  let summary', lanes' = snapshot first in
  Alcotest.(check string) "first summary unchanged" summary summary';
  List.iteri
    (fun lane (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "first report's lane %d unchanged" lane)
        true (List.for_all2 Waveform.equal a b))
    (List.combine lanes lanes')

let properties =
  [
    prop "warm-start equals a fresh evaluation of every case" gen_warm (fun input ->
        let warm_nl, cases, warm = warm_evaluator input in
        List.for_all
          (fun case ->
            Eval.run ~case:(Case_analysis.resolve warm_nl case) warm;
            let fresh_nl, _, fresh = warm_evaluator input in
            Eval.run ~case:(Case_analysis.resolve fresh_nl case) fresh;
            List.for_all
              (fun lane ->
                List.for_all2 Waveform.equal (waveforms ~lane warm_nl warm)
                  (waveforms ~lane fresh_nl fresh)
                && Eval.check ~lane warm = Eval.check ~lane fresh)
              (List.init (Eval.n_corners warm) Fun.id))
          cases);
    prop "verify ~jobs:N equals ~jobs:1 on random netlists" gen_design (fun d ->
        let cases = design_cases d in
        let r1 = Verifier.verify ~cases (build_design d) in
        counters_add_up r1
        && List.for_all
             (fun jobs ->
               let rn = Verifier.verify ~cases ~jobs (build_design d) in
               reports_equal r1 rn && counters_add_up rn)
             [ 2; 4 ]);
  ]

let suite =
  [
    Alcotest.test_case "shards" `Quick test_shards;
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "evaluators on one netlist are independent" `Quick
      test_evaluators_independent;
    Alcotest.test_case "divergence not masked" `Quick test_divergence_not_masked;
    Alcotest.test_case "divergence shown in pp" `Quick test_divergence_shown_in_pp;
    Alcotest.test_case "jobs equal on diverging circuit" `Quick
      test_jobs_equal_on_diverging_circuit;
    Alcotest.test_case "jobs clamped and validated" `Quick test_jobs_clamped_and_validated;
    Alcotest.test_case "event stream replayed in case order" `Quick
      test_event_stream_replayed_in_case_order;
    Alcotest.test_case "explain is the same at every jobs" `Quick
      test_explain_same_at_every_jobs;
    Alcotest.test_case "a report's waveforms belong to it" `Quick
      test_report_owns_waveforms;
  ]
  @ properties
