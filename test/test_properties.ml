(* Cross-module property tests: invariants of the evaluator and the
   waveform algebra under randomly generated circuits and signals. *)

open Scald_core

let period = Timebase.ps_of_ns 50.0

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ---- zero-skew waveform generator ------------------------------------------ *)

let gen_zero_skew_waveform =
  let open QCheck.Gen in
  let gen_segs =
    sized_size (int_range 1 5) (fun n ->
        let* cuts = list_repeat n (int_range 1 (period - 1)) in
        let cuts = List.sort_uniq Int.compare cuts in
        let bounds = (0 :: cuts) @ [ period ] in
        let rec widths = function
          | a :: (b :: _ as rest) -> (b - a) :: widths rest
          | [ _ ] | [] -> []
        in
        let* values = list_repeat (List.length (widths bounds)) (oneofl Tvalue.all) in
        return (List.combine values (widths bounds)))
  in
  QCheck.make
    ~print:(Format.asprintf "%a" Waveform.pp)
    (QCheck.Gen.map (Waveform.create ~period) gen_segs)

(* With zero skew, binary combination is exactly pointwise. *)
let pointwise_prop f (a, b) =
  let c = Waveform.map2 f a b in
  List.for_all
    (fun t ->
      Tvalue.equal (Waveform.value_at c t) (f (Waveform.value_at a t) (Waveform.value_at b t)))
    (List.init 50 (fun i -> i * (period / 50)))

(* ---- random combinational netlists ------------------------------------------- *)

type recipe = {
  rc_seed : int;
  rc_n_inputs : int;
  rc_gates : (int * int * int) list;  (* fn selector, input a, input b *)
}

let gen_recipe =
  let open QCheck.Gen in
  let gen =
    let* rc_seed = int_range 0 10_000 in
    let* rc_n_inputs = int_range 1 4 in
    let* n_gates = int_range 1 12 in
    let* raw = list_repeat n_gates (triple (int_range 0 4) (int_range 0 1000) (int_range 0 1000)) in
    return { rc_seed; rc_n_inputs; rc_gates = raw }
  in
  QCheck.make
    ~print:(fun r ->
      Printf.sprintf "seed %d, %d inputs, %d gates" r.rc_seed r.rc_n_inputs
        (List.length r.rc_gates))
    gen

let assertion_pool =
  [| ".S0-6"; ".S2-7"; ".S4-9"; ".P2-3"; ".C1-2"; ".P0-4 L"; ".S1-5" |]

let build_recipe r =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:(Delay.of_ns 0.0 2.0)
  in
  let inputs =
    List.init r.rc_n_inputs (fun i ->
        Netlist.signal nl
          (Printf.sprintf "IN%d %s" i
             assertion_pool.((r.rc_seed + i) mod Array.length assertion_pool)))
  in
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

let waveforms nl ev =
  Array.to_list (Netlist.nets nl)
  |> List.map (fun (n : Netlist.net) -> Eval.value ev n.Netlist.n_id)

(* ---- multi-corner packing (doc/CORNERS.md) ----------------------------------- *)

(* The reference lane of a packed k-corner run must reproduce a
   dedicated single-corner run of corner 0 exactly — violations,
   per-case results, convergence and the final reference waveforms. *)
let corner_lane0_matches_scalar (c : Test_par.corner_recipe) =
  let nl, cases = Test_par.corner_design c in
  let verify ~corners =
    if c.co_flat then Test_par.verify_flat ~cases ~jobs:c.co_jobs ~corners nl
    else Verifier.verify ~cases ~jobs:c.co_jobs ~corners nl
  in
  let corners = Corner.of_spec c.co_spec in
  let render vs = List.map (Format.asprintf "%a" Check.pp) vs in
  let snapshot (r : Verifier.report) =
    ( render r.Verifier.r_violations,
      List.map
        (fun (cr : Verifier.case_result) ->
          (render cr.Verifier.cr_violations, cr.Verifier.cr_converged))
        r.Verifier.r_cases,
      r.Verifier.r_converged,
      waveforms nl r.Verifier.r_eval )
  in
  let packed_report = verify ~corners in
  let packed = snapshot packed_report in
  let scalar = snapshot (verify ~corners:(Array.sub corners 0 1)) in
  let pv, pc, pok, pw = packed and sv, sc, sok, sw = scalar in
  Test_par.counters_add_up packed_report
  && pv = sv && pc = sc && pok = sok && List.for_all2 Waveform.equal pw sw

(* ---- the properties ------------------------------------------------------------ *)

let properties =
  [
    prop "map2 or is pointwise at zero skew"
      QCheck.(pair gen_zero_skew_waveform gen_zero_skew_waveform)
      (pointwise_prop Tvalue.lor_);
    prop "map2 and is pointwise at zero skew"
      QCheck.(pair gen_zero_skew_waveform gen_zero_skew_waveform)
      (pointwise_prop Tvalue.land_);
    prop "map2 chg is pointwise at zero skew"
      QCheck.(pair gen_zero_skew_waveform gen_zero_skew_waveform)
      (pointwise_prop Tvalue.chg);
    prop "pulse intervals fit in the period" gen_zero_skew_waveform (fun w ->
        let total =
          Waveform.pulse_intervals Tvalue.V1 w
          |> List.fold_left (fun acc (_, width) -> acc + width) 0
        in
        total <= period);
    prop "stable + unstable intervals cover the period" gen_zero_skew_waveform (fun w ->
        let sum pred =
          Waveform.intervals_where pred w
          |> List.fold_left (fun acc (_, width) -> acc + width) 0
        in
        sum Tvalue.is_stable + sum (fun v -> not (Tvalue.is_stable v)) = period);
    prop ~count:100 "evaluation converges on random combinational nets" gen_recipe
      (fun r ->
        let nl = build_recipe r in
        let ev = Eval.create nl in
        Eval.run ev;
        Eval.converged ev);
    prop ~count:100 "evaluation is deterministic" gen_recipe (fun r ->
        let run () =
          let nl = build_recipe r in
          let ev = Eval.create nl in
          Eval.run ev;
          waveforms nl ev
        in
        List.for_all2 Waveform.equal (run ()) (run ()));
    prop ~count:100 "re-running adds no events" gen_recipe (fun r ->
        let nl = build_recipe r in
        let ev = Eval.create nl in
        Eval.run ev;
        let before = Eval.events ev in
        Eval.run ev;
        Eval.events ev = before);
    prop ~count:100 "case set then cleared restores the base state" gen_recipe (fun r ->
        let nl = build_recipe r in
        let ev = Eval.create nl in
        Eval.run ev;
        let base = waveforms nl ev in
        (match Netlist.find nl "IN0 .S0-6" with
        | Some id ->
          Eval.run ~case:[ (id, Tvalue.V1) ] ev;
          Eval.run ev
        | None -> Eval.run ev);
        List.for_all2 Waveform.equal base (waveforms nl ev));
    prop ~count:100 "widths sum to the period after evaluation" gen_recipe (fun r ->
        let nl = build_recipe r in
        let ev = Eval.create nl in
        Eval.run ev;
        List.for_all
          (fun w ->
            List.fold_left (fun acc (_, width) -> acc + width) 0 (Waveform.segments w)
            = period)
          (waveforms nl ev));
    prop ~count:100 "checks are reproducible" gen_recipe (fun r ->
        let nl = build_recipe r in
        let ev = Eval.create nl in
        Eval.run ev;
        let render vs = List.map (Format.asprintf "%a" Check.pp) vs in
        render (Eval.check ev) = render (Eval.check ev));
    prop ~count:20 "packed lane 0 equals a scalar single-corner run"
      Test_par.gen_corner_recipe corner_lane0_matches_scalar;
    prop ~count:1000 "per-edge delay stays within the envelope" gen_zero_skew_waveform
      (fun w ->
        (* wherever the envelope-delayed waveform claims stability, the
           per-edge result must not be changing *)
        match
          Waveform.delay_rise_fall ~rise:(1_000, 2_000) ~fall:(3_000, 4_000) w
        with
        | None -> true
        | Some exact ->
          let envelope =
            Waveform.materialize (Waveform.delay ~dmin:1_000 ~dmax:4_000 w)
          in
          List.for_all
            (fun t ->
              let e = Waveform.value_at envelope t in
              let x = Waveform.value_at exact t in
              (* envelope says a definite constant -> exact agrees *)
              match e with
              | Tvalue.V0 | Tvalue.V1 -> Tvalue.equal x e
              | _ -> true)
            (List.init 100 (fun i -> i * (period / 100))));
  ]

let suite = properties
