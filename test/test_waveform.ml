open Scald_core

let ps = Timebase.ps_of_ns

let period = ps 50.0 (* 50 ns cycle, like the thesis examples *)

let wf = Alcotest.testable Waveform.pp Waveform.equal

let segs w = Waveform.segments w

let tv = Alcotest.testable Tvalue.pp Tvalue.equal

(* ---- construction ------------------------------------------------------- *)

let test_const () =
  let w = Waveform.const ~period Tvalue.Stable in
  Alcotest.(check int) "one segment" 1 (List.length (segs w));
  Alcotest.check tv "value" Tvalue.Stable (Waveform.value_at w 12345)

let test_create_normalizes () =
  let w =
    Waveform.create ~period
      [ (Tvalue.V0, ps 10.); (Tvalue.V0, ps 10.); (Tvalue.V1, ps 30.) ]
  in
  Alcotest.(check int) "merged" 2 (List.length (segs w))

let test_create_bad_sum () =
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Waveform.create: segment widths sum to 20000, period is 50000")
    (fun () -> ignore (Waveform.create ~period [ (Tvalue.V0, ps 20.) ]))

let test_of_intervals () =
  (* High from 10 to 20 ns. *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 10., ps 20.) ]
  in
  Alcotest.check tv "before" Tvalue.V0 (Waveform.value_at w (ps 5.));
  Alcotest.check tv "inside" Tvalue.V1 (Waveform.value_at w (ps 15.));
  Alcotest.check tv "after" Tvalue.V0 (Waveform.value_at w (ps 25.))

let test_of_intervals_wrap () =
  (* Stable from 40 ns wrapping to 10 ns of the next cycle. *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
      [ (ps 40., ps 10.) ]
  in
  Alcotest.check tv "tail" Tvalue.Stable (Waveform.value_at w (ps 45.));
  Alcotest.check tv "head" Tvalue.Stable (Waveform.value_at w (ps 5.));
  Alcotest.check tv "middle" Tvalue.Change (Waveform.value_at w (ps 25.))

let test_of_intervals_wrap_far () =
  (* A stop more than a cycle before its start still wraps: 93.75 ns to
     6.25 ns is [43.75, 50) and [0, 6.25). *)
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
      [ (ps 93.75, ps 6.25) ]
  in
  Alcotest.(check (list (pair tv int)))
    "painted across the wrap"
    [ (Tvalue.Stable, ps 6.25); (Tvalue.Change, ps 37.5); (Tvalue.Stable, ps 6.25) ]
    (segs w)

(* ---- rotation and delay -------------------------------------------------- *)

let pulse ~from_ns ~to_ns =
  Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
    [ (ps from_ns, ps to_ns) ]

let test_rotate () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  let r = Waveform.rotate w (ps 5.) in
  Alcotest.check wf "rotated" (pulse ~from_ns:15. ~to_ns:25.) r;
  Alcotest.check wf "full turn" w (Waveform.rotate w period);
  Alcotest.check wf "two half turns" (Waveform.rotate w (ps 50.))
    (Waveform.rotate (Waveform.rotate w (ps 25.)) (ps 25.))

let test_rotate_wraps () =
  let w = pulse ~from_ns:40. ~to_ns:48. in
  let r = Waveform.rotate w (ps 5.) in
  Alcotest.check tv "tail high" Tvalue.V1 (Waveform.value_at r (ps 46.));
  Alcotest.check tv "head high" Tvalue.V1 (Waveform.value_at r (ps 2.));
  Alcotest.check tv "low" Tvalue.V0 (Waveform.value_at r (ps 10.))

let test_delay () =
  (* Figure 2-8: a gate with 5.0/10.0 ns delay shifts the value list by
     the minimum and adds the spread to the skew. *)
  let w = pulse ~from_ns:10. ~to_ns:20. in
  let d = Waveform.delay ~dmin:(ps 5.) ~dmax:(ps 10.) w in
  Alcotest.check tv "shifted by dmin" Tvalue.V1 (Waveform.value_at d (ps 16.));
  Alcotest.(check (pair int int)) "skew" (0, ps 5.) (Waveform.skew d)

let test_delay_accumulates_skew () =
  let w = Waveform.with_skew ~early:(-1000) ~late:1000 (pulse ~from_ns:10. ~to_ns:20.) in
  let d = Waveform.delay ~dmin:(ps 2.) ~dmax:(ps 3.) w in
  Alcotest.(check (pair int int)) "skew grows late side" (-1000, 2000) (Waveform.skew d)

(* ---- materialization ------------------------------------------------------ *)

let test_materialize_pulse () =
  (* A 10-20 ns pulse with +/-1 ns skew: Rise during 9-11, Fall during
     19-21 (Figure 2-9). *)
  let w = Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.) in
  let m = Waveform.materialize w in
  Alcotest.(check (pair int int)) "skew folded" (0, 0) (Waveform.skew m);
  Alcotest.check tv "rise window" Tvalue.Rise (Waveform.value_at m (ps 10.));
  Alcotest.check tv "before rise" Tvalue.V0 (Waveform.value_at m (ps 8.));
  Alcotest.check tv "high" Tvalue.V1 (Waveform.value_at m (ps 15.));
  Alcotest.check tv "fall window" Tvalue.Fall (Waveform.value_at m (ps 20.));
  Alcotest.check tv "after fall" Tvalue.V0 (Waveform.value_at m (ps 22.))

let test_materialize_wrapping_window () =
  (* Transition at time 0 with skew: the window must wrap. *)
  let w =
    Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:0. ~to_ns:25.)
  in
  let m = Waveform.materialize w in
  Alcotest.check tv "window tail" Tvalue.Rise (Waveform.value_at m (ps 49.));
  Alcotest.check tv "window head" Tvalue.Rise (Waveform.value_at m (ps 1.))

let test_materialize_const_noop () =
  let w = Waveform.with_skew ~early:(-500) ~late:500 (Waveform.const ~period Tvalue.Stable) in
  let m = Waveform.materialize w in
  Alcotest.(check int) "still one segment" 1 (List.length (segs m))

let test_materialize_overlapping () =
  (* Pulse narrower than the skew window: the two edge windows overlap
     and merge to Change. *)
  let w =
    Waveform.with_skew ~early:(ps (-3.)) ~late:(ps 3.)
      (pulse ~from_ns:10. ~to_ns:12.)
  in
  let m = Waveform.materialize w in
  Alcotest.check tv "overlap is change" Tvalue.Change (Waveform.value_at m (ps 11.))

(* ---- combination ----------------------------------------------------------- *)

let test_map2_or () =
  (* Figure 2-8/2-9: OR of two signals through a 5/10 ns gate. *)
  let a = pulse ~from_ns:5. ~to_ns:15. in
  let b = pulse ~from_ns:10. ~to_ns:25. in
  let z = Waveform.map2 (Waveform.table Tvalue.lor_) a b in
  Alcotest.check tv "either high" Tvalue.V1 (Waveform.value_at z (ps 7.));
  Alcotest.check tv "both low" Tvalue.V0 (Waveform.value_at z (ps 30.));
  Alcotest.check tv "overlap" Tvalue.V1 (Waveform.value_at z (ps 12.))

let test_map2_const_preserves_skew () =
  (* Combining with a constant (e.g. a stable enable) must not fold the
     clock's skew into its value list (§2.8). *)
  let ck = Waveform.with_skew ~early:(-1000) ~late:1000 (pulse ~from_ns:10. ~to_ns:20.) in
  let en = Waveform.const ~period Tvalue.V1 in
  let z = Waveform.map2 (Waveform.table Tvalue.land_) ck en in
  Alcotest.(check (pair int int)) "skew preserved" (-1000, 1000) (Waveform.skew z);
  Alcotest.check tv "pulse passes" Tvalue.V1 (Waveform.value_at z (ps 15.))

let test_map2_folds_skew () =
  (* Combining two changing signals folds skew into Rise/Fall values. *)
  let a =
    Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.)
  in
  let b = pulse ~from_ns:30. ~to_ns:40. in
  let z = Waveform.map2 (Waveform.table Tvalue.lor_) a b in
  Alcotest.(check (pair int int)) "zero skew" (0, 0) (Waveform.skew z);
  Alcotest.check tv "rise window folded" Tvalue.Rise (Waveform.value_at z (ps 10.))

let test_map3_mux_shape () =
  let a = Waveform.const ~period Tvalue.Stable in
  let b = Waveform.const ~period Tvalue.Change in
  let s = Waveform.const ~period Tvalue.V0 in
  let f x y z = match z with Tvalue.V0 -> x | Tvalue.V1 -> y | _ -> Tvalue.Change in
  let z = Waveform.map3 f a b s in
  Alcotest.check tv "select 0 picks a" Tvalue.Stable (Waveform.value_at z 0)

(* ---- windows ----------------------------------------------------------------- *)

let test_rising_windows_sharp () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match Waveform.rising_windows w with
  | [ { Waveform.w_start; w_stop } ] ->
    Alcotest.(check int) "start" (ps 10.) w_start;
    Alcotest.(check int) "instantaneous" (ps 10.) w_stop
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_rising_windows_skewed () =
  let w = Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.) in
  match Waveform.rising_windows w with
  | [ { Waveform.w_start; w_stop } ] ->
    Alcotest.(check int) "start" (ps 9.) w_start;
    Alcotest.(check int) "stop" (ps 11.) w_stop
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_falling_windows () =
  let w = pulse ~from_ns:10. ~to_ns:20. in
  match Waveform.falling_windows w with
  | [ { Waveform.w_start; w_stop = _ } ] -> Alcotest.(check int) "start" (ps 20.) w_start
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_two_pulses_two_windows () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (ps 10., ps 15.); (ps 30., ps 35.) ]
  in
  Alcotest.(check int) "two rising" 2 (List.length (Waveform.rising_windows w));
  Alcotest.(check int) "two falling" 2 (List.length (Waveform.falling_windows w))

(* ---- stability ------------------------------------------------------------------ *)

let stable_0_6_of_8 =
  (* .S0-6 with 6.25 ns clock units on a 50 ns cycle *)
  Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change
    [ (0, ps 37.5) ]

let test_stable_over () =
  Alcotest.(check bool) "inside" true
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 10.) ~width:(ps 20.));
  Alcotest.(check bool) "crossing" false
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 30.) ~width:(ps 10.));
  Alcotest.(check bool) "outside" false
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 40.) ~width:(ps 5.));
  Alcotest.(check bool) "zero width" true
    (Waveform.stable_over stable_0_6_of_8 ~start:(ps 45.) ~width:0)

let test_stable_interval_around () =
  match Waveform.stable_interval_around stable_0_6_of_8 (ps 20.) with
  | Some (s, width) ->
    Alcotest.(check int) "start" 0 s;
    Alcotest.(check int) "width" (ps 37.5) width
  | None -> Alcotest.fail "expected a stable interval"

let test_stable_interval_wraps () =
  let w =
    Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable
      [ (ps 10., ps 20.) ]
  in
  (* Stable from 20 wrapping to 10: one interval of width 40. *)
  match Waveform.stable_interval_around w (ps 5.) with
  | Some (s, width) ->
    Alcotest.(check int) "start" (ps 20.) s;
    Alcotest.(check int) "width" (ps 40.) width
  | None -> Alcotest.fail "expected a stable interval"

let test_pulse_intervals_ignore_skew () =
  (* The nominal 10 ns pulse keeps its width even under 2 ns of skew —
     the thesis's reason for the separate skew field (§2.8). *)
  let w = Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:10. ~to_ns:20.) in
  match Waveform.pulse_intervals Tvalue.V1 w with
  | [ (s, width) ] ->
    Alcotest.(check int) "start" (ps 10.) s;
    Alcotest.(check int) "width" (ps 10.) width
  | l -> Alcotest.failf "expected one pulse, got %d" (List.length l)

let test_pulse_intervals_after_fold () =
  (* Once skew is folded in (combined signals), the guaranteed width
     shrinks by the whole skew window. *)
  let w =
    Waveform.materialize
      (Waveform.with_skew ~early:(ps (-2.)) ~late:(ps 2.) (pulse ~from_ns:10. ~to_ns:20.))
  in
  match Waveform.pulse_intervals Tvalue.V1 w with
  | [ (s, width) ] ->
    Alcotest.(check int) "start" (ps 12.) s;
    Alcotest.(check int) "width" (ps 6.) width
  | l -> Alcotest.failf "expected one pulse, got %d" (List.length l)

(* ---- properties ------------------------------------------------------------------- *)

(* Up to 8 segments, with cuts that favour 1-ps segments next to 0 and
   to the period, now and then a constant; skew on either side, now and
   then wider than the cycle (materialization's whole-cycle branch). *)
let gen_waveform =
  let open QCheck.Gen in
  let gen_value = oneofl Tvalue.all in
  let gen_cut =
    frequency
      [ (6, int_range 1 (period - 1)); (1, int_range 1 3); (1, int_range (period - 3) (period - 1)) ]
  in
  let gen_segs =
    let* n = frequency [ (1, return 0); (8, int_range 1 7) ] in
    let* cuts = list_repeat n gen_cut in
    let cuts = List.sort_uniq Int.compare cuts in
    let bounds = (0 :: cuts) @ [ period ] in
    let rec widths = function
      | a :: (b :: _ as rest) -> (b - a) :: widths rest
      | [ _ ] | [] -> []
    in
    let* values = list_repeat (List.length (widths bounds)) gen_value in
    return (List.combine values (widths bounds))
  in
  let gen_side = frequency [ (2, return 0); (5, int_range 0 3000); (2, int_range 0 (period + 10_000)) ] in
  let gen =
    let* segs = gen_segs in
    let* early = gen_side in
    let* late = gen_side in
    return (Waveform.with_skew ~early:(-early) ~late (Waveform.create ~period segs))
  in
  QCheck.make ~print:(Format.asprintf "%a" Waveform.pp) gen

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name gen f)

let sum_widths w = List.fold_left (fun acc (_, wd) -> acc + wd) 0 (Waveform.segments w)

let no_adjacent_equal w =
  let rec go = function
    | (a, _) :: ((b, _) :: _ as rest) -> (not (Tvalue.equal a b)) && go rest
    | [ _ ] | [] -> true
  in
  go (Waveform.segments w)

let properties =
  [
    prop "widths always sum to period" gen_waveform (fun w -> sum_widths w = period);
    prop "normalized: no adjacent equal values" gen_waveform no_adjacent_equal;
    prop "rotate preserves sum" gen_waveform (fun w ->
        sum_widths (Waveform.rotate w 12345) = period);
    prop "rotate by period is identity" gen_waveform (fun w ->
        Waveform.equal w (Waveform.rotate w period));
    prop "rotate composes" gen_waveform (fun w ->
        Waveform.equal
          (Waveform.rotate w 17000)
          (Waveform.rotate (Waveform.rotate w 9000) 8000));
    prop "materialize idempotent" gen_waveform (fun w ->
        let m = Waveform.materialize w in
        Waveform.equal m (Waveform.materialize m));
    prop "materialize preserves sum" gen_waveform (fun w ->
        sum_widths (Waveform.materialize w) = period);
    prop "materialize keeps stable interiors" gen_waveform (fun w ->
        (* A segment's midpoint lies outside every transition window when
           the window of the transition entering it ends by the midpoint
           and that of the transition leaving it starts after it: there
           the materialized value is the nominal one. *)
        let m = Waveform.materialize w in
        let early, late = Waveform.skew w in
        let rec go at = function
          | [] -> true
          | (v, width) :: rest ->
            (if 2 * late <= width && 2 * -early < width then
               Tvalue.equal v (Waveform.value_at m (at + (width / 2)))
             else true)
            && go (at + width) rest
        in
        go 0 (Waveform.segments w));
    prop "map2 or commutative" QCheck.(pair gen_waveform gen_waveform) (fun (a, b) ->
        Waveform.equal (Waveform.map2 (Waveform.table Tvalue.lor_) a b) (Waveform.map2 (Waveform.table Tvalue.lor_) b a));
    prop "delay then delay = combined delay (values)" gen_waveform (fun w ->
        let d1 = Waveform.delay ~dmin:2000 ~dmax:3000 (Waveform.delay ~dmin:1000 ~dmax:2000 w) in
        let d2 = Waveform.delay ~dmin:3000 ~dmax:5000 w in
        Waveform.equal d1 d2);
    prop "stable_over consistent with intervals_where" gen_waveform (fun w ->
        let unstable = Waveform.intervals_where (fun v -> not (Tvalue.is_stable v)) w in
        List.for_all
          (fun (s, width) -> not (Waveform.stable_over w ~start:s ~width))
          unstable);
  ]

(* ---- the kernels against their list references (Waveform_oracle) ---------------- *)

module O = Waveform_oracle

let gen_shift = QCheck.Gen.int_range (-3 * period) (3 * period)

let gen_map_fn =
  QCheck.Gen.oneofl
    [
      ("lnot", Tvalue.lnot);
      ("chg1", Tvalue.chg1);
      ("case 0", fun v -> if Tvalue.equal v Tvalue.Stable then Tvalue.V0 else v);
      ("case 1", fun v -> if Tvalue.equal v Tvalue.Stable then Tvalue.V1 else v);
    ]

(* [n] inputs, each now and then a constant (skewed or not) or the
   record of an earlier input again. *)
let gen_inputs n =
  let open QCheck.Gen in
  let gen_const =
    let* v = oneofl Tvalue.all in
    let* late = frequency [ (2, return 0); (1, int_range 1 3000) ] in
    return (Waveform.with_skew ~early:0 ~late (Waveform.const ~period v))
  in
  let* ws = list_repeat n (frequency [ (3, QCheck.gen gen_waveform); (2, gen_const) ]) in
  let* repeats = list_repeat n (frequency [ (4, return None); (1, map Option.some (int_bound n)) ]) in
  let ws = Array.of_list ws in
  List.iteri (fun i r -> match r with Some j when j < i -> ws.(i) <- ws.(j) | _ -> ()) repeats;
  return ws

let print_inputs ws =
  String.concat "\n" (List.map (Format.asprintf "%a" Waveform.pp) (Array.to_list ws))

(* No delay, an envelope delay of up to two cycles, or a rise/fall one. *)
let gen_delay =
  let open QCheck.Gen in
  frequency
    [
      (2, return Delay.zero);
      ( 3,
        let* dmin = int_range 0 (2 * period) in
        let* spread = int_range 0 3000 in
        return (Delay.make dmin (dmin + spread)) );
      ( 1,
        let* r = int_range 0 3000 in
        let* rs = int_range 0 2000 in
        let* f = int_range 0 3000 in
        let* fs = int_range 0 2000 in
        return (Delay.make_rise_fall ~rise:(r, r + rs) ~fall:(f, f + fs)) );
    ]

let gate_fns = Primitive.[ ("AND", And); ("OR", Or); ("XOR", Xor); ("CHG", Chg) ]

(* Each gate function over 1–6 inputs, complemented or not, delayed. *)
let gen_gate =
  let open QCheck.Gen in
  let* name, fn = oneofl gate_fns in
  let* invert = bool in
  let* delay = gen_delay in
  let* n = int_range 1 6 in
  let* ws = gen_inputs n in
  return (name, fn, invert, delay, ws)

let print_gate (name, _, invert, delay, ws) =
  Format.asprintf "%s%s delay %a\n%s" (if invert then "N" else "") name Delay.pp delay
    (print_inputs ws)

(* The evaluator's value functions of two and of three inputs. *)
let gen_map2 =
  let open QCheck.Gen in
  let* name, f =
    oneofl [ ("LATCH", O.latch_value); ("paint", O.paint); ("OR", Tvalue.lor_) ]
  in
  let* ws = gen_inputs 2 in
  return (name, f, ws)

let gen_map3 =
  let open QCheck.Gen in
  let* name, f = oneofl [ ("MUX2", O.mux_value); ("SET/RESET", O.set_reset_overlay) ] in
  let* ws = gen_inputs 3 in
  return (name, f, ws)

let print_named (name, _, ws) = name ^ "\n" ^ print_inputs ws

(* Ranges whose stop lies before, at, just past or a cycle or more away
   from the start, over starts anywhere in [-2, 3) cycles. *)
let gen_ranges =
  let open QCheck.Gen in
  let gen_delta =
    oneof
      [
        int_range (-period) period;
        oneofl [ 0; 1; -1; period; -period; period - 1; period + 1; 1 - period; 2 * period ];
        int_range (-2 * period) (2 * period);
      ]
  in
  let gen_range =
    let* s = int_range (-2 * period) (3 * period) in
    let* d = gen_delta in
    return (s, s + d)
  in
  let* k = frequency [ (3, int_range 0 4); (1, int_range 5 20) ] in
  let* ranges = list_repeat k gen_range in
  let* inside = oneofl Tvalue.all in
  let* outside = oneofl Tvalue.all in
  return (ranges, inside, outside)

let print_ranges (ranges, inside, outside) =
  Format.asprintf "%a over %a: %s" Tvalue.pp inside Tvalue.pp outside
    (String.concat " " (List.map (fun (s, e) -> Printf.sprintf "(%d,%d)" s e) ranges))

(* Two delay ranges and a shift; a zero minimum now and then, so that
   [delay] builds its result from its input's own segment array. *)
let gen_slot_params =
  let open QCheck.Gen in
  let gen_d = frequency [ (2, return 0); (3, int_range 1 3000); (1, int_range 0 period) ] in
  let* dmin = gen_d in
  let* spread = gen_d in
  let* fmin = gen_d in
  let* fspread = gen_d in
  let* d = gen_shift in
  return (dmin, dmin + spread, (fmin, fmin + fspread), d)

let print_slot_params (dmin, dmax, (fmin, fmax), d) =
  Printf.sprintf "delay %d/%d, fall %d/%d, shift %d" dmin dmax fmin fmax d

(* A predicate, as the set of values it holds on, and one value. *)
let arb_values =
  QCheck.make
    ~print:(fun vs -> String.concat "" (List.map (Format.asprintf "%a" Tvalue.pp) vs))
    QCheck.Gen.(
      map (fun keep -> List.filteri (fun i _ -> keep land (1 lsl i) <> 0) Tvalue.all) (int_bound 127))

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Tvalue.pp) (QCheck.Gen.oneofl Tvalue.all)

(* A window anywhere in [-2, 3) cycles, as wide as 0 to just over a
   cycle, and an instant; or, half the time, a window from near one
   segment start of the materialized waveform to near another, and the
   first of them, where an off-by-one shows. *)
let gen_query =
  let open QCheck.Gen in
  let* start = int_range (-2 * period) (3 * period) in
  let* width =
    frequency
      [ (4, int_range 0 period); (1, oneofl [ -1; 0; 1; period - 1; period; period + 1 ]) ]
  in
  let* t = int_range (-2 * period) (3 * period) in
  let* near = oneofl [ -1; 0; 1 ] in
  let* anchors = opt (quad (int_bound 15) (int_bound 15) (oneofl [ -1; 0; 1 ]) (return near)) in
  return (start, width, t, anchors)

let print_query (start, width, t, anchors) =
  match anchors with
  | None -> Printf.sprintf "start %d, width %d, at %d" start width t
  | Some (i, j, di, dj) -> Printf.sprintf "from segment %d%+d to segment %d%+d" i di j dj

(* The window and instant a query names on [w]. *)
let resolve_query w (start, width, t, anchors) =
  match anchors with
  | None -> (start, width, t)
  | Some (i, j, di, dj) ->
    let starts = Array.of_list (O.starts (O.materialize w)) in
    let at k = starts.(k mod Array.length starts) in
    let a = at i + di in
    (a, O.wrap period (at j + dj - a), a)

(* A second record for [equal]: the first itself, a copy, the copy with
   other skew, a rotation of it, or another waveform. *)
let gen_pair =
  let open QCheck.Gen in
  let* a = QCheck.gen gen_waveform in
  let* b = QCheck.gen gen_waveform in
  let copy () =
    let early, late = Waveform.skew a in
    Waveform.with_skew ~early ~late (Waveform.create ~period (Waveform.segments a))
  in
  let* k = int_range 0 4 in
  let* d = int_range 1 (period - 1) in
  let b =
    match k with
    | 0 -> a
    | 1 -> copy ()
    | 2 -> Waveform.with_skew ~early:(fst (Waveform.skew a) - 1) ~late:0 (copy ())
    | 3 -> Waveform.rotate a d
    | _ -> b
  in
  return (a, b)

let print_pair (a, b) = Format.asprintf "%a\n%a" Waveform.pp a Waveform.pp b

(* The kernels are held to their references on 2,000 cases each, and
   20,000 with QCHECK_LONG=1. *)
let oracle name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:2000 ~long_factor:10 ~name gen f)

let test_gate_tables () =
  List.iter
    (fun ((name, fn), op) ->
      let tb = Primitive.gate_table fn in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.check tv
                (Format.asprintf "%s %a %a" name Tvalue.pp a Tvalue.pp b)
                (op a b) (Waveform.lookup tb a b))
            Tvalue.all)
        Tvalue.all)
    (List.combine gate_fns [ Tvalue.land_; Tvalue.lor_; Tvalue.lxor_; Tvalue.chg ])

let oracle_properties =
  [
    oracle "materialize equals its reference" gen_waveform (fun w ->
        Waveform.equal (Waveform.materialize w) (O.materialize w));
    oracle "rotate equals its reference"
      QCheck.(pair gen_waveform (make ~print:string_of_int gen_shift))
      (fun (w, d) -> Waveform.equal (Waveform.rotate w d) (O.rotate w d));
    oracle "map equals its reference"
      QCheck.(pair gen_waveform (make ~print:fst gen_map_fn))
      (fun (w, (_, f)) -> Waveform.equal (Waveform.map f w) (O.map f w));
    oracle "gate merge equals its reference" (QCheck.make ~print:print_gate gen_gate)
      (fun (_, fn, invert, delay, ws) ->
        let out =
          Waveform.gate (Primitive.gate_table fn) ~init:(Primitive.enabling_value fn) ~invert
            ~delay ws
        in
        Waveform.equal out (O.gate fn ~invert ~delay (Array.to_list ws))
        && Array.for_all (fun w -> w != out) ws);
    oracle "map2 equals its reference" (QCheck.make ~print:print_named gen_map2)
      (fun (_, f, ws) ->
        Waveform.equal (Waveform.map2 (Waveform.table f) ws.(0) ws.(1))
          (O.mapn (function [ x; y ] -> f x y | _ -> assert false) (Array.to_list ws)));
    oracle "map3 equals its reference" (QCheck.make ~print:print_named gen_map3)
      (fun (_, f, ws) ->
        Waveform.equal (Waveform.map3 f ws.(0) ws.(1) ws.(2))
          (O.mapn (function [ x; y; z ] -> f x y z | _ -> assert false) (Array.to_list ws)));
    oracle "edge and change windows equal their reference" gen_waveform (fun w ->
        Waveform.rising_windows w = O.rising_windows w
        && Waveform.falling_windows w = O.falling_windows w
        && Waveform.change_windows w = O.change_windows w);
    oracle "intervals_where and pulse_intervals equal their reference"
      QCheck.(triple gen_waveform arb_values arb_value)
      (fun (w, vs, v) ->
        let pred x = List.exists (Tvalue.equal x) vs in
        Waveform.intervals_where pred w = O.intervals_where pred w
        && Waveform.pulse_intervals v w = O.pulse_intervals v w);
    oracle "stable_over, stable_interval_around and sampled equal their reference"
      QCheck.(pair gen_waveform (make ~print:print_query gen_query))
      (fun (w, q) ->
        let start, width, t = resolve_query w q in
        let win = { Waveform.w_start = start; w_stop = start + Int.max 0 width } in
        Waveform.stable_over w ~start ~width = O.stable_over w ~start ~width
        && Waveform.stable_interval_around w t = O.stable_interval_around w t
        && Waveform.sampled w win = O.sampled w win);
    oracle "equal equals its reference" (QCheck.make ~print:print_pair gen_pair) (fun (a, b) ->
        Waveform.equal a b
        = (Waveform.period a = Waveform.period b
          && Waveform.skew a = Waveform.skew b
          && Waveform.segments a = Waveform.segments b));
    oracle "of_intervals equals its reference"
      (QCheck.make ~print:print_ranges gen_ranges)
      (fun (ranges, inside, outside) ->
        Waveform.equal
          (Waveform.of_intervals ~period ~inside ~outside ranges)
          (O.of_intervals ~period ~inside ~outside ranges));
    (* The lane-sharing code compares records with [==]: a kernel hands
       back its input only where the reference does. *)
    oracle "kernels return their input only where they must"
      QCheck.(pair gen_waveform (make ~print:string_of_int gen_shift))
      (fun (w, d) ->
        (Waveform.rotate w d == w) = (d mod period = 0)
        && (Waveform.materialize w == w) = (Waveform.skew w = (0, 0))
        && Waveform.map Fun.id w != w);
    (* A record keeps its folded form: a second [materialize] hands back
       the first one's result, and every record derived from it folds as
       if the input had never been materialized. *)
    oracle "materialize keeps its result; derived records start unfilled"
      QCheck.(triple gen_waveform gen_waveform (make ~print:print_slot_params gen_slot_params))
      (fun (w, w2, (dmin, dmax, fall, d)) ->
        let fresh () =
          let early, late = Waveform.skew w in
          Waveform.with_skew ~early ~late (Waveform.create ~period (Waveform.segments w))
        in
        let filled () =
          let x = fresh () in
          ignore (Waveform.materialize x);
          x
        in
        let x = fresh () in
        let m = Waveform.materialize x in
        let kept = Waveform.equal m (O.materialize w) && Waveform.materialize x == m in
        let early, late = Waveform.skew w2 in
        let derived =
          [
            Waveform.with_skew ~early ~late;
            Waveform.delay ~dmin ~dmax;
            (fun v -> Waveform.rotate v d);
            Waveform.apply_delay (Delay.make dmin dmax);
            Waveform.apply_delay (Delay.make_rise_fall ~rise:(dmin, dmax) ~fall);
            Waveform.map Tvalue.lnot;
            (fun v -> Waveform.map2 (Waveform.table Tvalue.lor_) v w2);
            (fun v -> Waveform.map3 O.mux_value v w2 v);
            (fun v ->
              Waveform.gate (Primitive.gate_table Primitive.Xor)
                ~init:(Primitive.enabling_value Primitive.Xor) ~invert:false ~delay:Delay.zero
                [| v; w2; v |]);
            Waveform.buffer ~invert:true ~delay:(Delay.make dmin dmax);
            Waveform.materialize;
          ]
        in
        let same f =
          let a = f (fresh ()) and b = f (filled ()) in
          Waveform.equal a b && Waveform.equal (Waveform.materialize a) (Waveform.materialize b)
        in
        let x1 = filled () and x2 = filled () in
        kept && List.for_all same derived
        && compare x1 x2 = 0
        && Hashtbl.hash x1 = Hashtbl.hash x2);
  ]

let test_many_segments () =
  (* The tail/merge paths used [List.nth pieces (length - 1)] and
     [List.filteri], quadratic in the segment count; a waveform with
     thousands of segments must round-trip and answer tail queries
     instantly on the contiguous buffer. *)
  let n = 5_000 in
  let seg_w = period / n in
  let rem = period - (seg_w * n) in
  let segs_in =
    List.init n (fun i ->
        ( (if i mod 2 = 0 then Tvalue.V0 else Tvalue.V1),
          if i = n - 1 then seg_w + rem else seg_w ))
  in
  let t0 = Sys.time () in
  let w = Waveform.create ~period segs_in in
  Alcotest.(check int) "all segments kept" n (Waveform.n_segments w);
  Alcotest.(check int) "segments list round-trips" n (List.length (Waveform.segments w));
  Alcotest.check tv "tail value" Tvalue.V1 (Waveform.value_at w (period - 1));
  Alcotest.check tv "head value" Tvalue.V0 (Waveform.value_at w 0);
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "near-linear construction+queries (%.3fs)" elapsed)
    true (elapsed < 1.0)

let suite =
  [
    Alcotest.test_case "const" `Quick test_const;
    Alcotest.test_case "many segments" `Quick test_many_segments;
    Alcotest.test_case "create normalizes" `Quick test_create_normalizes;
    Alcotest.test_case "create bad sum" `Quick test_create_bad_sum;
    Alcotest.test_case "of_intervals" `Quick test_of_intervals;
    Alcotest.test_case "of_intervals wrap" `Quick test_of_intervals_wrap;
    Alcotest.test_case "of_intervals wrap from a cycle away" `Quick test_of_intervals_wrap_far;
    Alcotest.test_case "rotate" `Quick test_rotate;
    Alcotest.test_case "rotate wraps" `Quick test_rotate_wraps;
    Alcotest.test_case "delay" `Quick test_delay;
    Alcotest.test_case "delay accumulates skew" `Quick test_delay_accumulates_skew;
    Alcotest.test_case "materialize pulse" `Quick test_materialize_pulse;
    Alcotest.test_case "materialize wrapping window" `Quick test_materialize_wrapping_window;
    Alcotest.test_case "materialize const noop" `Quick test_materialize_const_noop;
    Alcotest.test_case "materialize overlapping windows" `Quick test_materialize_overlapping;
    Alcotest.test_case "map2 or" `Quick test_map2_or;
    Alcotest.test_case "map2 const preserves skew" `Quick test_map2_const_preserves_skew;
    Alcotest.test_case "map2 folds skew" `Quick test_map2_folds_skew;
    Alcotest.test_case "map3 mux" `Quick test_map3_mux_shape;
    Alcotest.test_case "rising windows sharp" `Quick test_rising_windows_sharp;
    Alcotest.test_case "rising windows skewed" `Quick test_rising_windows_skewed;
    Alcotest.test_case "falling windows" `Quick test_falling_windows;
    Alcotest.test_case "two pulses two windows" `Quick test_two_pulses_two_windows;
    Alcotest.test_case "stable over" `Quick test_stable_over;
    Alcotest.test_case "stable interval around" `Quick test_stable_interval_around;
    Alcotest.test_case "stable interval wraps" `Quick test_stable_interval_wraps;
    Alcotest.test_case "pulse width ignores separate skew" `Quick
      test_pulse_intervals_ignore_skew;
    Alcotest.test_case "pulse width after folding" `Quick test_pulse_intervals_after_fold;
    Alcotest.test_case "gate tables equal their Tvalue functions" `Quick test_gate_tables;
  ]
  @ properties @ oracle_properties
