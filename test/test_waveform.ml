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
  let z = Waveform.map2 Tvalue.lor_ a b in
  Alcotest.check tv "either high" Tvalue.V1 (Waveform.value_at z (ps 7.));
  Alcotest.check tv "both low" Tvalue.V0 (Waveform.value_at z (ps 30.));
  Alcotest.check tv "overlap" Tvalue.V1 (Waveform.value_at z (ps 12.))

let test_map2_const_preserves_skew () =
  (* Combining with a constant (e.g. a stable enable) must not fold the
     clock's skew into its value list (§2.8). *)
  let ck = Waveform.with_skew ~early:(-1000) ~late:1000 (pulse ~from_ns:10. ~to_ns:20.) in
  let en = Waveform.const ~period Tvalue.V1 in
  let z = Waveform.map2 Tvalue.land_ ck en in
  Alcotest.(check (pair int int)) "skew preserved" (-1000, 1000) (Waveform.skew z);
  Alcotest.check tv "pulse passes" Tvalue.V1 (Waveform.value_at z (ps 15.))

let test_map2_folds_skew () =
  (* Combining two changing signals folds skew into Rise/Fall values. *)
  let a =
    Waveform.with_skew ~early:(ps (-1.)) ~late:(ps 1.) (pulse ~from_ns:10. ~to_ns:20.)
  in
  let b = pulse ~from_ns:30. ~to_ns:40. in
  let z = Waveform.map2 Tvalue.lor_ a b in
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
        Waveform.equal (Waveform.map2 Tvalue.lor_ a b) (Waveform.map2 Tvalue.lor_ b a));
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

(* The four gate folds over 1–5 inputs, the multiplexer over 3 and the
   latch over 2; now and then the first input twice, as one record. *)
let gen_combination =
  let open QCheck.Gen in
  let folds =
    List.map
      (fun (name, fn) -> (name, Primitive.gate_fold fn, int_range 1 5))
      [ ("AND", Primitive.And); ("OR", Primitive.Or); ("XOR", Primitive.Xor); ("CHG", Primitive.Chg) ]
  in
  let mux = function [ a; b; s ] -> O.mux_value a b s | _ -> assert false in
  let latch = function [ d; e ] -> O.latch_value d e | _ -> assert false in
  let* name, f, arity =
    oneofl (folds @ [ ("MUX2", mux, return 3); ("LATCH", latch, return 2) ])
  in
  let* n = arity in
  let* ws = list_repeat n (QCheck.gen gen_waveform) in
  let* twice = frequency [ (4, return false); (1, return true) ] in
  return (name, f, match ws with a :: _ :: rest when twice -> a :: a :: rest | _ -> ws)

let print_combination (name, _, ws) =
  String.concat "\n" (name :: List.map (Format.asprintf "%a" Waveform.pp) ws)

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
  let* k = int_range 0 4 in
  let* ranges = list_repeat k gen_range in
  let* inside = oneofl Tvalue.all in
  let* outside = oneofl Tvalue.all in
  return (ranges, inside, outside)

let print_ranges (ranges, inside, outside) =
  Format.asprintf "%a over %a: %s" Tvalue.pp inside Tvalue.pp outside
    (String.concat " " (List.map (fun (s, e) -> Printf.sprintf "(%d,%d)" s e) ranges))

let oracle name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:2000 ~name gen f)

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
    oracle "mapn equals its reference"
      (QCheck.make ~print:print_combination gen_combination)
      (fun (_, f, ws) -> Waveform.equal (Waveform.mapn f ws) (O.mapn f ws));
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
  ]
  @ properties @ oracle_properties
