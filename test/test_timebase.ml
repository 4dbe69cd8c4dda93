open Scald_core

let test_make () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  Alcotest.(check int) "period ps" 50_000 (Timebase.period tb);
  Alcotest.(check int) "clock unit ps" 6_250 (Timebase.clock_unit tb);
  Alcotest.(check (float 1e-9)) "units per period" 8.0 (Timebase.units_per_period tb)

let test_make_invalid () =
  Alcotest.check_raises "zero period" (Invalid_argument "Timebase: period must be positive")
    (fun () -> ignore (Timebase.make ~period_ns:0. ~clock_unit_ns:1.));
  Alcotest.check_raises "zero unit"
    (Invalid_argument "Timebase: clock unit must be positive") (fun () ->
      ignore (Timebase.make ~period_ns:10. ~clock_unit_ns:0.))

let test_conversions () =
  Alcotest.(check int) "ns to ps" 6250 (Timebase.ps_of_ns 6.25);
  Alcotest.(check int) "rounding up" 1001 (Timebase.ps_of_ns 1.0005);
  Alcotest.(check int) "negative" (-1500) (Timebase.ps_of_ns (-1.5));
  Alcotest.(check (float 1e-9)) "ps to ns" 6.25 (Timebase.ns_of_ps 6250);
  List.iter
    (fun ns ->
      Alcotest.(check (float 0.)) (Printf.sprintf "%g ns round-trips" ns) ns
        (Timebase.ns_of_ps (Timebase.ps_of_ns ns)))
    [ Timebase.max_ns; -.Timebase.max_ns ];
  List.iter
    (fun ns ->
      match Timebase.ps_of_ns ns with
      | ps -> Alcotest.failf "%g ns accepted as %d ps" ns ps
      | exception Invalid_argument _ -> ())
    [ Float.succ Timebase.max_ns; 1e16; infinity; nan ]

let test_units () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  Alcotest.(check int) "4 units" 25_000 (Timebase.ps_of_units tb 4.0);
  Alcotest.(check int) "half unit" 3_125 (Timebase.ps_of_units tb 0.5);
  Alcotest.(check (float 1e-9)) "back" 4.0 (Timebase.units_of_ps tb 25_000)

let test_wrap () =
  let tb = Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25 in
  Alcotest.(check int) "inside" 10_000 (Timebase.wrap tb 10_000);
  Alcotest.(check int) "exact period" 0 (Timebase.wrap tb 50_000);
  Alcotest.(check int) "beyond" 6_250 (Timebase.wrap tb 56_250);
  Alcotest.(check int) "negative" 48_000 (Timebase.wrap tb (-2_000))

let test_pp () =
  Alcotest.(check string) "format" "25.5" (Format.asprintf "%a" Timebase.pp_ns 25_500);
  Alcotest.(check string) "negative" "-1.0" (Format.asprintf "%a" Timebase.pp_ns (-1_000))

let suite =
  [
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "units" `Quick test_units;
    Alcotest.test_case "wrap" `Quick test_wrap;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
