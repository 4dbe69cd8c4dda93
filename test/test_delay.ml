open Scald_core

let test_make () =
  let d = Delay.of_ns 1.0 3.8 in
  Alcotest.(check int) "dmin" 1000 d.Delay.dmin;
  Alcotest.(check int) "dmax" 3800 d.Delay.dmax;
  Alcotest.(check int) "spread" 2800 (Delay.spread d)

let test_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Delay.make: need 0 <= dmin <= dmax")
    (fun () -> ignore (Delay.make (-1) 0));
  Alcotest.check_raises "inverted" (Invalid_argument "Delay.make: need 0 <= dmin <= dmax")
    (fun () -> ignore (Delay.make 5 3));
  (* out-of-range input is rejected instead of wrapping: a 1e16 ns
     delay once converted to a negative picosecond count *)
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "1e16 ns" (fun () -> Delay.of_ns 0. 1e16);
  rejects "infinite" (fun () -> Delay.of_ns 0. infinity);
  rejects "NaN" (fun () -> Delay.of_ns nan 1.);
  rejects "infinite scale" (fun () -> Delay.scale infinity (Delay.of_ns 1. 2.))

let test_add () =
  let d = Delay.add (Delay.of_ns 1.0 2.0) (Delay.of_ns 0.5 1.5) in
  Alcotest.(check bool) "series" true (Delay.equal d (Delay.of_ns 1.5 3.5))

let test_zero () =
  Alcotest.(check bool) "zero" true (Delay.equal Delay.zero (Delay.make 0 0));
  Alcotest.(check int) "zero spread" 0 (Delay.spread Delay.zero)

let test_pp () =
  Alcotest.(check string) "format" "1.0/3.8" (Format.asprintf "%a" Delay.pp (Delay.of_ns 1.0 3.8))

let test_corner_spec_bounds () =
  let rejects spec =
    match Corner.of_spec spec with
    | _ -> Alcotest.failf "corner spec %S accepted" spec
    | exception Invalid_argument m ->
      Alcotest.(check bool) (Printf.sprintf "%S quoted in %S" spec m) true
        (String.ends_with ~suffix:(Printf.sprintf "(corner spec %S)" spec) m)
  in
  List.iter rejects
    [ "typ,x=1e308"; "typ,x=inf"; "typ,x=nan"; "typ,x=1/inf"; "typ,x=1001"; "typ,x=-1" ];
  let tbl = Corner.of_spec "typ,x=1000" in
  Alcotest.(check (float 0.)) "the bound itself is accepted" Corner.max_scale
    tbl.(1).Corner.delay_scale;
  (* the largest delay at the largest factor stays exact *)
  let d = Corner.scale_delay tbl.(1) (Delay.of_ns Timebase.max_ns Timebase.max_ns) in
  Alcotest.(check int) "scaled bound" 1_000_000_000_000_000 d.Delay.dmax

let suite =
  [
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "invalid" `Quick test_invalid;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "corner spec bounds" `Quick test_corner_spec_bounds;
  ]
