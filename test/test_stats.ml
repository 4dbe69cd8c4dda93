open Scald_core
module Circuits = Scald_cells.Circuits

(* The evaluator of a verified register-file example: the storage
   accounting reads its waveforms, the census its netlist. *)
let evaluated_register_file () =
  let c = Circuits.register_file_example () in
  (Verifier.verify c.Circuits.rf_netlist).Verifier.r_eval

let test_census () =
  let nl = Eval.netlist (evaluated_register_file ()) in
  let census = Stats.primitive_census nl in
  let count name =
    match List.find_opt (fun (n, _, _) -> n = name) census with
    | Some (_, c, _) -> c
    | None -> 0
  in
  Alcotest.(check int) "one mux" 1 (count "2 MUX");
  Alcotest.(check int) "one reg" 1 (count "REG");
  Alcotest.(check int) "setup/hold checkers" 3 (count "SETUP HOLD CHK");
  Alcotest.(check int) "rise/fall checker" 1 (count "SETUP RISE HOLD FALL CHK");
  Alcotest.(check int) "pulse checker" 1 (count "MIN PULSE WIDTH");
  Alcotest.(check int) "total" (Netlist.n_insts nl) (Stats.total_primitives census)

let test_unvectored () =
  let nl = Eval.netlist (evaluated_register_file ()) in
  (* without vector symmetry the 32-bit paths would need one primitive
     per bit *)
  Alcotest.(check bool) "unvectored larger" true
    (Stats.unvectored_count nl > Netlist.n_insts nl)

let test_storage_consistency () =
  let ev = evaluated_register_file () in
  let nl = Eval.netlist ev in
  let s = Stats.storage_of ev in
  Alcotest.(check bool) "total positive" true (Stats.total s > 0);
  Alcotest.(check int) "total is the sum" (Stats.total s)
    (s.Stats.circuit_description + s.Stats.signal_values + s.Stats.signal_names
    + s.Stats.string_space + s.Stats.call_list + s.Stats.miscellaneous);
  Alcotest.(check bool) "value lists = total bits" true
    (Stats.n_value_lists nl
    = Array.fold_left (fun acc (n : Netlist.net) -> acc + n.Netlist.n_width) 0
        (Netlist.nets nl))

let test_value_records () =
  let ev = evaluated_register_file () in
  let mean = Stats.value_records_per_signal ev in
  Alcotest.(check bool)
    (Printf.sprintf "mean records %.2f reasonable" mean)
    true (mean >= 1. && mean <= 10.);
  let bytes = Stats.bytes_per_signal_value ev in
  (* 5-field base + 3 fields per record, 4 bytes per field *)
  Alcotest.(check (float 0.01)) "bytes formula" ((5. +. (3. *. mean)) *. 4.) bytes

(* [storage_of] must also work before any evaluation: a fresh
   evaluator holds the one-segment Unknown waveform on every net, so the
   accounting sees exactly one value record per signal value list. *)
let test_storage_unevaluated () =
  let c = Circuits.register_file_example () in
  let nl = c.Circuits.rf_netlist in
  let fresh = Eval.create nl in
  let s = Stats.storage_of fresh in
  Alcotest.(check bool) "total positive" true (Stats.total s > 0);
  Alcotest.(check bool) "signal values accounted" true (s.Stats.signal_values > 0);
  Alcotest.(check (float 0.0001)) "one record per unevaluated signal" 1.0
    (Stats.value_records_per_signal fresh);
  Alcotest.(check (float 0.01)) "bytes formula holds unevaluated"
    ((5. +. 3.) *. 4.)
    (Stats.bytes_per_signal_value fresh);
  (* evaluation only grows the waveform storage *)
  let s' = Stats.storage_of (Verifier.verify nl).Verifier.r_eval in
  Alcotest.(check bool) "evaluation grows signal values" true
    (s'.Stats.signal_values >= s.Stats.signal_values);
  Alcotest.(check int) "static sections unchanged" s.Stats.circuit_description
    s'.Stats.circuit_description

(* Every storage count on the s1 subset, pinned against the
   pointer-heavy pre-arena layout (doc/CAPACITY.md): the representation
   change — packed waveform buffers, packed fanout arrays, the
   once-per-net length accounting inside [storage_of] itself — must not
   move a single figure. *)
let test_storage_s1_pinned () =
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let e =
    match Scald_sdl.Expander.load (read_file "../examples/s1_subset.sdl") with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let nl = e.Scald_sdl.Expander.e_netlist in
  let s = Stats.storage_of (Eval.create nl) in
  Alcotest.(check int) "circuit description" 8996 s.Stats.circuit_description;
  Alcotest.(check int) "signal values" 11360 s.Stats.signal_values;
  Alcotest.(check int) "signal names" 2128 s.Stats.signal_names;
  Alcotest.(check int) "string space" 982 s.Stats.string_space;
  Alcotest.(check int) "call list" 2488 s.Stats.call_list;
  Alcotest.(check int) "miscellaneous" 259 s.Stats.miscellaneous;
  Alcotest.(check int) "total" 26213 (Stats.total s);
  Alcotest.(check int) "value lists" 355 (Stats.n_value_lists nl);
  let s' = Stats.storage_of (Verifier.verify nl).Verifier.r_eval in
  Alcotest.(check int) "signal values after verify" 20540 s'.Stats.signal_values;
  Alcotest.(check int) "miscellaneous after verify" 351 s'.Stats.miscellaneous;
  Alcotest.(check int) "total after verify" 35485 (Stats.total s')

let suite =
  [
    Alcotest.test_case "census" `Quick test_census;
    Alcotest.test_case "storage s1 pinned" `Quick test_storage_s1_pinned;
    Alcotest.test_case "storage unevaluated" `Quick test_storage_unevaluated;
    Alcotest.test_case "unvectored" `Quick test_unvectored;
    Alcotest.test_case "storage consistency" `Quick test_storage_consistency;
    Alcotest.test_case "value records" `Quick test_value_records;
  ]
