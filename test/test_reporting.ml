(* Slack reporting, ASCII timing diagrams, VCD export. *)

open Scald_core
module Circuits = Scald_cells.Circuits

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let evaluated () =
  let c = Circuits.register_file_example () in
  let report = Verifier.verify c.Circuits.rf_netlist in
  (c, report.Verifier.r_eval)

(* ---- slack ------------------------------------------------------------------- *)

let test_slack_sorted_and_signed () =
  let _, ev = evaluated () in
  let entries = Slack.compute ev in
  Alcotest.(check bool) "non-empty" true (entries <> []);
  (* sorted ascending *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Slack.e_slack <= b.Slack.e_slack && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "ascending slack" true (sorted entries);
  (* the two known violations are the negative-slack entries *)
  let negative = List.filter (fun e -> e.Slack.e_slack < 0) entries in
  Alcotest.(check int) "two negative" 2 (List.length negative)

let test_slack_values_match_fig_3_11 () =
  let _, ev = evaluated () in
  match Slack.worst ev with
  | Some e ->
    (* the address checker misses its 3.5 ns set-up by the full amount *)
    Alcotest.(check bool) "setup kind" true (e.Slack.e_kind = Slack.Setup);
    Alcotest.(check int) "slack -3.5 ns" (-3_500) e.Slack.e_slack
  | None -> Alcotest.fail "no entries"

let test_slack_on_clean_design () =
  let ar = Circuits.arithmetic_example () in
  let report = Verifier.verify ar.Circuits.ar_netlist in
  let entries = Slack.compute report.Verifier.r_eval in
  Alcotest.(check bool) "all positive" true
    (List.for_all (fun e -> e.Slack.e_slack >= 0) entries);
  (* the critical filter keeps the tight ones *)
  let critical = Slack.critical report.Verifier.r_eval ~below_ns:100.0 in
  Alcotest.(check int) "all below a huge bound" (List.length entries) (List.length critical)

let test_slack_min_pulse () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  let ck = Netlist.signal nl "CK .P(0,0)2-3" in
  ignore
    (Netlist.add nl
       (Primitive.Min_pulse_width { high = Timebase.ps_of_ns 4.0; low = 0 })
       ~inputs:[ Netlist.conn ck ] ~output:None);
  let ev = Eval.create nl in
  Eval.run ev;
  match Slack.compute ev with
  | [ e ] ->
    Alcotest.(check bool) "min-high kind" true (e.Slack.e_kind = Slack.Min_high);
    (* 6.25 ns pulse against a 4.0 ns requirement *)
    Alcotest.(check int) "slack 2.25" 2_250 e.Slack.e_slack
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l)

(* The slack rows measure what the checkers check.  Per case: a SETUP
   RISE HOLD FALL checker's HOLD rows sit at the falling edges its
   check pairs with its rising ones, and every set-up, hold or
   minimum-width verdict has a negative row with the same instance,
   kind and AT. *)
let example_netlist name =
  let src = In_channel.with_open_bin ("../examples/" ^ name) In_channel.input_all in
  match Scald_sdl.Expander.load src with
  | Ok e -> e.Scald_sdl.Expander.e_netlist
  | Error m -> Alcotest.fail m

let slack_kind = function
  | Check.Setup_violation -> Some Slack.Setup
  | Check.Hold_violation -> Some Slack.Hold
  | Check.Min_high_width -> Some Slack.Min_high
  | Check.Min_low_width -> Some Slack.Min_low
  | _ -> None

(* Returns how many SETUP RISE HOLD FALL checkers were measured. *)
let check_slack_follows_checks name nl cases =
  let ev = Eval.create nl in
  let rise_fall = ref 0 in
  List.iteri
    (fun k case ->
      let what s = Printf.sprintf "%s case %d: %s" name k s in
      Eval.run ~case:(Case_analysis.resolve nl case) ev;
      let rows = Slack.compute ev in
      Netlist.iter_insts nl (fun inst ->
          match inst.Netlist.i_prim with
          | Primitive.Setup_rise_hold_fall_check _ ->
            incr rise_fall;
            let ck = Eval.input_waveform ev 0 inst 1 in
            let falls =
              List.filter_map
                (fun r ->
                  Option.map
                    (fun f -> Timebase.wrap (Netlist.timebase nl) f.Waveform.w_stop)
                    (Check.pair_falling (Waveform.period ck) r (Waveform.falling_windows ck)))
                (Waveform.rising_windows ck)
            in
            let holds =
              List.filter_map
                (fun e ->
                  if e.Slack.e_inst = inst.Netlist.i_name && e.Slack.e_kind = Slack.Hold
                  then Some e.Slack.e_at
                  else None)
                rows
            in
            Alcotest.(check (list int))
              (what (inst.Netlist.i_name ^ " HOLD rows at the falling edges"))
              (List.sort compare falls) (List.sort compare holds)
          | _ -> ());
      List.iter
        (fun (v : Check.t) ->
          match slack_kind v.Check.v_kind, v.Check.v_at with
          | Some kind, Some at ->
            Alcotest.(check bool)
              (what (Format.asprintf "negative row for %a" Check.pp v))
              true
              (List.exists
                 (fun e ->
                   e.Slack.e_inst = v.Check.v_inst && e.Slack.e_kind = kind
                   && e.Slack.e_at = at && e.Slack.e_slack < 0)
                 rows)
          | _ -> ())
        (Eval.check ev))
    (match cases with [] -> [ [] ] | cs -> cs);
  !rise_fall

let test_slack_follows_checks () =
  Alcotest.(check bool) "register_file has a rise/hold-fall checker" true
    (check_slack_follows_checks "register_file" (example_netlist "register_file.sdl") []
    > 0);
  let cases =
    Case_analysis.parse_exn
      (In_channel.with_open_bin "../examples/s1_subset.cases" In_channel.input_all)
  in
  Alcotest.(check bool) "s1_subset has a rise/hold-fall checker" true
    (check_slack_follows_checks "s1_subset" (example_netlist "s1_subset.sdl") cases > 0)

(* ---- timing diagram ------------------------------------------------------------- *)

let test_diagram_row () =
  let period = Timebase.ps_of_ns 50.0 in
  let pulse =
    Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
      [ (Timebase.ps_of_ns 12.5, Timebase.ps_of_ns 25.) ]
  in
  let s = Format.asprintf "%a" (Timing_diagram.pp_waveform ~columns:8) pulse in
  Alcotest.(check string) "low-high-low" "__^^____" s

let test_diagram_skew_marks () =
  let period = Timebase.ps_of_ns 50.0 in
  let w =
    Waveform.with_skew ~early:(-3_000) ~late:3_000
      (Waveform.of_intervals ~period ~inside:Tvalue.V1 ~outside:Tvalue.V0
         [ (Timebase.ps_of_ns 12.5, Timebase.ps_of_ns 25.) ])
  in
  let s = Format.asprintf "%a" (Timing_diagram.pp_waveform ~columns:25) w in
  Alcotest.(check bool) "rise mark present" true (String.contains s '/');
  Alcotest.(check bool) "fall mark present" true (String.contains s '\\')

let test_diagram_full () =
  let _, ev = evaluated () in
  let s = Format.asprintf "%a" (fun ppf -> Timing_diagram.pp ~columns:40 ppf) ev in
  Alcotest.(check bool) "has ADR row" true (contains s "ADR<0:3>");
  Alcotest.(check bool) "has marks" true (String.contains s '=')

let test_diagram_selected_signals () =
  let _, ev = evaluated () in
  let s =
    Format.asprintf "%a"
      (fun ppf -> Timing_diagram.pp ~columns:40 ~signals:[ "WRITE EN" ] ppf)
      ev
  in
  Alcotest.(check bool) "only the requested signal" true
    (contains s "WRITE EN" && not (contains s "ADR<0:3>"))

(* ---- VCD -------------------------------------------------------------------------- *)

let test_vcd_structure () =
  let _, ev = evaluated () in
  let s = Vcd.to_string ev in
  Alcotest.(check bool) "header" true (contains s "$timescale 1ps $end");
  Alcotest.(check bool) "ADR declared" true (contains s "ADR<0:3>[4]");
  Alcotest.(check bool) "dumpvars" true (contains s "$dumpvars");
  Alcotest.(check bool) "final timestamp at the period" true (contains s "#50000");
  (* spaces in names are sanitized *)
  Alcotest.(check bool) "sanitized name" true (contains s "WRITE_EN")

let test_vcd_value_mapping () =
  let nl =
    Netlist.create
      (Timebase.make ~period_ns:50.0 ~clock_unit_ns:6.25)
      ~default_wire_delay:Delay.zero
  in
  ignore (Netlist.signal nl "D .S2-6");
  let ev = Eval.create nl in
  Eval.run ev;
  let s = Vcd.to_string ev in
  (* the stable region maps to z, the changing region to x *)
  Alcotest.(check bool) "has z" true (String.contains s 'z');
  Alcotest.(check bool) "has x" true (String.contains s 'x')

let suite =
  [
    Alcotest.test_case "slack sorted and signed" `Quick test_slack_sorted_and_signed;
    Alcotest.test_case "slack matches fig 3-11" `Quick test_slack_values_match_fig_3_11;
    Alcotest.test_case "slack on clean design" `Quick test_slack_on_clean_design;
    Alcotest.test_case "slack min pulse" `Quick test_slack_min_pulse;
    Alcotest.test_case "slack rows follow the checks" `Quick test_slack_follows_checks;
    Alcotest.test_case "diagram row" `Quick test_diagram_row;
    Alcotest.test_case "diagram skew marks" `Quick test_diagram_skew_marks;
    Alcotest.test_case "diagram full" `Quick test_diagram_full;
    Alcotest.test_case "diagram selected signals" `Quick test_diagram_selected_signals;
    Alcotest.test_case "vcd structure" `Quick test_vcd_structure;
    Alcotest.test_case "vcd value mapping" `Quick test_vcd_value_mapping;
  ]
