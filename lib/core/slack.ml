type constraint_kind = Setup | Hold | Min_high | Min_low

type entry = {
  e_inst : string;
  e_signal : string;
  e_clock : string option;
  e_kind : constraint_kind;
  e_required : Timebase.ps;
  e_slack : Timebase.ps;
  e_at : Timebase.ps;
}

let kind_name = function
  | Setup -> "SETUP"
  | Hold -> "HOLD"
  | Min_high -> "MIN HIGH WIDTH"
  | Min_low -> "MIN LOW WIDTH"

let wrap p x =
  let r = x mod p in
  if r < 0 then r + p else r

(* Margin of stability before an instant: how long the signal has
   already been stable when [t] arrives.  Bottoms out at 0 when the
   signal is not stable at [t]. *)
let margin_before data t =
  match Waveform.stable_interval_around data t with
  | None -> 0
  | Some (s, width) ->
    if width >= Waveform.period data then Waveform.period data
    else wrap (Waveform.period data) (t - s)

let margin_after data t =
  match Waveform.stable_interval_around data t with
  | None -> 0
  | Some (s, width) ->
    if width >= Waveform.period data then Waveform.period data
    else wrap (Waveform.period data) (s + width - t)

(* The data must be stable through the whole edge window as well; when
   it is not, the constraint is missed outright. *)
let window_slack ~required ~margin ~window_ok =
  if window_ok then margin - required else -required

(* One row of a data checker against its clock, at cycle time [at]. *)
let clock_row ~inst ~signal ~clock ~p kind required slack at =
  {
    e_inst = inst;
    e_signal = signal;
    e_clock = Some clock;
    e_kind = kind;
    e_required = required;
    e_slack = slack;
    e_at = wrap p at;
  }

let setup_hold_entries ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  let row = clock_row ~inst ~signal ~clock ~p:(Waveform.period ck) in
  Waveform.rising_windows ck
  |> List.concat_map (fun { Waveform.w_start = ws; w_stop = we } ->
         let window_ok = Waveform.stable_over data ~start:ws ~width:(we - ws) in
         [
           row Setup setup
             (window_slack ~required:setup ~margin:(margin_before data ws) ~window_ok)
             ws;
           row Hold hold
             (window_slack ~required:hold ~margin:(margin_after data we) ~window_ok)
             ws;
         ])

(* SETUP RISE HOLD FALL, measured the way {!Check.check_setup_rise_hold_fall}
   checks it: set-up before the rising edge, hold after the falling edge
   it pairs with, which is that row's AT.  A rising window with no
   falling one to pair is not checked, so it has no rows. *)
let rise_fall_entries ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  let p = Waveform.period ck in
  let row = clock_row ~inst ~signal ~clock ~p in
  let falling = Waveform.falling_windows ck in
  Waveform.rising_windows ck
  |> List.concat_map (fun r ->
         match Check.pair_falling p r falling with
         | None -> []
         | Some f ->
           let rise = r.Waveform.w_start and fall = f.Waveform.w_stop in
           [
             row Setup setup (margin_before data rise - setup) rise;
             row Hold hold (margin_after data fall - hold) fall;
           ])

let pulse_entries ~inst ~signal ~required ~kind ~value wf =
  if required <= 0 then []
  else
    let p = Waveform.period wf in
    Waveform.pulse_intervals value wf
    |> List.filter_map (fun (s, width) ->
           if width >= p then None
           else
             Some
               {
                 e_inst = inst;
                 e_signal = signal;
                 e_clock = None;
                 e_kind = kind;
                 e_required = required;
                 e_slack = width - required;
                 e_at = wrap p s;
               })

let entries_of_inst ev lane (inst : Netlist.inst) =
  let nl = Eval.netlist ev in
  let net_name i = (Netlist.net nl inst.Netlist.i_inputs.(i).Netlist.c_net).Netlist.n_name in
  match inst.Netlist.i_prim with
  | Primitive.Setup_hold_check { setup; hold } ->
    let data = Eval.input_waveform ev lane inst 0
    and ck = Eval.input_waveform ev lane inst 1 in
    setup_hold_entries ~inst:inst.Netlist.i_name ~signal:(net_name 0) ~clock:(net_name 1)
      ~setup ~hold ~data ~ck
  | Primitive.Setup_rise_hold_fall_check { setup; hold } ->
    let data = Eval.input_waveform ev lane inst 0
    and ck = Eval.input_waveform ev lane inst 1 in
    rise_fall_entries ~inst:inst.Netlist.i_name ~signal:(net_name 0) ~clock:(net_name 1)
      ~setup ~hold ~data ~ck
  | Primitive.Min_pulse_width { high; low } ->
    let wf = Eval.input_waveform ev lane inst 0 in
    pulse_entries ~inst:inst.Netlist.i_name ~signal:(net_name 0) ~required:high
      ~kind:Min_high ~value:Tvalue.V1 wf
    @ pulse_entries ~inst:inst.Netlist.i_name ~signal:(net_name 0) ~required:low
        ~kind:Min_low ~value:Tvalue.V0 wf
  | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _ | Primitive.Reg _
  | Primitive.Latch _ | Primitive.Const _ ->
    []

let compute ?(lane = 0) ev =
  let acc = ref [] in
  Netlist.iter_insts (Eval.netlist ev) (fun inst ->
      acc := entries_of_inst ev lane inst :: !acc);
  List.concat !acc |> List.sort (fun a b -> compare a.e_slack b.e_slack)

let worst ev = match compute ev with [] -> None | e :: _ -> Some e

let critical ev ~below_ns =
  let bound = Timebase.ps_of_ns below_ns in
  List.filter (fun e -> e.e_slack < bound) (compute ev)

let pp ppf entries =
  Format.fprintf ppf "@[<v>SLACK REPORT (most critical first)@,";
  (* Value cells are [%8s ns] = 11 characters, so headers are %11s/%10s:
     multi-digit (or negative multi-digit) slacks stay in column instead
     of shoving everything to their right out of alignment. *)
  Format.fprintf ppf "  %-32s %-24s %-16s %11s %11s %10s@," "CHECK" "SIGNAL" "CONSTRAINT"
    "REQUIRED" "SLACK" "AT";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-32s %-24s %-16s %8s ns %8s ns %7s ns%s@,"
        e.e_inst e.e_signal (kind_name e.e_kind)
        (Format.asprintf "%a" Timebase.pp_ns e.e_required)
        (Format.asprintf "%a" Timebase.pp_ns e.e_slack)
        (Format.asprintf "%a" Timebase.pp_ns e.e_at)
        (if e.e_slack < 0 then "  ** VIOLATED **" else ""))
    entries;
  Format.fprintf ppf "@]"
