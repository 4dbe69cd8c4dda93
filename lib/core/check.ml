type kind =
  | Setup_violation
  | Hold_violation
  | Stable_high_violation
  | Min_high_width
  | Min_low_width
  | Hazard
  | Stable_assertion_violation
  | Undefined_clock
  | Reflection_hazard
  | No_convergence

type t = {
  v_kind : kind;
  v_inst : string;
  v_signal : string;
  v_clock : string option;
  v_required : Timebase.ps;
  v_actual : Timebase.ps option;
  v_at : Timebase.ps option;
  v_detail : string;
}

let kind_name = function
  | Setup_violation -> "SETUP TIME VIOLATED"
  | Hold_violation -> "HOLD TIME VIOLATED"
  | Stable_high_violation -> "INPUT CHANGING WHILE CLOCK TRUE"
  | Min_high_width -> "MINIMUM HIGH PULSE WIDTH VIOLATED"
  | Min_low_width -> "MINIMUM LOW PULSE WIDTH VIOLATED"
  | Hazard -> "POSSIBLE HAZARD ON GATED CLOCK"
  | Stable_assertion_violation -> "STABLE ASSERTION VIOLATED"
  | Undefined_clock -> "CLOCK INPUT UNDEFINED"
  | Reflection_hazard -> "POSSIBLE REFLECTIONS ON EDGE-SENSITIVE RUN"
  | No_convergence -> "EVALUATION DID NOT CONVERGE"

let pp ppf v =
  Format.fprintf ppf "%s: %s" v.v_inst (kind_name v.v_kind);
  Format.fprintf ppf "  SIGNAL = %s" v.v_signal;
  (match v.v_clock with None -> () | Some c -> Format.fprintf ppf "  CLOCK = %s" c);
  Format.fprintf ppf "  REQUIRED = %a NS" Timebase.pp_ns v.v_required;
  (match v.v_actual with
  | None -> ()
  | Some a ->
    Format.fprintf ppf "  ACTUAL = %a NS (MISSED BY %a NS)" Timebase.pp_ns a Timebase.pp_ns
      (v.v_required - a));
  (match v.v_at with None -> () | Some t -> Format.fprintf ppf "  AT %a NS" Timebase.pp_ns t);
  if v.v_detail <> "" then Format.fprintf ppf "  [%s]" v.v_detail

(* Margin between the start of the stable interval containing [t] and
   [t] itself; [None] when the signal is not even stable at [t]. *)
let setup_margin data t =
  match Waveform.stable_interval_around data t with
  | None -> None
  | Some (s, width) ->
    if width >= Waveform.period data then Some max_int
    else Some (Timebase.wrap_period (Waveform.period data) (t - s))

let hold_margin data t =
  match Waveform.stable_interval_around data t with
  | None -> None
  | Some (s, width) ->
    if width >= Waveform.period data then Some max_int
    else Some (Timebase.wrap_period (Waveform.period data) (s + width - t))

let clamp_margin required = function
  | None -> None
  | Some m -> Some (min m required)

let undefined_clock ~inst ~signal ~clock ck =
  if
    List.for_all
      (fun (v, _) -> match v with Tvalue.Unknown -> true | _ -> false)
      (Waveform.segments ck)
  then
    [
      {
        v_kind = Undefined_clock;
        v_inst = inst;
        v_signal = signal;
        v_clock = Some clock;
        v_required = 0;
        v_actual = None;
        v_at = None;
        v_detail = "clock input is undefined over the whole cycle";
      };
    ]
  else []

let check_setup_hold ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  let windows = Waveform.rising_windows ck in
  if windows = [] then undefined_clock ~inst ~signal ~clock ck
  else
    List.concat_map
      (fun { Waveform.w_start = ws; w_stop = we } ->
        let win = we - ws in
        let setup_ok = Waveform.stable_over data ~start:(ws - setup) ~width:(setup + win) in
        let hold_ok = Waveform.stable_over data ~start:ws ~width:(win + hold) in
        let mk kind required actual =
          {
            v_kind = kind;
            v_inst = inst;
            v_signal = signal;
            v_clock = Some clock;
            v_required = required;
            v_actual = actual;
            v_at = Some (Timebase.wrap_period (Waveform.period ck) ws);
            v_detail = "";
          }
        in
        let setup_err =
          if setup_ok then []
          else [ mk Setup_violation setup (clamp_margin setup (setup_margin data ws)) ]
        in
        let hold_err =
          if hold_ok then []
          else [ mk Hold_violation hold (clamp_margin hold (hold_margin data we)) ]
        in
        setup_err @ hold_err)
      windows

let pair_falling period rising fallings =
  (* The first falling window whose start follows the rising window's
     start (modulo the period). *)
  match fallings with
  | [] -> None
  | _ ->
    let dist f = Timebase.wrap_period period (f.Waveform.w_start - rising.Waveform.w_start) in
    let best =
      List.fold_left
        (fun acc f ->
          match acc with
          | None -> Some f
          | Some g -> if dist f < dist g then Some f else acc)
        None fallings
    in
    best

let check_setup_rise_hold_fall ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  let rising = Waveform.rising_windows ck in
  let falling = Waveform.falling_windows ck in
  if rising = [] then undefined_clock ~inst ~signal ~clock ck
  else
    let period = Waveform.period ck in
    List.concat_map
      (fun r ->
        match pair_falling period r falling with
        | None -> []
        | Some f ->
          let high = Timebase.wrap_period period (f.Waveform.w_stop - r.Waveform.w_start) in
          let mk kind required actual at =
            {
              v_kind = kind;
              v_inst = inst;
              v_signal = signal;
              v_clock = Some clock;
              v_required = required;
              v_actual = actual;
              v_at = Some (Timebase.wrap_period period at);
              v_detail = "";
            }
          in
          let setup_ok =
            Waveform.stable_over data ~start:(r.Waveform.w_start - setup) ~width:setup
          in
          let high_ok = Waveform.stable_over data ~start:r.Waveform.w_start ~width:high in
          let hold_ok = Waveform.stable_over data ~start:f.Waveform.w_stop ~width:hold in
          List.concat
            [
              (if setup_ok then []
               else
                 [
                   mk Setup_violation setup
                     (clamp_margin setup (setup_margin data r.Waveform.w_start))
                     r.Waveform.w_start;
                 ]);
              (if high_ok then [] else [ mk Stable_high_violation high None r.Waveform.w_start ]);
              (if hold_ok then []
               else
                 [
                   mk Hold_violation hold
                     (clamp_margin hold (hold_margin data f.Waveform.w_stop))
                     f.Waveform.w_stop;
                 ]);
            ])
      rising

let check_min_pulse_width ~inst ~signal ~high ~low wf =
  let period = Waveform.period wf in
  let mk kind required actual at =
    {
      v_kind = kind;
      v_inst = inst;
      v_signal = signal;
      v_clock = None;
      v_required = required;
      v_actual = Some actual;
      v_at = Some (Timebase.wrap_period period at);
      v_detail = "";
    }
  in
  let check_runs kind required v =
    if required <= 0 then []
    else
      Waveform.pulse_intervals v wf
      |> List.filter_map (fun (s, width) ->
             if width >= period then None
             else if width < required then Some (mk kind required width s)
             else None)
  in
  check_runs Min_high_width high Tvalue.V1 @ check_runs Min_low_width low Tvalue.V0

let check_stable_while ~inst ~signal ~clock ~gate_wf wf =
  let asserted =
    Waveform.intervals_where (fun v -> not (Tvalue.equal v Tvalue.V0)) gate_wf
  in
  List.filter_map
    (fun (s, width) ->
      if Waveform.stable_over wf ~start:s ~width then None
      else
        Some
          {
            v_kind = Hazard;
            v_inst = inst;
            v_signal = signal;
            v_clock = Some clock;
            v_required = width;
            v_actual = None;
            v_at = Some s;
            v_detail = "control input may change while the clock is asserted";
          })
    asserted

let check_stable_assertion ~signal ~tb assertion wf =
  match assertion.Assertion.kind with
  | Assertion.Precision_clock | Assertion.Nonprecision_clock -> []
  | Assertion.Stable ->
    Assertion.intervals tb assertion
    |> List.filter_map (fun (s, e) ->
           let at, width = Timebase.modular_range ~period:(Timebase.period tb) (s, e) in
           if width = 0 then None
           else if Waveform.stable_over wf ~start:at ~width then None
           else
             Some
               {
                 v_kind = Stable_assertion_violation;
                 v_inst = signal;
                 v_signal = signal;
                 v_clock = None;
                 v_required = width;
                 v_actual = None;
                 v_at = Some at;
                 v_detail =
                   Printf.sprintf "signal asserted stable from %.1f to %.1f ns"
                     (Timebase.ns_of_ps s) (Timebase.ns_of_ps e);
               })
