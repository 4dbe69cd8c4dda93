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

(* Each checker walks its windows or intervals with a recursive helper
   that builds a verdict only for a violation, so a clean check
   allocates nothing beyond the window list the kernel returns. *)

let violation kind ~inst ~signal ~clock ~required ~actual ~at ~detail =
  {
    v_kind = kind;
    v_inst = inst;
    v_signal = signal;
    v_clock = clock;
    v_required = required;
    v_actual = actual;
    v_at = at;
    v_detail = detail;
  }

let rec setup_hold_windows ~inst ~signal ~clock ~setup ~hold ~data ~period = function
  | [] -> []
  | { Waveform.w_start = ws; w_stop = we } :: rest ->
    let acc = setup_hold_windows ~inst ~signal ~clock ~setup ~hold ~data ~period rest in
    let win = we - ws in
    let acc =
      if Waveform.stable_over data ~start:ws ~width:(win + hold) then acc
      else
        violation Hold_violation ~inst ~signal ~clock:(Some clock) ~required:hold
          ~actual:(clamp_margin hold (hold_margin data we))
          ~at:(Some (Timebase.wrap_period period ws)) ~detail:""
        :: acc
    in
    if Waveform.stable_over data ~start:(ws - setup) ~width:(setup + win) then acc
    else
      violation Setup_violation ~inst ~signal ~clock:(Some clock) ~required:setup
        ~actual:(clamp_margin setup (setup_margin data ws))
        ~at:(Some (Timebase.wrap_period period ws)) ~detail:""
      :: acc

let check_setup_hold ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  match Waveform.rising_windows ck with
  | [] -> undefined_clock ~inst ~signal ~clock ck
  | windows ->
    setup_hold_windows ~inst ~signal ~clock ~setup ~hold ~data ~period:(Waveform.period ck)
      windows

let rec nearest_falling period rising best d = function
  | [] -> best
  | f :: rest ->
    let df = Timebase.wrap_period period (f.Waveform.w_start - rising.Waveform.w_start) in
    if df < d then nearest_falling period rising (Some f) df rest
    else nearest_falling period rising best d rest

(* The first falling window whose start follows the rising window's
   start (modulo the period). *)
let pair_falling period rising fallings = nearest_falling period rising None max_int fallings

let rec setup_rise_hold_fall_windows ~inst ~signal ~clock ~setup ~hold ~data ~period ~falling =
  function
  | [] -> []
  | r :: rest -> (
    let acc =
      setup_rise_hold_fall_windows ~inst ~signal ~clock ~setup ~hold ~data ~period ~falling rest
    in
    match pair_falling period r falling with
    | None -> acc
    | Some f ->
      let rs = r.Waveform.w_start and fe = f.Waveform.w_stop in
      let high = Timebase.wrap_period period (fe - rs) in
      let acc =
        if Waveform.stable_over data ~start:fe ~width:hold then acc
        else
          violation Hold_violation ~inst ~signal ~clock:(Some clock) ~required:hold
            ~actual:(clamp_margin hold (hold_margin data fe))
            ~at:(Some (Timebase.wrap_period period fe)) ~detail:""
          :: acc
      in
      let acc =
        if Waveform.stable_over data ~start:rs ~width:high then acc
        else
          violation Stable_high_violation ~inst ~signal ~clock:(Some clock) ~required:high
            ~actual:None
            ~at:(Some (Timebase.wrap_period period rs)) ~detail:""
          :: acc
      in
      if Waveform.stable_over data ~start:(rs - setup) ~width:setup then acc
      else
        violation Setup_violation ~inst ~signal ~clock:(Some clock) ~required:setup
          ~actual:(clamp_margin setup (setup_margin data rs))
          ~at:(Some (Timebase.wrap_period period rs)) ~detail:""
        :: acc)

let check_setup_rise_hold_fall ~inst ~signal ~clock ~setup ~hold ~data ~ck =
  match Waveform.rising_windows ck with
  | [] -> undefined_clock ~inst ~signal ~clock ck
  | rising ->
    setup_rise_hold_fall_windows ~inst ~signal ~clock ~setup ~hold ~data
      ~period:(Waveform.period ck) ~falling:(Waveform.falling_windows ck) rising

let rec narrow_pulses ~inst ~signal ~kind ~required ~period = function
  | [] -> []
  | (s, width) :: rest ->
    let acc = narrow_pulses ~inst ~signal ~kind ~required ~period rest in
    if width >= period || width >= required then acc
    else
      violation kind ~inst ~signal ~clock:None ~required ~actual:(Some width)
        ~at:(Some (Timebase.wrap_period period s)) ~detail:""
      :: acc

let check_min_pulse_width ~inst ~signal ~high ~low wf =
  let period = Waveform.period wf in
  let pulses kind required v =
    if required <= 0 then []
    else narrow_pulses ~inst ~signal ~kind ~required ~period (Waveform.pulse_intervals v wf)
  in
  pulses Min_high_width high Tvalue.V1 @ pulses Min_low_width low Tvalue.V0

let rec unstable_while ~inst ~signal ~clock wf = function
  | [] -> []
  | (s, width) :: rest ->
    let acc = unstable_while ~inst ~signal ~clock wf rest in
    if Waveform.stable_over wf ~start:s ~width then acc
    else
      violation Hazard ~inst ~signal ~clock:(Some clock) ~required:width ~actual:None
        ~at:(Some s) ~detail:"control input may change while the clock is asserted"
      :: acc

let asserted v = not (Tvalue.equal v Tvalue.V0)

let check_stable_while ~inst ~signal ~clock ~gate_wf wf =
  unstable_while ~inst ~signal ~clock wf (Waveform.intervals_where asserted gate_wf)

let rec unstable_ranges ~signal ~period wf = function
  | [] -> []
  | ((s, e) as r) :: rest ->
    let acc = unstable_ranges ~signal ~period wf rest in
    let at, width = Timebase.modular_range ~period r in
    if width = 0 || Waveform.stable_over wf ~start:at ~width then acc
    else
      violation Stable_assertion_violation ~inst:signal ~signal ~clock:None ~required:width
        ~actual:None ~at:(Some at)
        ~detail:
          (Printf.sprintf "signal asserted stable from %.1f to %.1f ns" (Timebase.ns_of_ps s)
             (Timebase.ns_of_ps e))
      :: acc

let check_stable_assertion ~signal ~tb assertion wf =
  match assertion.Assertion.kind with
  | Assertion.Precision_clock | Assertion.Nonprecision_clock -> []
  | Assertion.Stable ->
    unstable_ranges ~signal ~period:(Timebase.period tb) wf (Assertion.intervals tb assertion)
