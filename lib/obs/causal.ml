open Scald_core

type origin = Asserted | Case_assigned | Feedback of int | Unexplained | Settled

type step = { st_net : int; st_at : Timebase.ps; st_view : (int * int) option }

type chain = {
  c_net : int;
  c_value : Waveform.t;
  c_origin : origin;
  c_steps : step list;
}

type explanation = {
  x_violation : Check.t;
  x_case : Case_analysis.case;
  x_corner : Corner.t;
  x_signal : chain option;
  x_clock : chain option;
}

(* The latest instant of [lo, hi] inside window [w], modulo the period
   [p]. *)
let latest_in p (w : Waveform.window) lo hi =
  let len = w.w_stop - w.w_start in
  let past = Timebase.wrap_period p (hi - w.w_start) in
  let s = if len >= p || past <= len then hi else hi - (past - len) in
  if s >= lo then Some s else None

(* The instant of the windows nearest [at]: [at] itself inside one, else
   the closest window edge, the earliest instant on a tie. *)
let nearest p at windows =
  let candidate (w : Waveform.window) =
    let len = w.w_stop - w.w_start and past = Timebase.wrap_period p (at - w.w_start) in
    if past <= len then (0, at)
    else if past - len <= p - past then (past - len, Timebase.wrap_period p w.w_stop)
    else (p - past, Timebase.wrap_period p w.w_start)
  in
  match List.sort compare (List.map candidate windows) with (_, t) :: _ -> Some t | [] -> None

(* When input [i] may change, as [inst] sees it: a register moves only
   on its clock's rising edges. *)
let windows ev (inst : Netlist.inst) i =
  let wf = Eval.input_waveform ev 0 inst i in
  match inst.i_prim with
  | Primitive.Reg _ when i = 1 -> Waveform.rising_windows wf
  | _ -> Waveform.change_windows wf

(* A 2 MUX's SELDELAY, at the reference corner. *)
let select_extra ev = function
  | Primitive.Mux2 { select_extra; _ } ->
    Delay.scale (Eval.corners ev).(0).Corner.delay_scale select_extra
  | _ -> Delay.zero

(* Whether a change of input [i] at instant [s] can reach the output. *)
let passes ev (inst : Netlist.inst) i s =
  let value_at wf = Waveform.value_at (Waveform.materialize wf) s in
  match inst.i_prim with
  | Primitive.Gate _ | Primitive.Buf _ -> true
  | Primitive.Mux2 _ -> (
    let sel = Eval.input_waveform ev 0 inst 2 in
    match value_at (Waveform.apply_delay (select_extra ev inst.i_prim) sel) with
    | Tvalue.V0 -> i <> 1
    | Tvalue.V1 -> i <> 0
    | _ -> true)
  | Primitive.Reg _ -> i > 0
  | Primitive.Latch _ -> i > 0 || value_at (Eval.input_waveform ev 0 inst 1) <> Tvalue.V0
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
  | Primitive.Min_pulse_width _ | Primitive.Const _ ->
    false

(* The input of [inst] whose change explains its output changing at [t],
   seen through [wire]: the latest instant, then the lowest index. *)
let cause ev (inst : Netlist.inst) t wire =
  let p = Timebase.period (Netlist.timebase (Eval.netlist ev)) in
  let best = ref None in
  Array.iteri
    (fun i _ ->
      let d = Delay.add (Eval.element_delay ev 0 inst) wire in
      let d = if i = 2 then Delay.add d (select_extra ev inst.i_prim) else d in
      List.iter
        (fun w ->
          match latest_in p w (t - d.Delay.dmax) (t - d.Delay.dmin), !best with
          | Some s, Some (_, b) when b >= s -> ()
          | Some s, _ -> if passes ev inst i s then best := Some (i, s)
          | None, _ -> ())
        (windows ev inst i))
    inst.i_inputs;
  Option.map (fun (i, s) -> (i, Timebase.wrap_period p s)) !best

(* Walk back from [step]; [later] holds the steps after it, in order. *)
let rec walk ev assigned step later =
  let nl = Eval.netlist ev in
  let steps = step :: later in
  match (Netlist.net nl step.st_net).n_driver with
  | None -> ((if List.mem step.st_net assigned then Case_assigned else Asserted), steps)
  | Some d -> (
    let inst = Netlist.inst nl d in
    let wire (c, j) = Eval.wire_delay ev 0 (Netlist.inst nl c) j in
    match cause ev inst step.st_at (Option.fold ~none:Delay.zero ~some:wire step.st_view) with
    | None -> (Unexplained, steps)
    | Some (i, s) ->
      let m = inst.i_inputs.(i).c_net in
      if List.exists (fun st -> st.st_net = m) steps then (Feedback m, steps)
      else walk ev assigned { st_net = m; st_at = s; st_view = Some (d, i) } steps)

(* The violation's checker and its input reading net [id].  Instance
   names repeat across macro expansions, so it is the instance of that
   name, in the net's fanout, that reads the violation's signal and
   clock. *)
let checker nl (v : Check.t) id =
  let nets = List.filter_map (Netlist.find nl) (v.v_signal :: Option.to_list v.v_clock) in
  List.find_map
    (fun i ->
      let inst = Netlist.inst nl i in
      let input n = Array.find_index (fun (c : Netlist.conn) -> c.c_net = n) inst.i_inputs in
      if inst.i_name = v.v_inst && List.for_all (fun n -> input n <> None) nets then
        Option.map (fun j -> (i, j)) (input id)
      else None)
    (Netlist.fanout (Netlist.net nl id))

(* The chain of signal [name] as the violation's checker sees it; a net
   checked against its own assertion is read off its own value. *)
let chain ev assigned (v : Check.t) name =
  let nl = Eval.netlist ev in
  Option.map
    (fun id ->
      let view =
        if v.v_kind = Check.Stable_assertion_violation then None else checker nl v id
      in
      let seen =
        match view with
        | Some (c, j) -> Eval.input_waveform ev 0 (Netlist.inst nl c) j
        | None -> Eval.value ev id
      in
      let at = Option.value v.v_at ~default:0 in
      let origin, steps =
        match nearest (Waveform.period seen) at (Waveform.change_windows seen) with
        | None -> (Settled, [])
        | Some t -> walk ev assigned { st_net = id; st_at = t; st_view = view } []
      in
      { c_net = id; c_value = Eval.value ev id; c_origin = origin; c_steps = steps })
    (Netlist.find nl name)

(* [r_violations] is the union of the cases' verdicts, deduplicated in
   case order: walking the cases in order and keeping each violation's
   first sighting meets every violation in its first case, in listing
   order. *)
let explain (r : Verifier.report) =
  let nl = Eval.netlist r.r_eval in
  let ev = Eval.create ~sched:(Eval.sched r.r_eval) nl in
  let seen = Hashtbl.create 64 in
  let first v = (not (Hashtbl.mem seen v)) && (Hashtbl.add seen v (); true) in
  List.concat_map
    (fun (c : Verifier.case_result) ->
      match List.filter first c.cr_violations with
      | [] -> []
      | fresh ->
        let mapping = Case_analysis.resolve nl c.cr_case in
        Eval.run ~case:mapping ev;
        let chain = chain ev (List.map fst mapping) in
        List.map
          (fun (v : Check.t) ->
            {
              x_violation = v;
              x_case = c.cr_case;
              x_corner = (Eval.corners ev).(0);
              x_signal = chain v v.v_signal;
              x_clock = Option.bind v.v_clock (fun ck -> if ck = v.v_signal then None else chain v ck);
            })
          fresh)
    r.r_cases

let pp_chain nl label ppf c =
  let net id = (Netlist.net nl id).Netlist.n_name in
  if c.c_steps = [] then
    Format.fprintf ppf "  %s %s: no transition window to walk back from@," label (net c.c_net)
  else begin
    Format.fprintf ppf "  %s %s (root cause first):@," label (net c.c_net);
    (match c.c_origin with
    | Feedback m -> Format.fprintf ppf "    (feedback: %s is already on the chain)@," (net m)
    | Unexplained -> Format.fprintf ppf "    (no input of the first driver changes in time)@,"
    | Asserted | Case_assigned | Settled -> ());
    List.iter
      (fun s ->
        let source, prim =
          match (Netlist.net nl s.st_net).n_driver with
          | Some d ->
            let inst = Netlist.inst nl d in
            (inst.i_name, Primitive.mnemonic inst.i_prim)
          | None -> ((if c.c_origin = Case_assigned then "(case-assigned)" else "(asserted)"), "")
        in
        Format.fprintf ppf "    %-24s %-16s -> %-24s at %a ns@," source prim (net s.st_net)
          Timebase.pp_ns s.st_at)
      c.c_steps
  end;
  Format.fprintf ppf "      value %s: %a@," (net c.c_net) Waveform.pp c.c_value

let pp_explanation nl ppf x =
  Format.fprintf ppf "@[<v>EXPLAIN %a@," Check.pp x.x_violation;
  Format.fprintf ppf "  case: %s   corner: %a@,"
    (if x.x_case = [] then "none" else Format.asprintf "%a" Case_analysis.pp x.x_case)
    Corner.pp x.x_corner;
  Option.iter (pp_chain nl "signal" ppf) x.x_signal;
  Option.iter (pp_chain nl "clock" ppf) x.x_clock;
  Format.fprintf ppf "@]"

let pp_listing ppf (r : Verifier.report) =
  Format.fprintf ppf "@[<v>CAUSAL VIOLATION TRACES@,";
  (match explain r with
  | [] -> Format.fprintf ppf "(no violations to explain)@,"
  | xs -> List.iter (Format.fprintf ppf "%a@," (pp_explanation (Eval.netlist r.r_eval))) xs);
  Format.fprintf ppf "@]"
