type gate_fn = And | Or | Xor | Chg

type t =
  | Gate of { fn : gate_fn; n_inputs : int; invert : bool; delay : Delay.t }
  | Buf of { invert : bool; delay : Delay.t }
  | Mux2 of { delay : Delay.t; select_extra : Delay.t }
  | Reg of { delay : Delay.t; has_set_reset : bool }
  | Latch of { delay : Delay.t; has_set_reset : bool }
  | Setup_hold_check of { setup : Timebase.ps; hold : Timebase.ps }
  | Setup_rise_hold_fall_check of { setup : Timebase.ps; hold : Timebase.ps }
  | Min_pulse_width of { high : Timebase.ps; low : Timebase.ps }
  | Const of Tvalue.t

let n_inputs = function
  | Gate { n_inputs; _ } -> n_inputs
  | Buf _ -> 1
  | Mux2 _ -> 3
  | Reg { has_set_reset; _ } | Latch { has_set_reset; _ } -> if has_set_reset then 4 else 2
  | Setup_hold_check _ | Setup_rise_hold_fall_check _ -> 2
  | Min_pulse_width _ -> 1
  | Const _ -> 0

let has_output = function
  | Gate _ | Buf _ | Mux2 _ | Reg _ | Latch _ | Const _ -> true
  | Setup_hold_check _ | Setup_rise_hold_fall_check _ | Min_pulse_width _ -> false

let is_checker p = not (has_output p)

let is_gating = function
  | Gate _ | Buf _ | Mux2 _ -> true
  | Reg _ | Latch _ | Setup_hold_check _ | Setup_rise_hold_fall_check _
  | Min_pulse_width _ | Const _ ->
    false

let element_delay = function
  | Gate { delay; _ } | Buf { delay; _ } | Mux2 { delay; _ } | Reg { delay; _ }
  | Latch { delay; _ } ->
    Some delay
  | Setup_hold_check _ | Setup_rise_hold_fall_check _ | Min_pulse_width _ | Const _ ->
    None

let with_element_delay p delay =
  match p with
  | Gate g -> Some (Gate { g with delay })
  | Buf b -> Some (Buf { b with delay })
  | Mux2 m -> Some (Mux2 { m with delay })
  | Reg r -> Some (Reg { r with delay })
  | Latch l -> Some (Latch { l with delay })
  | Setup_hold_check _ | Setup_rise_hold_fall_check _ | Min_pulse_width _ | Const _ ->
    None

let enabling_value = function
  | And -> Tvalue.V1
  | Or | Xor -> Tvalue.V0
  | Chg -> Tvalue.Stable

let gate_step = function
  | And -> Tvalue.land_
  | Or -> Tvalue.lor_
  | Xor -> Tvalue.lxor_
  | Chg -> Tvalue.chg

let gate_fold fn vs = List.fold_left (gate_step fn) (enabling_value fn) vs

(* Each built once, when the module is initialized; a table is
   immutable. *)
let table fn = Waveform.table (gate_step fn)

let and_table = table And

let or_table = table Or

let xor_table = table Xor

let chg_table = table Chg

let gate_table = function
  | And -> and_table
  | Or -> or_table
  | Xor -> xor_table
  | Chg -> chg_table

let input_label p i =
  match p, i with
  | Gate _, _ -> Printf.sprintf "I%d" i
  | Buf _, _ -> "I"
  | Mux2 _, 0 -> "A"
  | Mux2 _, 1 -> "B"
  | Mux2 _, _ -> "S"
  | (Reg _ | Latch _), 0 -> "DATA"
  | Reg _, 1 -> "CLOCK"
  | Latch _, 1 -> "ENABLE"
  | (Reg _ | Latch _), 2 -> "SET"
  | (Reg _ | Latch _), _ -> "RESET"
  | (Setup_hold_check _ | Setup_rise_hold_fall_check _), 0 -> "I"
  | (Setup_hold_check _ | Setup_rise_hold_fall_check _), _ -> "CK"
  | Min_pulse_width _, _ -> "I"
  | Const _, _ -> "?"

let gate_name = function And -> "AND" | Or -> "OR" | Xor -> "XOR" | Chg -> "CHG"

let mnemonic = function
  | Gate { fn; n_inputs; invert; _ } ->
    Printf.sprintf "%d %s%s" n_inputs (if invert then "N" else "") (gate_name fn)
  | Buf { invert = false; _ } -> "BUF"
  | Buf { invert = true; _ } -> "NOT"
  | Mux2 _ -> "2 MUX"
  | Reg { has_set_reset = false; _ } -> "REG"
  | Reg { has_set_reset = true; _ } -> "REG RS"
  | Latch { has_set_reset = false; _ } -> "LATCH"
  | Latch { has_set_reset = true; _ } -> "LATCH RS"
  | Setup_hold_check _ -> "SETUP HOLD CHK"
  | Setup_rise_hold_fall_check _ -> "SETUP RISE HOLD FALL CHK"
  | Min_pulse_width _ -> "MIN PULSE WIDTH"
  | Const v -> (match v with Tvalue.V0 -> "ZERO" | Tvalue.V1 -> "ONE" | _ -> "CONST")

let pp ppf p = Format.pp_print_string ppf (mnemonic p)
