type ps = int

type t = { period : ps; clock_unit : ps }

let max_ns = 1e9

let ps_of_ns ns =
  if Float.is_finite ns && Float.abs ns <= max_ns then int_of_float (Float.round (ns *. 1000.))
  else
    invalid_arg
      (Printf.sprintf "time %g ns is out of range (at most %g ns either way)" ns max_ns)

let ns_of_ps ps = float_of_int ps /. 1000.

(* Within a few ulps of a whole number of ps: the decimal a design
   states reaches here through one parse and one product. *)
let is_whole_ps ns =
  let x = ns *. 1000. in
  Float.abs (x -. Float.round x) <= 8. *. epsilon_float *. Float.abs x

let of_period_ps ~period ~clock_unit =
  if period <= 0 then invalid_arg "Timebase: period must be positive";
  if clock_unit <= 0 then invalid_arg "Timebase: clock unit must be positive";
  { period; clock_unit }

let make ~period_ns ~clock_unit_ns =
  of_period_ps ~period:(ps_of_ns period_ns) ~clock_unit:(ps_of_ns clock_unit_ns)

let period tb = tb.period

let clock_unit tb = tb.clock_unit

let units_per_period tb = float_of_int tb.period /. float_of_int tb.clock_unit

let ps_of_units tb u =
  let ps = u *. float_of_int tb.clock_unit in
  if Float.is_finite ps && Float.abs ps <= max_ns *. 1000. then int_of_float (Float.round ps)
  else
    invalid_arg
      (Printf.sprintf "time %.17g clock units of %g ns is out of range (at most %g ns either way)"
         u (ns_of_ps tb.clock_unit) max_ns)

let units_of_ps tb ps = float_of_int ps /. float_of_int tb.clock_unit

let wrap_period period x =
  let r = x mod period in
  if r < 0 then r + period else r

let wrap tb x = wrap_period tb.period x

let modular_range ~period (start, stop) =
  let d = stop - start in
  (wrap_period period start, if d >= period then period else wrap_period period d)

let pp_ns ppf ps = Format.fprintf ppf "%.1f" (ns_of_ps ps)
