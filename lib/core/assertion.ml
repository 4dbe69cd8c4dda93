type kind = Precision_clock | Nonprecision_clock | Stable

type range =
  | Unit_at of float
  | Between of float * float
  | For_ns of float * float

type t = {
  kind : kind;
  skew_ns : (float * float) option;
  ranges : range list;
  low_active : bool;
}

(* ---- parsing ----------------------------------------------------------- *)

(* A tiny cursor-based scanner; assertion specs are short strings. *)

type cursor = { text : string; mutable pos : int }

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_spaces cur =
  while
    match peek cur with
    | Some (' ' | '\t') -> true
    | Some _ | None -> false
  do
    advance cur
  done

let scan_number cur =
  skip_spaces cur;
  let start = cur.pos in
  (match peek cur with Some '-' -> advance cur | Some _ | None -> ());
  let digits = ref 0 in
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some ('0' .. '9') ->
      incr digits;
      advance cur
    | Some '.' -> advance cur
    | Some _ | None -> continue := false
  done;
  if !digits = 0 then Error (Printf.sprintf "expected a number at position %d" start)
  else
    match float_of_string_opt (String.sub cur.text start (cur.pos - start)) with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "malformed number at position %d" start)

let ( let* ) = Result.bind

(* A time in nanoseconds, bounded like every user-given time. *)
let scan_ns cur =
  let* f = scan_number cur in
  match Timebase.ps_of_ns f with
  | _ -> Ok f
  | exception Invalid_argument m -> Error m

let scan_skew cur =
  skip_spaces cur;
  match peek cur with
  | Some '(' ->
    advance cur;
    let* minus = scan_ns cur in
    skip_spaces cur;
    (match peek cur with
    | Some ',' ->
      advance cur;
      let* plus = scan_ns cur in
      skip_spaces cur;
      (match peek cur with
      | Some ')' ->
        advance cur;
        if minus > 0. then Error "skew: minus component must be <= 0"
        else if plus < 0. then Error "skew: plus component must be >= 0"
        else Ok (Some (minus, plus))
      | Some _ | None -> Error "skew: expected ')'")
    | Some _ | None -> Error "skew: expected ','")
  | Some _ | None -> Ok None

let scan_range cur =
  let* start = scan_number cur in
  skip_spaces cur;
  match peek cur with
  | Some '-' ->
    advance cur;
    let* stop = scan_number cur in
    Ok (Between (start, stop))
  | Some '+' ->
    advance cur;
    let* width = scan_ns cur in
    Ok (For_ns (start, width))
  | Some _ | None -> Ok (Unit_at start)

let rec scan_ranges cur acc =
  let* r = scan_range cur in
  skip_spaces cur;
  match peek cur with
  | Some ',' ->
    advance cur;
    scan_ranges cur (r :: acc)
  | Some _ | None -> Ok (List.rev (r :: acc))

let parse spec =
  let cur = { text = spec; pos = 0 } in
  skip_spaces cur;
  let* kind =
    match peek cur with
    | Some ('P' | 'p') -> advance cur; Ok Precision_clock
    | Some ('C' | 'c') -> advance cur; Ok Nonprecision_clock
    | Some ('S' | 's') -> advance cur; Ok Stable
    | Some c -> Error (Printf.sprintf "expected P, C or S, found '%c'" c)
    | None -> Error "empty assertion"
  in
  let* skew_ns =
    match kind with
    | Stable -> Ok None
    | Precision_clock | Nonprecision_clock -> scan_skew cur
  in
  let* ranges = scan_ranges cur [] in
  skip_spaces cur;
  let* low_active =
    match peek cur with
    | Some ('L' | 'l') -> advance cur; Ok true
    | Some c -> Error (Printf.sprintf "trailing garbage '%c' in assertion" c)
    | None -> Ok false
  in
  skip_spaces cur;
  if cur.pos <> String.length spec then Error "trailing garbage in assertion"
  else Ok { kind; skew_ns; ranges; low_active }

(* ---- rendering --------------------------------------------------------- *)

(* Integers print in full: an [int_of_float] beyond the int range would
   print a different number. *)
let float_to_string f =
  if Float.is_integer f then
    if Float.abs f < 1e15 then string_of_int (int_of_float f) else Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let range_to_string = function
  | Unit_at a -> float_to_string a
  | Between (a, b) -> float_to_string a ^ "-" ^ float_to_string b
  | For_ns (a, w) -> float_to_string a ^ "+" ^ Printf.sprintf "%.1f" w

let to_string a =
  let kind = match a.kind with Precision_clock -> "P" | Nonprecision_clock -> "C" | Stable -> "S" in
  let skew =
    match a.skew_ns with
    | None -> ""
    | Some (m, p) -> Printf.sprintf "(%g,%g)" m p
  in
  let ranges = String.concat "," (List.map range_to_string a.ranges) in
  let pol = if a.low_active then " L" else "" in
  kind ^ skew ^ ranges ^ pol

let equal a b = to_string a = to_string b

let is_clock a =
  match a.kind with Precision_clock | Nonprecision_clock -> true | Stable -> false

let pp ppf a = Format.pp_print_string ppf (to_string a)

(* ---- waveform construction --------------------------------------------- *)

type defaults = {
  precision_skew : Timebase.ps * Timebase.ps;
  nonprecision_skew : Timebase.ps * Timebase.ps;
}

let s1_defaults =
  { precision_skew = (-1000, 1000); nonprecision_skew = (-5000, 5000) }

let range_interval tb = function
  | Unit_at a ->
    let s = Timebase.ps_of_units tb a in
    (s, s + Timebase.clock_unit tb)
  | Between (a, b) -> (Timebase.ps_of_units tb a, Timebase.ps_of_units tb b)
  | For_ns (a, w) ->
    let s = Timebase.ps_of_units tb a in
    (s, s + Timebase.ps_of_ns w)

let intervals tb a = List.map (range_interval tb) a.ranges

let rec check_ranges tb = function
  | [] -> ()
  | r :: rest ->
    ignore (range_interval tb r);
    check_ranges tb rest

let check tb a =
  match check_ranges tb a.ranges with
  | () -> Ok ()
  | exception Invalid_argument m -> Error (Printf.sprintf "assertion .%s: %s" (to_string a) m)

let to_waveform defaults tb a =
  let period = Timebase.period tb in
  let ivals = intervals tb a in
  match a.kind with
  | Stable ->
    Waveform.of_intervals ~period ~inside:Tvalue.Stable ~outside:Tvalue.Change ivals
  | Precision_clock | Nonprecision_clock ->
    let inside, outside =
      if a.low_active then (Tvalue.V0, Tvalue.V1) else (Tvalue.V1, Tvalue.V0)
    in
    let early, late =
      match a.skew_ns with
      | Some (m, p) -> (Timebase.ps_of_ns m, Timebase.ps_of_ns p)
      | None -> (
        match a.kind with
        | Precision_clock -> defaults.precision_skew
        | Nonprecision_clock -> defaults.nonprecision_skew
        | Stable -> assert false)
    in
    Waveform.of_intervals ~period ~inside ~outside ivals |> Waveform.with_skew ~early ~late
