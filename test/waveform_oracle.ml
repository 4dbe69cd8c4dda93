(* Reference versions of the waveform kernels, written over the public
   API as plain list code: each samples a value function at the start
   of every region between sorted breakpoints.  The properties in
   test_waveform check each library kernel against its reference on
   random waveforms. *)

open Scald_core

let wrap p x =
  let r = x mod p in
  if r < 0 then r + p else r

let covers p (s, width) x = width >= p || wrap p (x - s) < width

let starts w =
  let rec go at = function [] -> [] | (_, width) :: rest -> at :: go (at + width) rest in
  go 0 (Waveform.segments w)

(* Sample [value_of] at the start of every region between the sorted,
   deduplicated breakpoints (taken modulo the period). *)
let of_breakpoints ~period bps value_of =
  let bps = List.sort_uniq Int.compare (0 :: List.map (wrap period) bps) in
  let rec regions = function
    | [] -> []
    | [ last ] -> [ (last, period) ]
    | a :: (b :: _ as rest) -> (a, b) :: regions rest
  in
  Waveform.create ~period (List.map (fun (a, b) -> (value_of a, b - a)) (regions bps))

(* Circular transition list: (time, before, after). *)
let transitions w =
  let vs = List.map fst (Waveform.segments w) in
  match vs with
  | [] | [ _ ] -> []
  | first :: _ ->
    let last = List.nth vs (List.length vs - 1) in
    let rec inner prev ts vs =
      match ts, vs with
      | t :: ts, v :: vs -> (t, prev, v) :: inner v ts vs
      | _ -> []
    in
    let inner = inner first (List.tl (starts w)) (List.tl vs) in
    if Tvalue.equal last first then inner else (0, last, first) :: inner

let edge (_, before, after) = Tvalue.worst_edge ~before ~after

let materialize w =
  let early, late = Waveform.skew w in
  let p = Waveform.period w in
  if early = 0 && late = 0 then w
  else
    match transitions w with
    | [] -> Waveform.create ~period:p (Waveform.segments w)
    | first :: rest as trans ->
      if late - early >= p then
        Waveform.const ~period:p
          (List.fold_left (fun acc tr -> Tvalue.merge_uncertain acc (edge tr)) (edge first) rest)
      else
        let windows =
          List.map (fun ((t, _, _) as tr) -> ((wrap p (t + early), late - early), edge tr)) trans
        in
        let bps = List.concat_map (fun ((s, width), _) -> [ s; s + width ]) windows @ starts w in
        of_breakpoints ~period:p bps (fun x ->
            match List.filter_map (fun (iv, v) -> if covers p iv x then Some v else None) windows with
            | [] -> Waveform.value_at w x
            | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest)

let rotate w d =
  let p = Waveform.period w in
  let d = wrap p d in
  if d = 0 then w
  else
    let pieces = List.combine (starts w) (Waveform.segments w) in
    let shifted =
      List.concat_map
        (fun (s, (v, width)) ->
          let s = s + d in
          let e = s + width in
          if e <= p then [ (s, v, width) ]
          else if s >= p then [ (s - p, v, width) ]
          else [ (s, v, p - s); (0, v, e - p) ])
        pieces
    in
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) shifted in
    let early, late = Waveform.skew w in
    Waveform.create ~period:p (List.map (fun (_, v, width) -> (v, width)) sorted)
    |> Waveform.with_skew ~early ~late

let map f w =
  let early, late = Waveform.skew w in
  Waveform.create ~period:(Waveform.period w)
    (List.map (fun (v, width) -> (f v, width)) (Waveform.segments w))
  |> Waveform.with_skew ~early ~late

let mapn f ws =
  let p = Waveform.period (List.hd ws) in
  let at0 w = Waveform.value_at w 0 in
  match List.filter (fun w -> Waveform.n_segments w > 1) ws with
  | [] -> Waveform.const ~period:p (f (List.map at0 ws))
  | [ v ] -> map (fun x -> f (List.map (fun w -> if w == v then x else at0 w) ws)) v
  | _ ->
    let ms = List.map materialize ws in
    of_breakpoints ~period:p (List.concat_map starts ms) (fun x ->
        f (List.map (fun m -> Waveform.value_at m x) ms))

(* A range (start, stop) is the modular interval (start mod period,
   width): the whole period when stop - start >= period, else
   (stop - start) mod period; width 0 is empty. *)
let range p (s, e) =
  let d = e - s in
  (wrap p s, if d >= p then p else wrap p d)

let of_intervals ~period ~inside ~outside ivals =
  let ivals = List.filter (fun (_, width) -> width > 0) (List.map (range period) ivals) in
  if ivals = [] then Waveform.const ~period outside
  else
    of_breakpoints ~period
      (List.concat_map (fun (s, width) -> [ s; s + width ]) ivals)
      (fun x -> if List.exists (fun iv -> covers period iv x) ivals then inside else outside)

(* Test copies of the evaluator's private multiplexer and latch value
   functions, the two non-fold [mapn] callers. *)
let mux_value a b s =
  match s with
  | Tvalue.V0 -> a
  | Tvalue.V1 -> b
  | Tvalue.Unknown -> Tvalue.Unknown
  | Tvalue.Stable ->
    if Tvalue.equal a b then a
    else (
      match a, b with
      | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
      | _, _ ->
        if Tvalue.is_stable a && Tvalue.is_stable b then Tvalue.Stable
        else if Tvalue.is_stable a then b
        else if Tvalue.is_stable b then a
        else Tvalue.Change)
  | Tvalue.Rise | Tvalue.Fall | Tvalue.Change -> (
    match a, b with
    | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
    | _, _ -> Tvalue.Change)

let latch_value d e =
  match e with
  | Tvalue.V0 -> Tvalue.Stable
  | Tvalue.Unknown -> Tvalue.Unknown
  | Tvalue.V1 | Tvalue.Stable -> (
    match d with
    | Tvalue.Unknown -> Tvalue.Unknown
    | Tvalue.Change | Tvalue.Rise | Tvalue.Fall -> Tvalue.Change
    | Tvalue.V0 | Tvalue.V1 -> if Tvalue.equal e Tvalue.V1 then d else Tvalue.Stable
    | Tvalue.Stable -> Tvalue.Stable)
  | Tvalue.Rise | Tvalue.Change -> (
    match d with Tvalue.Unknown -> Tvalue.Unknown | _ -> Tvalue.Change)
  | Tvalue.Fall -> (
    match d with
    | Tvalue.Unknown -> Tvalue.Unknown
    | Tvalue.Change | Tvalue.Rise | Tvalue.Fall -> Tvalue.Change
    | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable -> Tvalue.Stable)
