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

(* Test copies of the evaluator's private value functions, which it
   combines through [map2] and [map3]. *)
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

let set_reset_overlay out s r =
  match s, r with
  | Tvalue.V0, Tvalue.V0 -> out
  | Tvalue.V1, Tvalue.V0 -> Tvalue.V1
  | Tvalue.V0, Tvalue.V1 -> Tvalue.V0
  | Tvalue.V1, Tvalue.V1 -> Tvalue.Unknown
  | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
  | _, _ -> Tvalue.Change

(* The evaluator's Change painting over a multiplexer select or latch
   enable window. *)
let paint v p =
  match p, v with
  | Tvalue.Change, Tvalue.Unknown -> Tvalue.Unknown
  | Tvalue.Change, _ -> Tvalue.Change
  | _, v -> v

(* A gate: the fold at each instant, its complement, then the delay —
   an envelope delay as a rotation by the minimum with the spread added
   to the late skew, a rise/fall one through the library. *)
let gate fn ~invert ~delay ws =
  let c = mapn (Primitive.gate_fold fn) ws in
  let c = if invert then map Tvalue.lnot c else c in
  if Delay.rise_fall delay <> None then Waveform.apply_delay delay c
  else
    let early, late = Waveform.skew c in
    Waveform.with_skew ~early ~late:(late + Delay.spread delay) (rotate c delay.Delay.dmin)

(* ---- windows and intervals, over pieces ----------------------------------- *)

(* Absolute pieces [(start, stop, value)] covering [0, period). *)
let pieces w = List.map2 (fun s (v, width) -> (s, s + width, v)) (starts w) (Waveform.segments w)

(* Like [pieces] but with the wrap-spanning segment (equal first and last
   values) one piece whose stop exceeds the period, listed last. *)
let circular_pieces w =
  let ps = pieces w in
  match ps, List.rev ps with
  | (_, e0, v0) :: _ :: _, (ls, _, lv) :: _ when Tvalue.equal v0 lv ->
    let inner = List.tl (List.rev (List.tl (List.rev ps))) in
    inner @ [ (ls, e0 + Waveform.period w, v0) ]
  | _ -> ps

let window s e = { Waveform.w_start = s; w_stop = e }

let edge_windows ~from_v ~to_v w =
  let p = Waveform.period w in
  let arr = Array.of_list (circular_pieces (materialize w)) in
  let n = Array.length arr in
  if n <= 1 then []
  else
    let get i = arr.((i + n) mod n) in
    let out = ref [] in
    for i = 0 to n - 1 do
      let s, e, v = arr.(i) in
      let _, _, prev = get (i - 1) and _, _, next = get (i + 1) in
      (match v with
      | Tvalue.Rise when Tvalue.equal from_v Tvalue.V0 -> out := window s e :: !out
      | Tvalue.Fall when Tvalue.equal from_v Tvalue.V1 -> out := window s e :: !out
      | Tvalue.Change | Tvalue.Unknown ->
        if Tvalue.equal prev from_v && Tvalue.equal next to_v then out := window s e :: !out
      | _ -> ());
      if Tvalue.equal v from_v && Tvalue.equal next to_v then
        out := window (wrap p e) (wrap p e) :: !out
    done;
    List.sort (fun a b -> Int.compare a.Waveform.w_start b.Waveform.w_start) !out

let rising_windows w = edge_windows ~from_v:Tvalue.V0 ~to_v:Tvalue.V1 w

let falling_windows w = edge_windows ~from_v:Tvalue.V1 ~to_v:Tvalue.V0 w

let change_windows w =
  let p = Waveform.period w in
  let arr = Array.of_list (circular_pieces (materialize w)) in
  let n = Array.length arr in
  if n <= 1 then []
  else
    let out = ref [] in
    for i = 0 to n - 1 do
      let s, e, v = arr.(i) and _, _, next = arr.((i + 1) mod n) in
      if Tvalue.is_changing v then out := window s e :: !out
      else if Tvalue.is_stable v && Tvalue.is_stable next && not (Tvalue.equal v next) then
        out := window (wrap p e) (wrap p e) :: !out
    done;
    List.sort (fun a b -> Int.compare a.Waveform.w_start b.Waveform.w_start) !out

(* Runs [(start, width)] of consecutive pieces satisfying [pred]; a run
   touching time 0 joins one ending at the period, and the joined run is
   listed last. *)
let runs_where pred ~period ps =
  let runs =
    List.rev
      (List.fold_left
         (fun runs (s, e, v) ->
           if not (pred v) then runs
           else
             match runs with
             | (rs, re) :: rest when re = s -> (rs, e) :: rest
             | _ -> (s, e) :: runs)
         [] ps)
  in
  match runs with
  | [] -> []
  | [ (0, e) ] when e = period -> [ (0, period) ]
  | (0, e0) :: (_ :: _ as rest) when snd (List.nth rest (List.length rest - 1)) = period ->
    let k = List.length rest in
    List.mapi
      (fun i (s, e) -> if i = k - 1 then (s, e + e0 - s) else (s, e - s))
      rest
  | runs -> List.map (fun (s, e) -> (s, e - s)) runs

let intervals_where pred w =
  let m = materialize w in
  runs_where pred ~period:(Waveform.period m) (pieces m)

let pulse_intervals v w = runs_where (Tvalue.equal v) ~period:(Waveform.period w) (pieces w)

let intersect p (s1, w1) (s2, w2) =
  if w1 = 0 || w2 = 0 then false
  else if w1 >= p || w2 >= p then true
  else wrap p (s2 - s1) < w1 || wrap p (s1 - s2) < w2

let stable_over w ~start ~width =
  let p = Waveform.period w in
  if width <= 0 then true
  else if width >= p then
    List.for_all (fun (v, _) -> Tvalue.is_stable v) (Waveform.segments (materialize w))
  else
    let unstable = intervals_where (fun v -> not (Tvalue.is_stable v)) w in
    not (List.exists (fun iv -> intersect p iv (wrap p start, width)) unstable)

let stable_interval_around w t =
  let p = Waveform.period w in
  List.find_opt (fun iv -> covers p iv (wrap p t)) (intervals_where Tvalue.is_stable w)

let sampled w { Waveform.w_start; w_stop } =
  let p = Waveform.period w in
  let v = Waveform.value_at (materialize w) w_start in
  match v with
  | Tvalue.V0 | Tvalue.V1 ->
    let width = w_stop - w_start in
    if width = 0 then Some v
    else if
      List.exists
        (fun (s, run) -> wrap p (w_start - s) + width <= run)
        (intervals_where (Tvalue.equal v) w)
    then Some v
    else None
  | _ -> None
