(* Contiguous-buffer representation: a waveform's segments live in one
   int array, each entry packing the segment's value (low 3 bits) with
   its cumulative start offset (upper bits).  [start 0 = 0] always;
   widths are recovered as start-offset differences (the last segment
   extends to the period).  Tail access, segment counts and point
   lookups (binary search) are O(1)/O(log n) instead of the old list
   walks, and a million-net design carries one small array per net
   instead of a spine of list cells. *)

type t = {
  period : Timebase.ps;
  n_segs : int; (* >= 1 *)
  segs : int array; (* length n_segs; (start lsl 3) lor value code *)
  early : Timebase.ps; (* <= 0 *)
  late : Timebase.ps; (* >= 0 *)
}

let code = function
  | Tvalue.V0 -> 0
  | Tvalue.V1 -> 1
  | Tvalue.Rise -> 2
  | Tvalue.Fall -> 3
  | Tvalue.Stable -> 4
  | Tvalue.Change -> 5
  | Tvalue.Unknown -> 6

let decode = function
  | 0 -> Tvalue.V0
  | 1 -> Tvalue.V1
  | 2 -> Tvalue.Rise
  | 3 -> Tvalue.Fall
  | 4 -> Tvalue.Stable
  | 5 -> Tvalue.Change
  | _ -> Tvalue.Unknown

let seg_val w i = decode (w.segs.(i) land 7)

let seg_start w i = w.segs.(i) asr 3

let period w = w.period

let skew w = (w.early, w.late)

let n_segments w = w.n_segs

let seg_width w i =
  (if i = w.n_segs - 1 then w.period else seg_start w (i + 1)) - seg_start w i

let segments w =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((seg_val w i, seg_width w i) :: acc)
  in
  go (w.n_segs - 1) []

let wrap p x =
  let r = x mod p in
  if r < 0 then r + p else r

(* ---- normalized construction ---------------------------------------- *)

(* Build from a transient [(value, width)] list, merging adjacent equal
   values into the contiguous array in one pass.  Widths must be
   positive and sum to the period (checked by the public [create]). *)
let of_segs ~period ~early ~late segs =
  let n_merged =
    let rec count prev n = function
      | [] -> n
      | (v, _) :: rest ->
        (match prev with
        | Some pv when Tvalue.equal pv v -> count prev n rest
        | _ -> count (Some v) (n + 1) rest)
    in
    count None 0 segs
  in
  if n_merged = 0 then invalid_arg "Waveform: empty segment list";
  let arr = Array.make n_merged 0 in
  let rec fill i at = function
    | [] -> ()
    | (v, width) :: rest ->
      let c = code v in
      if i > 0 && arr.(i - 1) land 7 = c then fill i (at + width) rest
      else begin
        arr.(i) <- (at lsl 3) lor c;
        fill (i + 1) (at + width) rest
      end
  in
  fill 0 0 segs;
  { period; n_segs = n_merged; segs = arr; early; late }

let create ~period segs =
  if period <= 0 then invalid_arg "Waveform.create: period must be positive";
  List.iter
    (fun (_, w) -> if w <= 0 then invalid_arg "Waveform.create: segment width must be positive")
    segs;
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 segs in
  if total <> period then
    invalid_arg
      (Printf.sprintf "Waveform.create: segment widths sum to %d, period is %d" total period);
  of_segs ~period ~early:0 ~late:0 segs

let const ~period v = create ~period [ (v, period) ]

let with_skew ~early ~late w =
  if early > 0 || late < 0 then invalid_arg "Waveform.with_skew: need early <= 0 <= late";
  { w with early; late }

let equal a b =
  a.period = b.period && a.early = b.early && a.late = b.late && a.n_segs = b.n_segs
  &&
  let rec go i = i >= a.n_segs || (a.segs.(i) = b.segs.(i) && go (i + 1)) in
  go 0

(* ---- pieces: absolute [start, stop) covering [0, period) ------------- *)

type piece = { p_start : Timebase.ps; p_stop : Timebase.ps; p_val : Tvalue.t }

let piece_at w i =
  { p_start = seg_start w i;
    p_stop = (if i = w.n_segs - 1 then w.period else seg_start w (i + 1));
    p_val = seg_val w i }

let pieces_arr w = Array.init w.n_segs (piece_at w)

let of_pieces ~period ~early ~late pieces =
  let segs =
    List.filter_map
      (fun p ->
        let width = p.p_stop - p.p_start in
        if width <= 0 then None else Some (p.p_val, width))
      pieces
  in
  of_segs ~period ~early ~late segs

(* Index of the segment covering instant [t] in [0, period): the largest
   [i] with [start i <= t]. *)
let seg_index w t =
  let lo = ref 0 and hi = ref (w.n_segs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if w.segs.(mid) asr 3 <= t then lo := mid else hi := mid - 1
  done;
  !lo

let value_at w t = seg_val w (seg_index w (wrap w.period t))

let starts_list w = List.init w.n_segs (seg_start w)

(* ---- modular intervals ----------------------------------------------- *)

(* An interval is (start, width) with start in [0, period), 0 <= width <=
   period.  [covers] tests membership of an instant. *)

let iv_covers p (s, width) x =
  if width >= p then true else wrap p (x - s) < width

let iv_intersect p (s1, w1) (s2, w2) =
  if w1 = 0 || w2 = 0 then false
  else if w1 >= p || w2 >= p then true
  else wrap p (s2 - s1) < w1 || wrap p (s1 - s2) < w2

(* ---- sweep construction ---------------------------------------------- *)

(* Build a waveform by sampling a value function on the elementary
   regions delimited by a list of breakpoints. *)
let of_breakpoints ~period bps value_of =
  let bps = List.map (wrap period) bps in
  let bps = List.sort_uniq Int.compare (0 :: bps) in
  let rec regions = function
    | [] -> []
    | [ last ] -> [ (last, period) ]
    | a :: (b :: _ as rest) -> (a, b) :: regions rest
  in
  let pieces =
    List.map (fun (a, b) -> { p_start = a; p_stop = b; p_val = value_of a }) (regions bps)
  in
  of_pieces ~period ~early:0 ~late:0 pieces

let of_intervals ~period ~inside ~outside ivals =
  (* (start, stop): stop < start wraps; stop = start is empty. *)
  let norm (s, e) =
    let width =
      let d = e - s in
      if d = 0 then 0 else if d < 0 then d + period else min d period
    in
    (wrap period s, width)
  in
  let ivals = List.filter (fun (_, w) -> w > 0) (List.map norm ivals) in
  if ivals = [] then const ~period outside
  else
    let bps = List.concat_map (fun (s, w) -> [ s; s + w ]) ivals in
    of_breakpoints ~period bps (fun x ->
        if List.exists (fun iv -> iv_covers period iv x) ivals then inside else outside)

(* ---- rotation and delay ---------------------------------------------- *)

let rotate w d =
  let d = wrap w.period d in
  if d = 0 then w
  else
    let shifted =
      Array.to_list (pieces_arr w)
      |> List.concat_map (fun p ->
             let s = p.p_start + d and e = p.p_stop + d in
             if e <= w.period then [ { p with p_start = s; p_stop = e } ]
             else if s >= w.period then
               [ { p with p_start = s - w.period; p_stop = e - w.period } ]
             else
               [ { p with p_start = s; p_stop = w.period };
                 { p with p_start = 0; p_stop = e - w.period } ])
    in
    let sorted = List.sort (fun a b -> Int.compare a.p_start b.p_start) shifted in
    of_pieces ~period:w.period ~early:w.early ~late:w.late sorted

let delay ~dmin ~dmax w =
  if dmin < 0 || dmax < dmin then invalid_arg "Waveform.delay: need 0 <= dmin <= dmax";
  let w = rotate w dmin in
  { w with late = w.late + (dmax - dmin) }

(* ---- transitions ------------------------------------------------------ *)

(* Circular transition list: (time, before, after).  The last segment is
   the array tail — O(1) instead of the old [List.nth] walk. *)
let transitions w =
  let n = w.n_segs in
  if n <= 1 then []
  else
    let rec inner i acc =
      if i < 1 then acc
      else inner (i - 1) ((seg_start w i, seg_val w (i - 1), seg_val w i) :: acc)
    in
    let inner = inner (n - 1) [] in
    let last_v = seg_val w (n - 1) and first_v = seg_val w 0 in
    if Tvalue.equal last_v first_v then inner else (0, last_v, first_v) :: inner

(* ---- materialization --------------------------------------------------- *)

let materialize w =
  if w.early = 0 && w.late = 0 then w
  else
    let trans = transitions w in
    if trans = [] then { w with early = 0; late = 0 }
    else
      let p = w.period in
      let win_width = w.late - w.early in
      if win_width >= p then
        (* Uncertainty covers the whole cycle: every instant may be in
           some transition window. *)
        let v =
          List.fold_left
            (fun acc (_, before, after) ->
              Tvalue.merge_uncertain acc (Tvalue.worst_edge ~before ~after))
            (let _, before, after = List.hd trans in
             Tvalue.worst_edge ~before ~after)
            (List.tl trans)
        in
        const ~period:p v
      else
        let windows =
          List.map
            (fun (t, before, after) ->
              ((wrap p (t + w.early), win_width), Tvalue.worst_edge ~before ~after))
            trans
        in
        let bps =
          List.concat_map (fun ((s, width), _) -> [ s; s + width ]) windows
          @ starts_list w
        in
        let value_of x =
          let covering =
            List.filter_map
              (fun (iv, v) -> if iv_covers p iv x then Some v else None)
              windows
          in
          match covering with
          | [] -> value_at w x
          | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest
        in
        of_breakpoints ~period:p bps value_of

(* ---- pointwise maps ---------------------------------------------------- *)

let map f w =
  let segs =
    let rec go i acc =
      if i < 0 then acc else go (i - 1) ((f (seg_val w i), seg_width w i) :: acc)
    in
    go (w.n_segs - 1) []
  in
  of_segs ~period:w.period ~early:w.early ~late:w.late segs

let is_const w = w.n_segs = 1

let check_periods ws =
  match ws with
  | [] -> invalid_arg "Waveform: empty input list"
  | w :: rest ->
    List.iter
      (fun w' -> if w'.period <> w.period then invalid_arg "Waveform: period mismatch")
      rest;
    w.period

let mapn f ws =
  let p = check_periods ws in
  (* If all inputs but (at most) one are constant, the combination cannot
     fold skews together, so the varying input's skew is preserved — this
     is what keeps pulse widths intact through gated clocks whose other
     inputs are stable (§2.8). *)
  let varying = List.filter (fun w -> not (is_const w)) ws in
  match varying with
  | [] -> const ~period:p (f (List.map (fun w -> seg_val w 0) ws))
  | [ v ] ->
    let g x = f (List.map (fun w -> if w == v then x else seg_val w 0) ws) in
    map g v
  | _ ->
    let ms = List.map materialize ws in
    let bps = List.concat_map starts_list ms in
    of_breakpoints ~period:p bps (fun x -> f (List.map (fun m -> value_at m x) ms))

let map2 f a b =
  mapn (function [ x; y ] -> f x y | _ -> assert false) [ a; b ]

let map3 f a b c =
  mapn (function [ x; y; z ] -> f x y z | _ -> assert false) [ a; b; c ]

(* ---- windows and stability -------------------------------------------- *)

type window = { w_start : Timebase.ps; w_stop : Timebase.ps }

(* Circular pieces: like the piece array of the materialized waveform but
   with the wrap-spanning segment (equal first/last values) merged into a
   single piece whose stop exceeds the period. *)
let circular_pieces m =
  let n = m.n_segs in
  if n <= 1 then pieces_arr m
  else
    let first_v = seg_val m 0 and last_v = seg_val m (n - 1) in
    if Tvalue.equal first_v last_v then
      let merged =
        { p_start = seg_start m (n - 1);
          p_stop = seg_start m 1 + m.period;
          p_val = first_v }
      in
      if n = 2 then [| merged |]
      else
        Array.init (n - 1) (fun i ->
            if i = n - 2 then merged else piece_at m (i + 1))
    else pieces_arr m

let edge_windows ~from_v ~to_v m =
  let m = materialize m in
  let arr = circular_pieces m in
  let n = Array.length arr in
  if n <= 1 then []
  else
    let get i = arr.((i + n) mod n) in
    let out = ref [] in
    for i = 0 to n - 1 do
      let p = arr.(i) in
      let prev = get (i - 1) and next = get (i + 1) in
      (match p.p_val with
      | Tvalue.Rise when Tvalue.equal from_v Tvalue.V0 && Tvalue.equal to_v Tvalue.V1 ->
        out := { w_start = p.p_start; w_stop = p.p_stop } :: !out
      | Tvalue.Fall when Tvalue.equal from_v Tvalue.V1 && Tvalue.equal to_v Tvalue.V0 ->
        out := { w_start = p.p_start; w_stop = p.p_stop } :: !out
      | Tvalue.Change | Tvalue.Unknown ->
        if Tvalue.equal prev.p_val from_v && Tvalue.equal next.p_val to_v then
          out := { w_start = p.p_start; w_stop = p.p_stop } :: !out
      | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable | Tvalue.Rise | Tvalue.Fall -> ());
      (* Instantaneous from_v -> to_v boundary. *)
      if Tvalue.equal p.p_val from_v && Tvalue.equal next.p_val to_v then
        let t = wrap m.period p.p_stop in
        out := { w_start = t; w_stop = t } :: !out
    done;
    List.sort (fun a b -> Int.compare a.w_start b.w_start) !out

let rising_windows m = edge_windows ~from_v:Tvalue.V0 ~to_v:Tvalue.V1 m

let falling_windows m = edge_windows ~from_v:Tvalue.V1 ~to_v:Tvalue.V0 m

let change_windows w =
  let m = materialize w in
  let arr = circular_pieces m in
  let n = Array.length arr in
  if n <= 1 then []
  else
    let out = ref [] in
    for i = 0 to n - 1 do
      let p = arr.(i) in
      let next = arr.((i + 1) mod n) in
      if Tvalue.is_changing p.p_val then
        out := { w_start = p.p_start; w_stop = p.p_stop } :: !out
      else if
        Tvalue.is_stable p.p_val && Tvalue.is_stable next.p_val
        && not (Tvalue.equal p.p_val next.p_val)
      then
        let t = wrap m.period p.p_stop in
        out := { w_start = t; w_stop = t } :: !out
    done;
    List.sort (fun a b -> Int.compare a.w_start b.w_start) !out

let runs_where pred ~period pieces =
  (* Group consecutive satisfying pieces into runs of (start, stop); the
     wrap-join inspects only the first and last runs of the array. *)
  let rev_runs =
    Array.fold_left
      (fun runs p ->
        if not (pred p.p_val) then runs
        else
          match runs with
          | (s, e) :: rest when e = p.p_start -> (s, p.p_stop) :: rest
          | _ -> (p.p_start, p.p_stop) :: runs)
      [] pieces
  in
  let runs = Array.of_list (List.rev rev_runs) in
  let k = Array.length runs in
  if k = 0 then []
  else if k = 1 && runs.(0) = (0, period) then [ (0, period) ]
  else
    let s0, e0 = runs.(0) in
    let last_s, last_e = runs.(k - 1) in
    if s0 = 0 && last_e = period && k > 1 then
      (* A run touching time 0 joins a run ending at the period (wrap). *)
      List.init (k - 1) (fun i ->
          if i = k - 2 then (last_s, last_e + e0 - last_s)
          else
            let s, e = runs.(i + 1) in
            (s, e - s))
    else List.init k (fun i ->
        let s, e = runs.(i) in
        (s, e - s))

let intervals_where pred w =
  let m = materialize w in
  runs_where pred ~period:m.period (pieces_arr m)

let delay_rise_fall ~rise:(rmin, rmax) ~fall:(fmin, fmax) w =
  if rmin < 0 || rmax < rmin || fmin < 0 || fmax < fmin then
    invalid_arg "Waveform.delay_rise_fall: bad delay ranges";
  let m = materialize w in
  let value_known =
    let rec go i =
      i >= m.n_segs
      || (match seg_val m i with
         | Tvalue.V0 | Tvalue.V1 | Tvalue.Rise | Tvalue.Fall -> go (i + 1)
         | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> false)
    in
    go 0
  in
  (* The per-edge reconstruction assumes a coherent signal: every Rise
     window sits between a 0 and a 1, every Fall window between a 1 and
     a 0.  Degenerate patterns (e.g. a Rise returning to 0) fall back to
     the conservative envelope. *)
  let coherent =
    let arr = circular_pieces m in
    let n = Array.length arr in
    n <= 1
    ||
    let ok = ref true in
    for i = 0 to n - 1 do
      let prev = arr.((i + n - 1) mod n) and next = arr.((i + 1) mod n) in
      (match arr.(i).p_val with
      | Tvalue.Rise ->
        if not (Tvalue.equal prev.p_val Tvalue.V0 && Tvalue.equal next.p_val Tvalue.V1)
        then ok := false
      | Tvalue.Fall ->
        if not (Tvalue.equal prev.p_val Tvalue.V1 && Tvalue.equal next.p_val Tvalue.V0)
        then ok := false
      | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> ())
    done;
    !ok
  in
  if not (value_known && coherent) then None
  else
    let p = m.period in
    let rising = rising_windows m and falling = falling_windows m in
    if rising = [] && falling = [] then Some m
    else
      (* Each transition window moves by its own edge delay; between
         windows the level is the post-value of the nearest preceding
         window.  Overlapping windows merge to Change. *)
      let windows =
        List.map
          (fun { w_start; w_stop } ->
            (wrap p (w_start + rmin), w_stop - w_start + (rmax - rmin), Tvalue.Rise,
             Tvalue.V1))
          rising
        @ List.map
            (fun { w_start; w_stop } ->
              (wrap p (w_start + fmin), w_stop - w_start + (fmax - fmin), Tvalue.Fall,
               Tvalue.V0))
            falling
      in
      (* The delayed windows must preserve the source's transition
         ordering: for every source-consecutive pair of edges
         (circularly, including the wrap), the earlier edge must finish
         its delayed window before the later edge's begins.  A slow fall
         completing after the next cycle's fast rise violates this, and
         the exact reconstruction below would be wrong — fall back to
         the conservative envelope instead. *)
      let ordered =
        let tagged =
          List.map (fun w -> (w, rmin, rmax)) rising
          @ List.map (fun w -> (w, fmin, fmax)) falling
        in
        let in_source_order =
          Array.of_list
            (List.sort
               (fun ({ w_start = a; _ }, _, _) ({ w_start = b; _ }, _, _) ->
                 Int.compare a b)
               tagged)
        in
        let k = Array.length in_source_order in
        let pairs_ok = ref true in
        for i = 0 to k - 2 do
          let { w_stop = e1; _ }, _, dmax1 = in_source_order.(i) in
          let { w_start = s2; _ }, dmin2, _ = in_source_order.(i + 1) in
          if e1 + dmax1 > s2 + dmin2 then pairs_ok := false
        done;
        if k <= 1 then true
        else
          let { w_start = s0; _ }, dmin0, _ = in_source_order.(0) in
          let { w_stop = el; _ }, _, dmaxl = in_source_order.(k - 1) in
          !pairs_ok && el + dmaxl <= s0 + p + dmin0
      in
      if not ordered then None
      else
        let bps = List.concat_map (fun (s, width, _, _) -> [ s; s + width ]) windows in
        let value_of x =
          let covering =
            List.filter_map
              (fun (s, width, v, _) -> if iv_covers p (s, width) x then Some v else None)
              windows
          in
          match covering with
          | v :: rest -> List.fold_left Tvalue.merge_uncertain v rest
          | [] ->
            (* level after the nearest window ending before x; sound
               because the windows are disjoint and in source order *)
            let best =
              List.fold_left
                (fun acc (s, width, _, post) ->
                  let stop = wrap p (s + width) in
                  let d = wrap p (x - stop) in
                  match acc with
                  | Some (bd, _) when bd <= d -> acc
                  | _ -> Some (d, post))
                None windows
            in
            (match best with Some (_, post) -> post | None -> Tvalue.V0)
        in
        Some (of_breakpoints ~period:p bps value_of)

let apply_delay d w =
  if Delay.equal d Delay.zero then w
  else
    let envelope () = delay ~dmin:d.Delay.dmin ~dmax:d.Delay.dmax w in
    match Delay.rise_fall d with
    | None -> envelope ()
    | Some (rise, fall) -> (
      (* Exact per-edge delays on value-known (clock) paths; the
         conservative envelope elsewhere (§4.2.2). *)
      match delay_rise_fall ~rise ~fall w with
      | Some w -> w
      | None -> envelope ())

let pulse_intervals v w =
  runs_where (Tvalue.equal v) ~period:w.period (pieces_arr w)

let stable_everywhere w =
  let m = materialize w in
  let rec go i = i >= m.n_segs || (Tvalue.is_stable (seg_val m i) && go (i + 1)) in
  go 0

let stable_over w ~start ~width =
  if width <= 0 then true
  else if width >= w.period then stable_everywhere w
  else
    let unstable = intervals_where (fun v -> not (Tvalue.is_stable v)) w in
    let target = (wrap w.period start, width) in
    not (List.exists (fun iv -> iv_intersect w.period iv target) unstable)

let stable_interval_around w t =
  let t = wrap w.period t in
  let stable = intervals_where Tvalue.is_stable w in
  List.find_opt (fun iv -> iv_covers w.period iv t) stable

(* ---- printing ---------------------------------------------------------- *)

let pp ppf w =
  for i = 0 to w.n_segs - 1 do
    if i > 0 then Format.pp_print_string ppf "  ";
    Format.fprintf ppf "%a %a" Tvalue.pp (seg_val w i) Timebase.pp_ns (seg_start w i)
  done;
  if w.early <> 0 || w.late <> 0 then
    Format.fprintf ppf "  (skew %a/+%a)" Timebase.pp_ns w.early Timebase.pp_ns w.late
