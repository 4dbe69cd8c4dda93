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
  segs : int array; (* >= 1 entries; (start lsl 3) lor value code *)
  early : Timebase.ps; (* <= 0 *)
  late : Timebase.ps; (* >= 0 *)
  mutable folded : t option;
      (* [materialize]'s result once computed; it has zero skew and an
         empty slot, so no record reaches itself *)
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

let n_segments w = Array.length w.segs

let seg_width w i =
  (if i = n_segments w - 1 then w.period else seg_start w (i + 1)) - seg_start w i

let segments w =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((seg_val w i, seg_width w i) :: acc)
  in
  go (n_segments w - 1) []

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
  { period; segs = arr; early; late; folded = None }

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
  { w with early; late; folded = None }

let equal a b = a.period = b.period && a.early = b.early && a.late = b.late && a.segs = b.segs

(* ---- pieces: absolute [start, stop) covering [0, period) ------------- *)

type piece = { p_start : Timebase.ps; p_stop : Timebase.ps; p_val : Tvalue.t }

let piece_at w i =
  { p_start = seg_start w i;
    p_stop = (if i = n_segments w - 1 then w.period else seg_start w (i + 1));
    p_val = seg_val w i }

let pieces_arr w = Array.init (n_segments w) (piece_at w)

(* Index of the segment covering instant [t] in [0, period): the largest
   [i] with [start i <= t]. *)
let seg_index w t =
  let lo = ref 0 and hi = ref (n_segments w - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if w.segs.(mid) asr 3 <= t then lo := mid else hi := mid - 1
  done;
  !lo

let value_at w t = seg_val w (seg_index w (wrap w.period t))

(* ---- modular intervals ----------------------------------------------- *)

(* An interval is (start, width) with start in [0, period), 0 <= width <=
   period.  [covers] tests membership of an instant. *)

let iv_covers p (s, width) x =
  if width >= p then true else wrap p (x - s) < width

let iv_intersect p (s1, w1) (s2, w2) =
  if w1 = 0 || w2 = 0 then false
  else if w1 >= p || w2 >= p then true
  else wrap p (s2 - s1) < w1 || wrap p (s1 - s2) < w2

(* ---- single-pass kernels --------------------------------------------- *)

(* Each kernel writes its result once, region by region in start order,
   into an array sized for the most regions it can produce; a region
   whose value equals the previous one extends it and writes nothing. *)
type out = { buf : int array; mutable len : int }

let out_create cap = { buf = Array.make cap 0; len = 0 }

let emit o start c =
  if o.len = 0 || o.buf.(o.len - 1) land 7 <> c then begin
    o.buf.(o.len) <- (start lsl 3) lor c;
    o.len <- o.len + 1
  end

let finish o ~period ~early ~late =
  let segs = if o.len = Array.length o.buf then o.buf else Array.sub o.buf 0 o.len in
  { period; segs; early; late; folded = None }

(* The value of the windows covering an instant, kept as per-code counts:
   [merge_uncertain] is a flat-lattice join (equal values give that
   value, any Unknown gives Unknown, otherwise Change), so the counts
   determine it.  [base] when no window covers the instant. *)
let joined cover base =
  if cover.(6) > 0 then 6
  else
    let c = ref (-1) in
    for k = 0 to 5 do
      if cover.(k) > 0 then c := if !c < 0 then k else 5
    done;
    if !c < 0 then base else !c

(* Paint windows over the first [nb] segments of [base] in one sweep.
   [opens] and [closes] hold each window's start and end instant modulo
   the period, packed with its value code like a segment and sorted by
   instant; every width is positive and less than the period.  [cover]
   starts at the windows that wrap (end <= start): an instant is covered
   by the windows opened at or before it, less those closed at or before
   it, plus the wrapping ones.  The regions are delimited by the merged
   instants of the three sequences. *)
let sweep ~period ~base ~nb ~opens ~closes ~cover =
  let no = Array.length opens and nc = Array.length closes in
  let o = out_create (nb + no + nc) in
  let ib = ref 0 and io = ref 0 and ic = ref 0 and x = ref 0 in
  while !x < period do
    let t = !x in
    while !ib < nb && base.(!ib) asr 3 = t do incr ib done;
    while !io < no && opens.(!io) asr 3 = t do
      let c = opens.(!io) land 7 in
      cover.(c) <- cover.(c) + 1;
      incr io
    done;
    while !ic < nc && closes.(!ic) asr 3 = t do
      let c = closes.(!ic) land 7 in
      cover.(c) <- cover.(c) - 1;
      incr ic
    done;
    emit o t (joined cover (base.(!ib - 1) land 7));
    let next = if !ib < nb then base.(!ib) asr 3 else period in
    let next = if !io < no then Int.min next (opens.(!io) asr 3) else next in
    x := if !ic < nc then Int.min next (closes.(!ic) asr 3) else next
  done;
  finish o ~period ~early:0 ~late:0

(* The intervals are windows of [inside] over a constant base. *)
let of_intervals ~period ~inside ~outside ivals =
  let ivals =
    List.filter_map
      (fun r ->
        let ((_, width) as iv) = Timebase.modular_range ~period r in
        if width > 0 then Some iv else None)
      ivals
  in
  if List.exists (fun (_, width) -> width >= period) ivals then const ~period inside
  else
    let c = code inside and k = List.length ivals in
    let opens = Array.make k 0 and closes = Array.make k 0 and cover = Array.make 7 0 in
    List.iteri
      (fun i (s, width) ->
        let e = (s + width) mod period in
        if e <= s then cover.(c) <- cover.(c) + 1;
        opens.(i) <- (s lsl 3) lor c;
        closes.(i) <- (e lsl 3) lor c)
      ivals;
    Array.sort Int.compare opens;
    Array.sort Int.compare closes;
    sweep ~period ~base:[| code outside |] ~nb:1 ~opens ~closes ~cover

(* ---- rotation and delay ---------------------------------------------- *)

(* Segment [j] covers instant [period - d], which moves to 0: copy the
   segments cyclically from [j], each start moved by [d], and end with
   [j]'s head when [period - d] splits it.  Only the old seam between the
   last and the first segment can merge.  A constant comes back as a
   fresh record too: lanes compare records with [==]. *)
let rotate w d =
  let p = w.period and n = n_segments w in
  let d = wrap p d in
  if d = 0 then w
  else if n = 1 then { w with folded = None }
  else
    let j = seg_index w (p - d) in
    let split = seg_start w j < p - d in
    let seam = w.segs.(n - 1) land 7 = w.segs.(0) land 7 in
    let o = out_create (n + Bool.to_int split - Bool.to_int seam) in
    emit o 0 (w.segs.(j) land 7);
    for r = 1 to n - 1 do
      let i = if j + r < n then j + r else j + r - n in
      emit o (wrap p (seg_start w i + d)) (w.segs.(i) land 7)
    done;
    if split then emit o (seg_start w j + d) (w.segs.(j) land 7);
    finish o ~period:p ~early:w.early ~late:w.late

let delay ~dmin ~dmax w =
  if dmin < 0 || dmax < dmin then invalid_arg "Waveform.delay: need 0 <= dmin <= dmax";
  let w = rotate w dmin in
  { w with late = w.late + (dmax - dmin); folded = None }

(* ---- materialization --------------------------------------------------- *)

(* Transition [k] enters segment [first + k]; instant 0 carries one only
   when the last value differs from the first.  Its window opens at
   [t + early] and closes at [t + late]: the transition instants ascend,
   so each sequence is sorted once rotated past the entries that wrap,
   and the sweep merges them with the segment starts.  A window as wide
   as the cycle covers every instant. *)
let fold w =
  if n_segments w = 1 then { w with early = 0; late = 0; folded = None }
  else
    let p = w.period and n = n_segments w in
    let whole = w.late - w.early >= p in
    let first = if w.segs.(n - 1) land 7 = w.segs.(0) land 7 then 1 else 0 in
    let m = n - first in
    let ko = ref 0 and kc = ref 0 in
    while !ko < m && seg_start w (first + !ko) + w.early < 0 do incr ko done;
    while !kc < m && seg_start w (first + !kc) + w.late < p do incr kc done;
    let nw = if whole then 0 else m in
    let opens = Array.make nw 0 and closes = Array.make nw 0 and cover = Array.make 7 0 in
    for k = 0 to m - 1 do
      let i = first + k in
      let e =
        code (Tvalue.worst_edge ~before:(seg_val w ((i + n - 1) mod n)) ~after:(seg_val w i))
      in
      let s = wrap p (seg_start w i + w.early) and c = wrap p (seg_start w i + w.late) in
      if whole || c <= s then cover.(e) <- cover.(e) + 1;
      if not whole then begin
        opens.((k - !ko + m) mod m) <- (s lsl 3) lor e;
        closes.((k - !kc + m) mod m) <- (c lsl 3) lor e
      end
    done;
    sweep ~period:p ~base:w.segs ~nb:n ~opens ~closes ~cover

let materialize w =
  match w.folded with
  | Some m -> m
  | None when w.early = 0 && w.late = 0 -> w
  | None ->
    let m = fold w in
    w.folded <- Some m;
    m

(* ---- pointwise maps ---------------------------------------------------- *)

let map f w =
  let o = out_create (n_segments w) in
  for i = 0 to n_segments w - 1 do
    emit o (seg_start w i) (code (f (seg_val w i)))
  done;
  finish o ~period:w.period ~early:w.early ~late:w.late

let is_const w = n_segments w = 1

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
    (* A k-way merge of the materialized inputs: one cursor each, and [f]
       once per region between consecutive segment starts. *)
    let ms = Array.map materialize (Array.of_list ws) in
    let k = Array.length ms in
    let cur = Array.make k 0 in
    let o = out_create (Array.fold_left (fun acc m -> acc + n_segments m) 0 ms) in
    let rec values i acc = if i < 0 then acc else values (i - 1) (seg_val ms.(i) cur.(i) :: acc) in
    let x = ref 0 in
    while !x < p do
      let t = !x and next = ref p in
      for i = 0 to k - 1 do
        let m = ms.(i) in
        let n = n_segments m in
        if cur.(i) + 1 < n && m.segs.(cur.(i) + 1) asr 3 = t then cur.(i) <- cur.(i) + 1;
        if cur.(i) + 1 < n then next := Int.min !next (m.segs.(cur.(i) + 1) asr 3)
      done;
      emit o t (code (f (values (k - 1) [])));
      x := !next
    done;
    finish o ~period:p ~early:0 ~late:0

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
  let n = n_segments m in
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
      i >= n_segments m
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
      (* Each transition window moves by its own edge delay, and after a
         window the level is its post-value.  In source order, edge [i]'s
         delayed window is [lo i, hi i). *)
      let edges =
        List.map (fun w -> (w, rmin, rmax, Tvalue.Rise, Tvalue.V1)) rising
        @ List.map (fun w -> (w, fmin, fmax, Tvalue.Fall, Tvalue.V0)) falling
        |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> Int.compare a.w_start b.w_start)
        |> Array.of_list
      in
      let k = Array.length edges in
      let lo i =
        let { w_start; _ }, dmin, _, _, _ = edges.(i mod k) in
        w_start + dmin + if i >= k then p else 0
      in
      let hi i =
        let { w_stop; _ }, _, dmax, _, _ = edges.(i) in
        w_stop + dmax
      in
      (* The delayed windows must preserve the source's transition
         ordering: for every source-consecutive pair of edges
         (circularly, including the wrap), the earlier edge must finish
         its delayed window before the later edge's begins.  A slow fall
         completing after the next cycle's fast rise violates this, and
         the exact reconstruction below would be wrong — fall back to
         the conservative envelope instead. *)
      let rec ordered i = i >= k || (hi i <= lo (i + 1) && ordered (i + 1)) in
      if not (k = 1 || ordered 0) then None
      else
        (* The windows and the levels between them are one cyclic step
           list from the first window's start: write it once, then
           rotate it into place. *)
        let o = out_create (2 * k) in
        for i = 0 to k - 1 do
          let _, _, _, v, post = edges.(i) in
          if hi i > lo i then emit o (lo i - lo 0) (code v);
          if lo (i + 1) > hi i then emit o (hi i - lo 0) (code post)
        done;
        Some (rotate (finish o ~period:p ~early:0 ~late:0) (lo 0))

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
  let rec go i = i >= n_segments m || (Tvalue.is_stable (seg_val m i) && go (i + 1)) in
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
  for i = 0 to n_segments w - 1 do
    if i > 0 then Format.pp_print_string ppf "  ";
    Format.fprintf ppf "%a %a" Tvalue.pp (seg_val w i) Timebase.pp_ns (seg_start w i)
  done;
  if w.early <> 0 || w.late <> 0 then
    Format.fprintf ppf "  (skew %a/+%a)" Timebase.pp_ns w.early Timebase.pp_ns w.late
