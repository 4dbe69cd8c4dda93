(* Contiguous-buffer representation: a waveform's segments live in one
   int array, each entry packing the segment's value (low 3 bits) with
   its cumulative start offset (upper bits).  [start 0 = 0] always;
   widths are recovered as start-offset differences (the last segment
   extends to the period).  Tail access, segment counts and point
   lookups (binary search) are O(1)/O(log n) instead of the old list
   walks, and a million-net design carries one small array per net
   instead of a spine of list cells.  Every kernel below reads and
   writes these packed entries directly. *)

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

(* A value function of one code as seven 3-bit codes packed in an int,
   and a predicate as a 7-bit mask, each derived once from [Tvalue]. *)
let code_map f =
  let m = ref 0 in
  for c = 0 to 6 do
    m := !m lor (code (f (decode c)) lsl (3 * c))
  done;
  !m

let[@inline] remap cmap c = (cmap lsr (3 * c)) land 7

let mask_of pred =
  let m = ref 0 in
  for c = 0 to 6 do
    if pred (decode c) then m := !m lor (1 lsl c)
  done;
  !m

let[@inline] mem mask s i = (mask lsr (Array.unsafe_get s i land 7)) land 1 <> 0

let ident_codes = code_map Fun.id

let lnot_codes = code_map Tvalue.lnot

let stable_mask = mask_of Tvalue.is_stable

let changing_mask = mask_of Tvalue.is_changing

(* The values a per-edge delay can move: a clock's. *)
let known_mask =
  mask_of (function
    | Tvalue.V0 | Tvalue.V1 | Tvalue.Rise | Tvalue.Fall -> true
    | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> false)

let c_v0 = code Tvalue.V0

let c_v1 = code Tvalue.V1

let c_change = code Tvalue.Change

let c_unknown = code Tvalue.Unknown

let seg_val w i = decode (w.segs.(i) land 7)

let seg_start w i = w.segs.(i) asr 3

let period w = w.period

let skew w = (w.early, w.late)

let n_segments w = Array.length w.segs

(* Where entry [i] of the [n] entries of [s] stops: the next one's start,
   or the period for the last. *)
let[@inline] seg_stop s n p i = if i + 1 < n then Array.unsafe_get s (i + 1) asr 3 else p

let seg_width w i = seg_stop w.segs (n_segments w) w.period i - seg_start w i

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

let same_segs a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = n

let equal a b =
  a.period = b.period && a.early = b.early && a.late = b.late
  && (a.segs == b.segs || same_segs a.segs b.segs)

(* Index of the entry covering instant [t] in [0, period) among the
   first [n] of [s]: the largest [i] with [start i <= t]. *)
let index_in s n t =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if s.(mid) asr 3 <= t then lo := mid else hi := mid - 1
  done;
  !lo

let value_at w t = decode (w.segs.(index_in w.segs (n_segments w) (wrap w.period t)) land 7)

(* ---- scratch and the one copy out -------------------------------------- *)

(* A kernel whose result length it cannot know in advance writes the
   result into a buffer its domain owns and copies it out once at the
   exact length; a gate folds its inputs from one buffer into the other.
   The buffers grow to the widest result the domain has written.  A
   kernel folds its inputs before it writes a buffer and copies its
   result out before it calls anything that could write one. *)
type scratch = {
  mutable s0 : int array;
  mutable s1 : int array;
  mutable s2 : int array;
  cover : int array; (* the sweep's per-code window counts *)
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { s0 = [||]; s1 = [||]; s2 = [||]; cover = Array.make 7 0 })

let grown a n = if Array.length a >= n then a else Array.make (Int.max n (2 * Array.length a)) 0

let scratch n =
  let s = Domain.DLS.get scratch_key in
  s.s0 <- grown s.s0 n;
  s.s1 <- grown s.s1 n;
  s.s2 <- grown s.s2 n;
  s

(* Append a region starting at [start] with code [c] after the first
   [len] entries of [buf], unless it continues the last one; returns the
   new length. *)
let[@inline] push buf len start c =
  if len > 0 && buf.(len - 1) land 7 = c then len
  else begin
    buf.(len) <- (start lsl 3) lor c;
    len + 1
  end

(* Write the [n] entries of [src] relabelled through [cmap] into [buf];
   returns the length once equal neighbours merge. *)
let relabel_into buf cmap src n =
  let len = ref 0 in
  for i = 0 to n - 1 do
    let e = src.(i) in
    len := push buf !len (e asr 3) (remap cmap (e land 7))
  done;
  !len

(* A fresh record of the first [len] entries of [src] (a normalized list
   from instant 0) delayed by [d]: the entry covering [period - d] moves
   to 0, the others follow cyclically with each start moved by [d], and
   the list ends with that entry's head when [period - d] splits it.
   Only the old seam between the last entry and the first can merge, so
   the length is known before the copy. *)
let rotated ~period src len d ~early ~late =
  let d = wrap period d in
  let segs =
    if d = 0 || len = 1 then Array.sub src 0 len
    else begin
      let j = index_in src len (period - d) in
      let split = src.(j) asr 3 < period - d in
      let seam = src.(len - 1) land 7 = src.(0) land 7 in
      let out = Array.make (len + Bool.to_int split - Bool.to_int seam) 0 in
      let k = ref (push out 0 0 (src.(j) land 7)) in
      for r = 1 to len - 1 do
        let i = if j + r < len then j + r else j + r - len in
        k := push out !k (wrap period ((src.(i) asr 3) + d)) (src.(i) land 7)
      done;
      if split then ignore (push out !k ((src.(j) asr 3) + d) (src.(j) land 7));
      out
    end
  in
  { period; segs; early; late; folded = None }

(* ---- sweep: windows painted over a base --------------------------------- *)

(* The value of the windows covering an instant, kept as per-code counts:
   [merge_uncertain] is a flat-lattice join (equal values give that
   value, any Unknown gives Unknown, otherwise Change), so the counts
   determine it.  [base] when no window covers the instant. *)
let joined cover base =
  if cover.(c_unknown) > 0 then c_unknown
  else
    let c = ref (-1) in
    for k = 0 to 5 do
      if cover.(k) > 0 then c := if !c < 0 then k else c_change
    done;
    if !c < 0 then base else !c

(* Paint windows over the first [nb] segments of [base] in one sweep.
   The first [no] entries of [opens] and the first [nc] of [closes] hold
   each window's start and end instant modulo the period, packed with
   its value code like a segment and sorted by instant; every width is
   positive and less than the period.  [cover] starts at the windows
   that wrap (end <= start): an instant is covered by the windows opened
   at or before it, less those closed at or before it, plus the wrapping
   ones.  The regions are delimited by the merged instants of the three
   sequences; [buf] holds them until the copy out. *)
let sweep ~period ~base ~nb ~opens ~no ~closes ~nc ~cover buf =
  let len = ref 0 in
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
    len := push buf !len t (joined cover (base.(!ib - 1) land 7));
    let next = if !ib < nb then base.(!ib) asr 3 else period in
    let next = if !io < no then Int.min next (opens.(!io) asr 3) else next in
    x := if !ic < nc then Int.min next (closes.(!ic) asr 3) else next
  done;
  rotated ~period buf !len 0 ~early:0 ~late:0

(* The number of non-empty ranges, or -1 when one covers the cycle. *)
let rec count_ranges period k = function
  | [] -> k
  | r :: rest ->
    let _, width = Timebase.modular_range ~period r in
    if width >= period then -1 else count_ranges period (if width > 0 then k + 1 else k) rest

(* Each non-empty range as a window of code [c]: its packed start in
   [opens], its end in [closes], counted in [cover] when it wraps. *)
let rec fill_ranges period c ~opens ~closes ~cover i = function
  | [] -> ()
  | r :: rest ->
    let s, width = Timebase.modular_range ~period r in
    if width = 0 then fill_ranges period c ~opens ~closes ~cover i rest
    else begin
      let e = (s + width) mod period in
      if e <= s then cover.(c) <- cover.(c) + 1;
      opens.(i) <- (s lsl 3) lor c;
      closes.(i) <- (e lsl 3) lor c;
      fill_ranges period c ~opens ~closes ~cover (i + 1) rest
    end

(* Sort the first [k] entries of [a] in place, by insertion: quadratic
   in [k], but [k] is small.  A register passes its clock's rising
   windows, the window analysis at most [Window.max_spans] spans, an
   assertion its written ranges. *)
let sort_prefix a k =
  for i = 1 to k - 1 do
    let x = a.(i) and j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The intervals are windows of [inside] over a constant base. *)
let of_intervals ~period ~inside ~outside ivals =
  let k = count_ranges period 0 ivals in
  if k < 0 then const ~period inside
  else begin
    let sc = scratch (1 + (2 * k)) in
    let cover = sc.cover in
    Array.fill cover 0 7 0;
    fill_ranges period (code inside) ~opens:sc.s1 ~closes:sc.s2 ~cover 0 ivals;
    sort_prefix sc.s1 k;
    sort_prefix sc.s2 k;
    sweep ~period ~base:[| code outside |] ~nb:1 ~opens:sc.s1 ~no:k ~closes:sc.s2 ~nc:k
      ~cover sc.s0
  end

(* ---- rotation and delay ---------------------------------------------- *)

(* A constant comes back as a fresh record too: lanes compare records
   with [==]. *)
let rotate w d =
  let p = w.period in
  let d = wrap p d in
  if d = 0 then w
  else if n_segments w = 1 then { w with folded = None }
  else rotated ~period:p w.segs (n_segments w) d ~early:w.early ~late:w.late

let delay ~dmin ~dmax w =
  if dmin < 0 || dmax < dmin then invalid_arg "Waveform.delay: need 0 <= dmin <= dmax";
  let late = w.late + (dmax - dmin) in
  if n_segments w = 1 || wrap w.period dmin = 0 then { w with late; folded = None }
  else rotated ~period:w.period w.segs (n_segments w) dmin ~early:w.early ~late

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
    let sc = scratch (n + (2 * m)) in
    let opens = sc.s1 and closes = sc.s2 and cover = sc.cover in
    Array.fill cover 0 7 0;
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
    sweep ~period:p ~base:w.segs ~nb:n ~opens ~no:nw ~closes ~nc:nw ~cover sc.s0

let materialize w =
  match w.folded with
  | Some m -> m
  | None when w.early = 0 && w.late = 0 -> w
  | None ->
    let m = fold w in
    w.folded <- Some m;
    m

(* ---- pointwise maps ---------------------------------------------------- *)

(* [w] relabelled through the code map [cmap], keeping its skew. *)
let relabel cmap w =
  let n = n_segments w in
  let buf = (scratch n).s0 in
  rotated ~period:w.period buf (relabel_into buf cmap w.segs n) 0 ~early:w.early ~late:w.late

let map f w = relabel (code_map f) w

let check_period p w = if w.period <> p then invalid_arg "Waveform: period mismatch"

(* Entry [(a lsl 3) lor b] of a table is the code of [f a b]. *)
type table = string

let table f =
  String.init 64 (fun k ->
      let a = k lsr 3 and b = k land 7 in
      Char.chr (if a < 7 && b < 7 then code (f (decode a) (decode b)) else 0))

let[@inline] step tb a b = Char.code (String.unsafe_get tb ((a lsl 3) lor b))

let lookup tb a b = decode (step tb (code a) (code b))

(* The code maps [x -> step tb c x] and [x -> step tb x c]. *)
let row tb c =
  let m = ref 0 in
  for x = 0 to 6 do
    m := !m lor (step tb c x lsl (3 * x))
  done;
  !m

let column tb c =
  let m = ref 0 in
  for x = 0 to 6 do
    m := !m lor (step tb x c lsl (3 * x))
  done;
  !m

(* Merge the first [na] entries of [a] with the segment array [b]
   through [tb] into [o]; returns the merged length. *)
let merge_into tb ~period a na b o =
  let nb = Array.length b in
  let i = ref 0 and j = ref 0 and len = ref 0 and go = ref true in
  while !go do
    let ea = a.(!i) and eb = b.(!j) in
    len := push o !len (Int.max (ea asr 3) (eb asr 3)) (step tb (ea land 7) (eb land 7));
    let xa = seg_stop a na period !i and xb = seg_stop b nb period !j in
    let x = Int.min xa xb in
    if x = period then go := false
    else begin
      if xa = x then incr i;
      if xb = x then incr j
    end
  done;
  !len

(* A combination whose inputs are all constant but (at most) one cannot
   fold skews together, so the varying input is relabelled and keeps its
   skew — this is what keeps pulse widths intact through gated clocks
   whose other inputs are stable (§2.8).  With two or more varying
   inputs, counting a repeated record once per use, every input is
   materialized and the regions between their merged segment starts are
   combined in one pass. *)

let map2 tb a b =
  let p = a.period in
  check_period p b;
  let ca = a.segs.(0) land 7 and cb = b.segs.(0) land 7 in
  match n_segments a > 1, n_segments b > 1 with
  | false, false -> const ~period:p (decode (step tb ca cb))
  | true, false -> relabel (column tb cb) a
  | false, true -> relabel (row tb ca) b
  | true, true ->
    let sa = (materialize a).segs and sb = (materialize b).segs in
    let na = Array.length sa in
    let buf = (scratch (na + Array.length sb)).s0 in
    rotated ~period:p buf (merge_into tb ~period:p sa na sb buf) 0 ~early:0 ~late:0

let map3 f a b c =
  let p = a.period in
  check_period p b;
  check_period p c;
  match n_segments a > 1, n_segments b > 1, n_segments c > 1 with
  | false, false, false -> const ~period:p (f (seg_val a 0) (seg_val b 0) (seg_val c 0))
  | true, false, false ->
    let vb = seg_val b 0 and vc = seg_val c 0 in
    map (fun x -> f x vb vc) a
  | false, true, false ->
    let va = seg_val a 0 and vc = seg_val c 0 in
    map (fun x -> f va x vc) b
  | false, false, true ->
    let va = seg_val a 0 and vb = seg_val b 0 in
    map (fun x -> f va vb x) c
  | _ ->
    let sa = (materialize a).segs and sb = (materialize b).segs and sc = (materialize c).segs in
    let na = Array.length sa and nb = Array.length sb and nc = Array.length sc in
    let buf = (scratch (na + nb + nc)).s0 in
    let i = ref 0 and j = ref 0 and k = ref 0 and len = ref 0 and go = ref true in
    while !go do
      let ea = sa.(!i) and eb = sb.(!j) and ec = sc.(!k) in
      len :=
        push buf !len
          (Int.max (ea asr 3) (Int.max (eb asr 3) (ec asr 3)))
          (code (f (decode (ea land 7)) (decode (eb land 7)) (decode (ec land 7))));
      let xa = seg_stop sa na p !i and xb = seg_stop sb nb p !j and xc = seg_stop sc nc p !k in
      let x = Int.min xa (Int.min xb xc) in
      if x = p then go := false
      else begin
        if xa = x then incr i;
        if xb = x then incr j;
        if xc = x then incr k
      end
    done;
    rotated ~period:p buf !len 0 ~early:0 ~late:0

(* ---- windows and stability -------------------------------------------- *)

type window = { w_start : Timebase.ps; w_stop : Timebase.ps }

(* The circular pieces of a normalized array [s] of [n >= 2] entries,
   read in place.  When the last value equals the first, the last
   segment and the first are one piece crossing the wrap: piece [i] is
   then segment [i + 1] ([off = 1]), and otherwise segment [i]; either
   way the last piece stops at the period plus the first piece's
   start. *)
let[@inline] piece_off s n = if s.(n - 1) land 7 = s.(0) land 7 then 1 else 0

let[@inline] piece_stop s n p off i =
  if i + off + 1 < n then s.(i + off + 1) asr 3 else p + (s.(off) asr 3)

(* Both kinds of window come out in start order without a sort: a
   piece's own window starts where it starts and its boundary window
   where the next piece starts, and no piece has both a boundary window
   before it and a window of its own.  So the pieces are walked
   backwards, each piece's window consed after its boundary; the last
   piece's boundary lies at the first piece's start and goes first. *)
let edge_windows ~from ~into w =
  let m = materialize w in
  let s = m.segs and n = n_segments m and p = m.period in
  if n <= 1 then []
  else
    let off = piece_off s n
    and edge = code (Tvalue.worst_edge ~before:(decode from) ~after:(decode into)) in
    let k = n - off in
    let acc = ref [] in
    for i = k - 1 downto 0 do
      let c = s.(i + off) land 7 in
      let next = s.((if i + 1 = k then 0 else i + 1) + off) land 7 in
      let stop = piece_stop s n p off i in
      if c = from && next = into && i < k - 1 then acc := { w_start = stop; w_stop = stop } :: !acc;
      let prev = s.((if i = 0 then k - 1 else i - 1) + off) land 7 in
      if c = edge || ((c = c_change || c = c_unknown) && prev = from && next = into) then
        acc := { w_start = s.(i + off) asr 3; w_stop = stop } :: !acc
    done;
    if s.(n - 1) land 7 = from && s.(off) land 7 = into then
      let t = s.(off) asr 3 in
      { w_start = t; w_stop = t } :: !acc
    else !acc

let rising_windows m = edge_windows ~from:c_v0 ~into:c_v1 m

let falling_windows m = edge_windows ~from:c_v1 ~into:c_v0 m

(* A step between two distinct stable values at the end of piece [i] of
   [k]. *)
let stable_step s k off i =
  let j = (if i + 1 = k then 0 else i + 1) + off in
  mem stable_mask s (i + off) && mem stable_mask s j && s.(i + off) land 7 <> s.(j) land 7

let change_windows w =
  let m = materialize w in
  let s = m.segs and n = n_segments m and p = m.period in
  if n <= 1 then []
  else
    let off = piece_off s n in
    let k = n - off in
    let acc = ref [] in
    for i = k - 1 downto 0 do
      let stop = piece_stop s n p off i in
      if i < k - 1 && stable_step s k off i then acc := { w_start = stop; w_stop = stop } :: !acc;
      if mem changing_mask s (i + off) then
        acc := { w_start = s.(i + off) asr 3; w_stop = stop } :: !acc
    done;
    if stable_step s k off (k - 1) then
      let t = s.(off) asr 3 in
      { w_start = t; w_stop = t } :: !acc
    else !acc

(* Maximal runs of segments whose code is in [mask], as [(start, width)]
   in start order.  A run touching both ends of the cycle is one run
   across the wrap, listed last; when every segment is in the mask the
   one run is [(0, period)]. *)
let runs mask w =
  let s = w.segs and n = n_segments w and p = w.period in
  let h = ref 0 in
  while !h < n && mem mask s !h do incr h done;
  if !h = n then [ (0, p) ]
  else begin
    let acc = ref [] and i = ref (n - 1) and lo = ref 0 in
    if !h > 0 && mem mask s (n - 1) then begin
      let j = ref (n - 1) in
      while mem mask s (!j - 1) do decr j done;
      let st = s.(!j) asr 3 in
      acc := [ (st, p - st + (s.(!h) asr 3)) ];
      i := !j - 1;
      lo := !h
    end;
    while !i >= !lo do
      if not (mem mask s !i) then decr i
      else begin
        let e = seg_stop s n p !i and j = ref !i in
        while !j > !lo && mem mask s (!j - 1) do decr j done;
        let st = s.(!j) asr 3 in
        acc := (st, e - st) :: !acc;
        i := !j - 1
      end
    done;
    !acc
  end

let intervals_where pred w = runs (mask_of pred) (materialize w)

let pulse_intervals v w = runs (1 lsl code v) w

(* Whether every entry of [s] has its code in [mask]. *)
let all_in mask s =
  let n = Array.length s and i = ref 0 in
  while !i < n && mem mask s !i do incr i done;
  !i = n

let stable_everywhere w = all_in stable_mask (materialize w).segs

let stable_over w ~start ~width =
  if width <= 0 then true
  else if width >= w.period then stable_everywhere w
  else
    (* Walk the segments overlapping [t, t + width), from the one
       covering [t], through the wrap if need be. *)
    let m = materialize w in
    let s = m.segs and n = n_segments m and p = m.period in
    let t = wrap p start in
    let i = ref (index_in s n t) in
    let at = ref (s.(!i) asr 3) and ok = ref true in
    while !ok && !at < t + width do
      if mem stable_mask s !i then begin
        at := !at + seg_stop s n p !i - (s.(!i) asr 3);
        i := if !i + 1 = n then 0 else !i + 1
      end
      else ok := false
    done;
    !ok

let stable_interval_around w t =
  let m = materialize w in
  let s = m.segs and n = n_segments m and p = m.period in
  let t = wrap p t in
  let i = index_in s n t in
  if not (mem stable_mask s i) then None
  else if stable_everywhere m then Some (0, p)
  else begin
    (* Extend over the stable neighbours on either side, through the
       wrap; some segment is unstable, so both walks stop. *)
    let st = ref (s.(i) asr 3) and j = ref i in
    while mem stable_mask s (if !j = 0 then n - 1 else !j - 1) do
      j := if !j = 0 then n - 1 else !j - 1;
      st := !st - (seg_stop s n p !j - (s.(!j) asr 3))
    done;
    let e = ref (seg_stop s n p i) and j = ref i in
    while mem stable_mask s (if !j + 1 = n then 0 else !j + 1) do
      j := if !j + 1 = n then 0 else !j + 1;
      e := !e + seg_stop s n p !j - (s.(!j) asr 3)
    done;
    Some (wrap p !st, !e - !st)
  end

let sampled w { w_start; w_stop } =
  let m = materialize w in
  let s = m.segs and n = n_segments m and p = m.period in
  let t = wrap p w_start in
  let i = index_in s n t in
  let c = s.(i) land 7 in
  if c <> c_v0 && c <> c_v1 then None
  else
    let width = w_stop - w_start in
    (* The run of [c] from [i]: one segment, or two when it crosses the
       wrap; a constant is one run ending at the period. *)
    let stop =
      if i = n - 1 && n > 1 && s.(0) land 7 = c then p + seg_stop s n p 0 else seg_stop s n p i
    in
    if width = 0 || t + width <= stop then Some (decode c) else None

(* ---- per-edge delays --------------------------------------------------- *)

let delay_rise_fall ~rise:(rmin, rmax) ~fall:(fmin, fmax) w =
  if rmin < 0 || rmax < rmin || fmin < 0 || fmax < fmin then
    invalid_arg "Waveform.delay_rise_fall: bad delay ranges";
  let m = materialize w in
  let s = m.segs and n = n_segments m in
  (* The per-edge reconstruction assumes a coherent signal: every Rise
     window sits between a 0 and a 1, every Fall window between a 1 and
     a 0.  Degenerate patterns (e.g. a Rise returning to 0) fall back to
     the conservative envelope. *)
  let coherent =
    n <= 1
    ||
    let off = piece_off s n in
    let k = n - off and ok = ref true in
    for i = 0 to k - 1 do
      let c = s.(i + off) land 7 in
      let prev = s.((if i = 0 then k - 1 else i - 1) + off) land 7
      and next = s.((if i + 1 = k then 0 else i + 1) + off) land 7 in
      match decode c with
      | Tvalue.Rise -> if not (prev = c_v0 && next = c_v1) then ok := false
      | Tvalue.Fall -> if not (prev = c_v1 && next = c_v0) then ok := false
      | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable | Tvalue.Change | Tvalue.Unknown -> ()
    done;
    !ok
  in
  if not (all_in known_mask s && coherent) then None
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
        let buf = (scratch (2 * k)).s0 in
        let len = ref 0 in
        for i = 0 to k - 1 do
          let _, _, _, v, post = edges.(i) in
          if hi i > lo i then len := push buf !len (lo i - lo 0) (code v);
          if lo (i + 1) > hi i then len := push buf !len (hi i - lo 0) (code post)
        done;
        Some (rotated ~period:p buf !len (lo 0) ~early:0 ~late:0)

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

(* The first [len] entries of [src] with skew [early, late], through
   [delay]: an envelope delay is the copy's rotation; a rise/fall one
   reads the copied record. *)
let delayed ~delay ~period src len ~early ~late =
  match Delay.rise_fall delay with
  | None -> rotated ~period src len delay.Delay.dmin ~early ~late:(late + Delay.spread delay)
  | Some _ -> apply_delay delay (rotated ~period src len 0 ~early ~late)

let buffer ~invert ~delay w =
  if not invert then apply_delay delay w
  else
    let n = n_segments w in
    let buf = (scratch n).s0 in
    delayed ~delay ~period:w.period buf (relabel_into buf lnot_codes w.segs n) ~early:w.early
      ~late:w.late

(* ---- gates --------------------------------------------------------------- *)

(* The three cases of the combination rule above.  With no varying
   input the fold is one code; with one, its value at each code is a
   packed code map through which the varying input is relabelled; with
   more, the inputs are folded pairwise, each merge writing one scratch
   buffer from the other.  The output inversion relabels the result and
   the delay rotates it as it is copied out. *)
let gate tb ~init ~invert ~delay ws =
  let k = Array.length ws in
  if k = 0 then invalid_arg "Waveform.gate: no inputs";
  let p = ws.(0).period in
  let varying = ref 0 and vi = ref 0 in
  for i = 0 to k - 1 do
    check_period p ws.(i);
    if n_segments ws.(i) > 1 then begin
      incr varying;
      vi := i
    end
  done;
  let init = code init and out = if invert then lnot_codes else ident_codes in
  if !varying = 0 then begin
    let acc = ref init in
    for i = 0 to k - 1 do
      acc := step tb !acc (ws.(i).segs.(0) land 7)
    done;
    let buf = (scratch 1).s0 in
    buf.(0) <- remap out !acc;
    delayed ~delay ~period:p buf 1 ~early:0 ~late:0
  end
  else if !varying = 1 then begin
    let v = ws.(!vi) in
    let pre = ref init in
    for i = 0 to !vi - 1 do
      pre := step tb !pre (ws.(i).segs.(0) land 7)
    done;
    let cmap = ref 0 in
    for x = 0 to 6 do
      let acc = ref (step tb !pre x) in
      for i = !vi + 1 to k - 1 do
        acc := step tb !acc (ws.(i).segs.(0) land 7)
      done;
      cmap := !cmap lor (remap out !acc lsl (3 * x))
    done;
    let n = n_segments v in
    let buf = (scratch n).s0 in
    delayed ~delay ~period:p buf (relabel_into buf !cmap v.segs n) ~early:v.early
      ~late:v.late
  end
  else begin
    let total = ref 0 in
    for i = 0 to k - 1 do
      total := !total + n_segments (materialize ws.(i))
    done;
    let sc = scratch !total in
    let a = ref sc.s0 and b = ref sc.s1 in
    let first = (materialize ws.(0)).segs in
    let len = ref (relabel_into !a (row tb init) first (Array.length first)) in
    for i = 1 to k - 1 do
      len := merge_into tb ~period:p !a !len (materialize ws.(i)).segs !b;
      let t = !a in
      a := !b;
      b := t
    done;
    if invert then
      for i = 0 to !len - 1 do
        let e = !a.(i) in
        !a.(i) <- e land lnot 7 lor remap out (e land 7)
      done;
    delayed ~delay ~period:p !a !len ~early:0 ~late:0
  end

(* ---- printing ---------------------------------------------------------- *)

let pp ppf w =
  for i = 0 to n_segments w - 1 do
    if i > 0 then Format.pp_print_string ppf "  ";
    Format.fprintf ppf "%a %a" Tvalue.pp (seg_val w i) Timebase.pp_ns (seg_start w i)
  done;
  if w.early <> 0 || w.late <> 0 then
    Format.fprintf ppf "  (skew %a/+%a)" Timebase.pp_ns w.early Timebase.pp_ns w.late
