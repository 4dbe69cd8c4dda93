type span = {
  s_name : string;
  s_ts_us : float;
  s_dur_us : float;
  s_depth : int;
  s_lane : int;
}

type t = {
  clock : unit -> float;
  t0 : float;
  mutable depth : int;
  mutable lane : int;
  mutable n_completed : int;
  mutable completed : span list;  (* newest first *)
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; t0 = clock (); depth = 0; lane = 0; n_completed = 0; completed = [] }

let now_us t = (t.clock () -. t.t0) *. 1e6
let set_lane t lane = t.lane <- lane
let lane t = t.lane

let record t s =
  t.completed <- s :: t.completed;
  t.n_completed <- t.n_completed + 1

let with_span t name f =
  let start = now_us t in
  let depth = t.depth in
  t.depth <- depth + 1;
  let finish () =
    t.depth <- depth;
    record t
      {
        s_name = name;
        s_ts_us = start;
        s_dur_us = now_us t -. start;
        s_depth = depth;
        s_lane = t.lane;
      }
  in
  Fun.protect ~finally:finish f

let mark t name =
  let ts = now_us t in
  record t
    { s_name = name; s_ts_us = ts; s_dur_us = 0.; s_depth = t.depth; s_lane = t.lane }

let spans t = List.rev t.completed
let n_completed t = t.n_completed

let total_us t name =
  List.fold_left
    (fun acc s -> if s.s_name = name then acc +. s.s_dur_us else acc)
    0. t.completed

let pp ppf t =
  Format.fprintf ppf "@[<v>PHASE PROFILE@,";
  (* present parents before children: sort by start time, then by depth *)
  let by_start =
    List.stable_sort
      (fun a b ->
        match compare a.s_ts_us b.s_ts_us with 0 -> compare a.s_depth b.s_depth | c -> c)
      (spans t)
  in
  List.iter
    (fun s ->
      Format.fprintf ppf "  %s%-*s %10.1f us@," (String.make (2 * s.s_depth) ' ')
        (max 1 (28 - (2 * s.s_depth)))
        s.s_name s.s_dur_us)
    by_start;
  Format.fprintf ppf "@]"
