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
  keep : bool;
  mutable depth : int;
  mutable lane : int;
  mutable completed : span list;  (* newest first; empty unless [keep] *)
  totals : (string, float ref) Hashtbl.t;  (* µs per span name *)
  mutable names : string list;  (* [totals]' keys, newest first *)
}

let create ?(clock = Unix.gettimeofday) ?(keep = true) () =
  {
    clock;
    t0 = clock ();
    keep;
    depth = 0;
    lane = 0;
    completed = [];
    totals = Hashtbl.create 16;
    names = [];
  }

let now_us t = (t.clock () -. t.t0) *. 1e6
let set_lane t lane = t.lane <- lane
let lane t = t.lane

let with_span t name f =
  let start = now_us t in
  let depth = t.depth in
  t.depth <- depth + 1;
  let finish () =
    t.depth <- depth;
    let dur = now_us t -. start in
    (match Hashtbl.find_opt t.totals name with
    | Some cell -> cell := !cell +. dur
    | None ->
      Hashtbl.add t.totals name (ref dur);
      t.names <- name :: t.names);
    if t.keep then
      t.completed <-
        { s_name = name; s_ts_us = start; s_dur_us = dur; s_depth = depth; s_lane = t.lane }
        :: t.completed
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.completed
let totals t = List.rev_map (fun name -> (name, !(Hashtbl.find t.totals name))) t.names

let total_us t name =
  match Hashtbl.find_opt t.totals name with Some cell -> !cell | None -> 0.
