type value = L0 | L1 | LX | LU | LD | LE

let pp_value ppf v =
  Format.pp_print_char ppf
    (match v with L0 -> '0' | L1 -> '1' | LX -> 'X' | LU -> 'U' | LD -> 'D' | LE -> 'E')

let value_equal (a : value) b = a = b

type gate_kind = And | Or | Xor | Nand | Nor | Not | Buf

type element =
  | Gate of gate_kind
  | Register  (* inputs: [| data; clock |] *)
  | Latch     (* inputs: [| data; enable |] *)

type gate = {
  g_name : string;
  g_elem : element;
  g_dmin : int;
  g_dmax : int;
  g_inputs : int array;
  g_output : int;
  mutable g_state : value;  (* held value for storage elements *)
  mutable g_last_clock : value;
}

type circuit = {
  mutable nets : string array;
  mutable n_nets : int;
  mutable gates : gate array;
  mutable n_gates : int;
  mutable fanout : int list array;  (* net -> gate ids *)
  mutable driven : bool array;
}

let create () =
  {
    nets = [||];
    n_nets = 0;
    gates = [||];
    n_gates = 0;
    fanout = [||];
    driven = [||];
  }

let grow arr n dummy =
  if n < Array.length arr then arr
  else Array.append arr (Array.make (max 16 (Array.length arr)) dummy)

let add_net c name =
  c.nets <- grow c.nets c.n_nets "";
  c.fanout <- grow c.fanout c.n_nets [];
  c.driven <- grow c.driven c.n_nets false;
  let id = c.n_nets in
  c.nets.(id) <- name;
  c.fanout.(id) <- [];
  c.driven.(id) <- false;
  c.n_nets <- c.n_nets + 1;
  id

let arity = function
  | Not | Buf -> Some 1
  | And | Or | Xor | Nand | Nor -> None

let dummy_gate =
  { g_name = ""; g_elem = Gate Buf; g_dmin = 0; g_dmax = 0; g_inputs = [||];
    g_output = -1; g_state = LX; g_last_clock = LX }

let add_element c ?name elem ~dmin ~dmax ~inputs ~output =
  if dmin < 0 || dmax < dmin then invalid_arg "Logic_sim.add_gate: need 0 <= dmin <= dmax";
  (match elem with
  | Gate kind -> (
    match arity kind with
    | Some n when List.length inputs <> n ->
      invalid_arg "Logic_sim.add_gate: arity mismatch"
    | Some _ | None -> ())
  | Register | Latch ->
    if List.length inputs <> 2 then invalid_arg "Logic_sim: storage elements take 2 inputs");
  if inputs = [] then invalid_arg "Logic_sim.add_gate: no inputs";
  if c.driven.(output) then invalid_arg "Logic_sim.add_gate: net already driven";
  c.driven.(output) <- true;
  c.gates <- grow c.gates c.n_gates dummy_gate;
  let id = c.n_gates in
  let name = match name with Some n -> n | None -> Printf.sprintf "g%d" id in
  c.gates.(id) <-
    { g_name = name; g_elem = elem; g_dmin = dmin; g_dmax = dmax;
      g_inputs = Array.of_list inputs; g_output = output; g_state = LX;
      g_last_clock = LX };
  c.n_gates <- c.n_gates + 1;
  List.iter (fun i -> c.fanout.(i) <- id :: c.fanout.(i)) inputs;
  ignore id

let add_gate c ?name kind ~dmin ~dmax ~inputs ~output =
  add_element c ?name (Gate kind) ~dmin ~dmax ~inputs ~output

let add_register c ?name ~dmin ~dmax ~data ~clock ~output () =
  add_element c ?name Register ~dmin ~dmax ~inputs:[ data; clock ] ~output

let add_latch c ?name ~dmin ~dmax ~data ~enable ~output () =
  add_element c ?name Latch ~dmin ~dmax ~inputs:[ data; enable ] ~output

let n_gates c = c.n_gates
let n_nets c = c.n_nets

(* ---- three-valued gate functions -------------------------------------------- *)

type tri = T0 | T1 | TX

let tri_of_value = function L0 -> T0 | L1 -> T1 | LX | LU | LD | LE -> TX

let tri_not = function T0 -> T1 | T1 -> T0 | TX -> TX

let tri_and a b =
  match a, b with
  | T0, _ | _, T0 -> T0
  | T1, T1 -> T1
  | TX, _ | _, TX -> TX

let tri_or a b =
  match a, b with
  | T1, _ | _, T1 -> T1
  | T0, T0 -> T0
  | TX, _ | _, TX -> TX

let tri_xor a b =
  match a, b with
  | TX, _ | _, TX -> TX
  | T0, x | x, T0 -> x
  | T1, T1 -> T0

let eval_gate kind ins =
  let fold f init = Array.fold_left (fun acc v -> f acc (tri_of_value v)) init ins in
  let v =
    match kind with
    | And -> fold tri_and T1
    | Nand -> tri_not (fold tri_and T1)
    | Or -> fold tri_or T0
    | Nor -> tri_not (fold tri_or T0)
    | Xor -> fold tri_xor T0
    | Not -> tri_not (tri_of_value ins.(0))
    | Buf -> tri_of_value ins.(0)
  in
  match v with T0 -> L0 | T1 -> L1 | TX -> LX

(* ---- event wheel --------------------------------------------------------------- *)

module Imap = Map.Make (Int)

type trace = (int * value) list

type result = { traces : trace array; events : int; final : value array }

type sim = {
  c : circuit;
  mutable wheel : (int * value) list Imap.t;  (* time -> (net, value) *)
  values : value array;
  target : value array;  (* last scheduled final value per net *)
  final_at : int array;  (* time of the last scheduled final transition *)
  trace_rev : (int * value) list array;
  mutable n_events : int;
}

let schedule s time net v =
  s.wheel <-
    Imap.update time
      (function None -> Some [ (net, v) ] | Some l -> Some ((net, v) :: l))
      s.wheel

(* A gate's inputs changed at [time]: decide what to do with its output
   (§1.4.1.1 — transitional values between dmin and dmax, E on potential
   spikes). *)
let update_gate s time (g : gate) =
  let ins = Array.map (fun i -> s.values.(i)) g.g_inputs in
  let v_new =
    match g.g_elem with
    | Gate kind -> eval_gate kind ins
    | Register ->
      let clock = ins.(1) in
      let prev = g.g_last_clock in
      g.g_last_clock <- clock;
      (match prev, clock with
      | L0, L1 ->
        (* a clean rising edge samples the data *)
        g.g_state <- (match ins.(0) with L0 -> L0 | L1 -> L1 | _ -> LX);
        g.g_state
      | (L0 | L1 | LX | LU | LD | LE), (LX | LU | LD | LE) ->
        (* the simulator cannot tell whether the register clocked *)
        g.g_state <- LX;
        LX
      | _, (L0 | L1) -> g.g_state)
    | Latch -> (
      match ins.(1) with
      | L1 ->
        g.g_state <- (match ins.(0) with L0 -> L0 | L1 -> L1 | _ -> LX);
        g.g_state
      | L0 -> g.g_state
      | LX | LU | LD | LE ->
        g.g_state <- LX;
        LX)
  in
  let out = g.g_output in
  if not (value_equal v_new s.target.(out)) then begin
    let t_min = time + g.g_dmin and t_max = time + g.g_dmax in
    (* If a previously scheduled change is still in flight, the output
       may glitch: mark the transitional region as a potential spike. *)
    let in_flight = s.final_at.(out) > t_min in
    let trans =
      if in_flight then LE
      else
        match s.target.(out), v_new with
        | L0, L1 -> LU
        | L1, L0 -> LD
        | _, _ -> LX
    in
    if g.g_dmin <> g.g_dmax || in_flight then schedule s t_min out trans;
    schedule s t_max out v_new;
    s.target.(out) <- v_new;
    s.final_at.(out) <- t_max
  end

let apply_event s time (net, v) =
  if not (value_equal s.values.(net) v) then begin
    s.values.(net) <- v;
    s.trace_rev.(net) <- (time, v) :: s.trace_rev.(net);
    s.n_events <- s.n_events + 1;
    List.iter (fun gid -> update_gate s time s.c.gates.(gid)) s.c.fanout.(net)
  end

let simulate c ~stimuli ~horizon =
  let s =
    {
      c;
      wheel = Imap.empty;
      values = Array.make (max 1 c.n_nets) LX;
      target = Array.make (max 1 c.n_nets) LX;
      final_at = Array.make (max 1 c.n_nets) min_int;
      trace_rev = Array.make (max 1 c.n_nets) [];
      n_events = 0;
    }
  in
  List.iter
    (fun (net, waveform) ->
      if c.driven.(net) then invalid_arg "Logic_sim.simulate: stimulus on a driven net";
      List.iter (fun (t, v) -> schedule s t net v) waveform)
    stimuli;
  let rec run () =
    match Imap.min_binding_opt s.wheel with
    | Some (t, evs) when t <= horizon ->
      s.wheel <- Imap.remove t s.wheel;
      List.iter (apply_event s t) (List.rev evs);
      run ()
    | Some _ | None -> ()
  in
  run ();
  {
    traces = Array.map List.rev s.trace_rev;
    events = s.n_events;
    final = Array.copy s.values;
  }

(* ---- pulse analysis --------------------------------------------------------------- *)

let pulses trace ~at_least =
  let rec go current_start acc = function
    | [] -> List.rev acc  (* an open pulse at the horizon is not counted *)
    | (t, v) :: rest -> (
      match current_start with
      | Some s when not (value_equal v at_least) -> go None ((s, t - s) :: acc) rest
      | Some _ -> go current_start acc rest
      | None -> if value_equal v at_least then go (Some t) acc rest else go None acc rest)
  in
  go None [] trace

let min_pulse_violations trace ~level ~min_width ~horizon =
  ignore horizon;
  pulses trace ~at_least:level
  |> List.filter (fun (_, w) -> w < min_width)
  |> List.length

(* ---- exhaustive verification --------------------------------------------------------- *)

type exhaustive = {
  vectors_simulated : int;
  total_events : int;
  settle_min : int;
  settle_max : int;
}

let verify_exhaustive c ~inputs ~outputs ~settle =
  let n = List.length inputs in
  if n > 24 then invalid_arg "Logic_sim.verify_exhaustive: too many inputs";
  let vectors = 1 lsl n in
  let gray k = k lxor (k lsr 1) in
  let stimuli =
    List.mapi
      (fun bit net ->
        let waveform =
          List.init vectors (fun k ->
              let v = if gray k land (1 lsl bit) <> 0 then L1 else L0 in
              (k * settle, v))
        in
        (net, waveform))
      inputs
  in
  let horizon = vectors * settle in
  let r = simulate c ~stimuli ~horizon in
  let out_events =
    List.concat_map (fun o -> List.map fst r.traces.(o)) outputs |> List.sort Int.compare
  in
  let settle_of k =
    (* last output event within this vector's window, relative to its start *)
    let start = k * settle and stop = (k + 1) * settle in
    List.fold_left
      (fun acc t -> if t >= start && t < stop then max acc (t - start) else acc)
      0 out_events
  in
  let settles = List.init vectors settle_of in
  {
    vectors_simulated = vectors;
    total_events = r.events;
    settle_min = List.fold_left min max_int settles;
    settle_max = List.fold_left max 0 settles;
  }
