open Scald_core

type event = { e_seq : int; e_inst : int; e_net : int }

type t = {
  buf : event array;
  cap : int;
  mutable total : int;  (* events ever recorded *)
}

let none = { e_seq = -1; e_inst = -1; e_net = -1 }

let create ~capacity =
  if capacity < 1 then invalid_arg "Causal.create: capacity must be >= 1";
  { buf = Array.make capacity none; cap = capacity; total = 0 }

let capacity t = t.cap

let record t ~inst_id ~net_id =
  t.buf.(t.total mod t.cap) <-
    { e_seq = t.total; e_inst = inst_id; e_net = net_id };
  t.total <- t.total + 1

let hook t ~inst_id ~net_id = record t ~inst_id ~net_id

let recorded t = t.total

let events t =
  let n = min t.total t.cap in
  List.init n (fun i -> t.buf.((t.total - n + i) mod t.cap))

(* Latest retained event on [net_id] with a sequence number < [before]. *)
let find_last t ~net_id ~before =
  let best = ref None in
  let n = min t.total t.cap in
  for i = 0 to n - 1 do
    let e = t.buf.(i) in
    if e.e_net = net_id && e.e_seq < before then
      match !best with
      | Some b when b.e_seq >= e.e_seq -> ()
      | _ -> best := Some e
  done;
  !best

type step = {
  st_seq : int;
  st_inst : string;
  st_prim : string;
  st_net : string;
  st_value : string;
  st_at_ns : float option;
}

let step_of ev (e : event) =
  let nl = Eval.netlist ev in
  let inst = Netlist.inst nl e.e_inst in
  let net = Netlist.net nl e.e_net in
  let value = Eval.value ev e.e_net in
  let at_ns =
    match Waveform.change_windows value with
    | { Waveform.w_start; _ } :: _ -> Some (Timebase.ns_of_ps w_start)
    | [] -> None
  in
  {
    st_seq = e.e_seq;
    st_inst = inst.Netlist.i_name;
    st_prim = Primitive.mnemonic inst.Netlist.i_prim;
    st_net = net.Netlist.n_name;
    st_value = Format.asprintf "%a" Waveform.pp value;
    st_at_ns = at_ns;
  }

let chain ?(depth = 8) t ev ~net_id ~before =
  let rec walk net_id before acc left =
    if left = 0 then acc
    else
      match find_last t ~net_id ~before with
      | None -> acc
      | Some e ->
        let acc = step_of ev e :: acc in
        (* follow the most recent input event of the driving instance *)
        let inst = Netlist.inst (Eval.netlist ev) e.e_inst in
        let best = ref None in
        Array.iter
          (fun (c : Netlist.conn) ->
            match find_last t ~net_id:c.Netlist.c_net ~before:e.e_seq with
            | None -> ()
            | Some p -> (
              match !best with
              | Some b when b.e_seq >= p.e_seq -> ()
              | _ -> best := Some p))
          inst.Netlist.i_inputs;
        (match !best with
        | None -> acc
        | Some p -> walk p.e_net (p.e_seq + 1) acc (left - 1))
  in
  walk net_id before [] (max 1 depth)

let explain_signal ?depth ?(before = max_int) t ev name =
  match Netlist.find (Eval.netlist ev) name with
  | None -> []
  | Some id -> chain ?depth t ev ~net_id:id ~before

let explain ?depth t ev (v : Check.t) = explain_signal ?depth t ev v.Check.v_signal

let pp_chain ppf steps =
  List.iter
    (fun s ->
      Format.fprintf ppf "    #%-6d %-24s %-16s -> %-24s%s@," s.st_seq s.st_inst
        s.st_prim s.st_net
        (match s.st_at_ns with
        | Some ns -> Printf.sprintf "  first transition at %.1f ns" ns
        | None -> ""))
    steps;
  match List.rev steps with
  | [] -> ()
  | final :: _ -> Format.fprintf ppf "      value %s: %s@," final.st_net final.st_value

let pp_signal_chain t ev ppf label name =
  match Netlist.find (Eval.netlist ev) name with
  | None -> Format.fprintf ppf "  %s %s: (unknown signal)@," label name
  | Some id -> (
    match chain t ev ~net_id:id ~before:max_int with
    | [] ->
      Format.fprintf ppf
        "  %s %s: no recorded events — value from an assertion, the initial \
         state, or outside the trace buffer@,"
        label name
    | steps ->
      Format.fprintf ppf "  %s %s (root cause first):@," label name;
      pp_chain ppf steps)

let pp_explanation t ev ppf (v : Check.t) =
  Format.fprintf ppf "@[<v>EXPLAIN %a@," Check.pp v;
  pp_signal_chain t ev ppf "signal" v.Check.v_signal;
  (match v.Check.v_clock with
  | Some c when c <> v.Check.v_signal -> pp_signal_chain t ev ppf "clock" c
  | Some _ | None -> ());
  Format.fprintf ppf "@]"
