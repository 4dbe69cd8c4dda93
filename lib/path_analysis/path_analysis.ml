open Scald_core

type path = {
  p_from : string;
  p_to : string;
  p_min : Timebase.ps;
  p_max : Timebase.ps;
  p_through : string list;
}

type report = {
  r_paths : path list;
  r_sources : int;
  r_sinks : int;
  r_loops_cut : int;
}

(* An edge of the combinational delay graph: traversing instance [inst]
   from one of its inputs to its output. *)
type edge = {
  e_inst : Netlist.inst;
  e_to : int;  (* output net *)
  e_min : Timebase.ps;
  e_max : Timebase.ps;
}

(* The select input of a multiplexer sees its extra delay (Figure 3-6). *)
let prim_delay (p : Primitive.t) ~input_index =
  match p with
  | Primitive.Mux2 { delay; select_extra } when input_index = 2 -> Delay.add delay select_extra
  | p -> Option.value ~default:Delay.zero (Primitive.element_delay p)

(* Outgoing combinational edges from a net. *)
let edges_from nl net_id =
  let n = Netlist.net nl net_id in
  let wire = Netlist.wire_delay nl n in
  List.filter_map
    (fun inst_id ->
      let inst = Netlist.inst nl inst_id in
      if not (Primitive.is_gating inst.Netlist.i_prim) then None
      else
        match inst.Netlist.i_output with
        | None -> None
        | Some out ->
          let input_index =
            let found = ref 0 in
            Array.iteri
              (fun i (c : Netlist.conn) -> if c.Netlist.c_net = net_id then found := i)
              inst.Netlist.i_inputs;
            !found
          in
          let d = Delay.add wire (prim_delay inst.Netlist.i_prim ~input_index) in
          Some
            { e_inst = inst; e_to = out; e_min = d.Delay.dmin; e_max = d.Delay.dmax })
    (Netlist.fanout n)

let default_sources nl =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      let is_seq_output =
        match n.Netlist.n_driver with
        | None -> true  (* primary input *)
        | Some d -> (
          match (Netlist.inst nl d).Netlist.i_prim with
          | Primitive.Reg _ | Primitive.Latch _ | Primitive.Const _ -> true
          | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _
          | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
          | Primitive.Min_pulse_width _ ->
            false)
      in
      if is_seq_output then acc := n.Netlist.n_id :: !acc);
  List.rev !acc

let default_sinks nl =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      let feeds_seq =
        List.exists
          (fun inst_id ->
            let inst = Netlist.inst nl inst_id in
            match inst.Netlist.i_prim with
            | Primitive.Reg _ | Primitive.Latch _ | Primitive.Setup_hold_check _
            | Primitive.Setup_rise_hold_fall_check _ | Primitive.Min_pulse_width _ ->
              (* only the data input (index 0) terminates a data path *)
              Array.length inst.Netlist.i_inputs > 0
              && inst.Netlist.i_inputs.(0).Netlist.c_net = n.Netlist.n_id
            | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _
            | Primitive.Const _ ->
              false)
          (Netlist.fanout n)
      in
      if feeds_seq then acc := n.Netlist.n_id :: !acc);
  List.rev !acc

type full_path = {
  f_from : string;
  f_to : string;
  f_delays : Delay.t list;
  f_through : string list;
}

(* Outgoing edges with the full Delay.t retained (wire and element
   combined), for the probabilistic analysis. *)
let full_edges_from nl net_id =
  let n = Netlist.net nl net_id in
  let wire = Netlist.wire_delay nl n in
  List.filter_map
    (fun inst_id ->
      let inst = Netlist.inst nl inst_id in
      if not (Primitive.is_gating inst.Netlist.i_prim) then None
      else
        match inst.Netlist.i_output with
        | None -> None
        | Some out ->
          let input_index =
            let found = ref 0 in
            Array.iteri
              (fun i (c : Netlist.conn) -> if c.Netlist.c_net = net_id then found := i)
              inst.Netlist.i_inputs;
            !found
          in
          Some (inst, out, Delay.add wire (prim_delay inst.Netlist.i_prim ~input_index)))
    (Netlist.fanout n)

let enumerate ?sources ?sinks ?(limit = 10_000) nl =
  let sources = match sources with Some s -> s | None -> default_sources nl in
  let sinks = match sinks with Some s -> s | None -> default_sinks nl in
  let sink_set = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace sink_set s ()) sinks;
  let out = ref [] in
  let count = ref 0 in
  let rec dfs src on_stack net delays through =
    if !count < limit then begin
      if Hashtbl.mem sink_set net && net <> src then begin
        incr count;
        out :=
          {
            f_from = (Netlist.net nl src).Netlist.n_name;
            f_to = (Netlist.net nl net).Netlist.n_name;
            f_delays = List.rev delays;
            f_through = List.rev through;
          }
          :: !out
      end;
      List.iter
        (fun (inst, to_net, d) ->
          if not (List.mem to_net on_stack) then
            dfs src (to_net :: on_stack) to_net (d :: delays)
              (inst.Netlist.i_name :: through))
        (full_edges_from nl net)
    end
  in
  List.iter (fun src -> dfs src [ src ] src [] []) sources;
  List.rev !out

let search_limit = 200_000

let analyze ?sources ?sinks nl =
  let sources = match sources with Some s -> s | None -> default_sources nl in
  let sinks = match sinks with Some s -> s | None -> default_sinks nl in
  let sink_set = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace sink_set s ()) sinks;
  let loops_cut = ref 0 in
  let steps = ref 0 in
  (* per (source, sink): aggregated min/max and a witness for the max *)
  let results : (int * int, path) Hashtbl.t = Hashtbl.create 64 in
  let record ~src ~dst ~dmin ~dmax ~through =
    let key = (src, dst) in
    let from_name = (Netlist.net nl src).Netlist.n_name in
    let to_name = (Netlist.net nl dst).Netlist.n_name in
    match Hashtbl.find_opt results key with
    | None ->
      Hashtbl.replace results key
        { p_from = from_name; p_to = to_name; p_min = dmin; p_max = dmax;
          p_through = List.rev through }
    | Some p ->
      Hashtbl.replace results key
        {
          p with
          p_min = min p.p_min dmin;
          p_max = max p.p_max dmax;
          p_through = (if dmax > p.p_max then List.rev through else p.p_through);
        }
  in
  let rec dfs src on_stack net dmin dmax through =
    incr steps;
    if !steps > search_limit then incr loops_cut
    else begin
      if Hashtbl.mem sink_set net && net <> src then
        record ~src ~dst:net ~dmin ~dmax ~through;
      List.iter
        (fun e ->
          if List.mem e.e_to on_stack then incr loops_cut
          else
            dfs src (e.e_to :: on_stack) e.e_to (dmin + e.e_min) (dmax + e.e_max)
              (e.e_inst.Netlist.i_name :: through))
        (edges_from nl net)
    end
  in
  List.iter (fun src -> dfs src [ src ] src 0 0 []) sources;
  {
    r_paths = Hashtbl.fold (fun _ p acc -> p :: acc) results [];
    r_sources = List.length sources;
    r_sinks = List.length sinks;
    r_loops_cut = !loops_cut;
  }

let worst r =
  List.fold_left
    (fun acc p -> match acc with None -> Some p | Some q -> if p.p_max > q.p_max then Some p else acc)
    None r.r_paths

let violations r ~max_delay = List.filter (fun p -> p.p_max > max_delay) r.r_paths

let pp_path ppf p =
  Format.fprintf ppf "%s -> %s: %a/%a ns via %s" p.p_from p.p_to Timebase.pp_ns p.p_min
    Timebase.pp_ns p.p_max
    (String.concat ", " p.p_through)

let pp ppf r =
  Format.fprintf ppf "@[<v>WORST-CASE PATH ANALYSIS (%d sources, %d sinks%s)@,"
    r.r_sources r.r_sinks
    (if r.r_loops_cut > 0 then Printf.sprintf ", %d loops cut" r.r_loops_cut else "");
  List.iter (fun p -> Format.fprintf ppf "  %a@," pp_path p)
    (List.sort (fun a b -> compare (b.p_max, b.p_from) (a.p_max, a.p_from)) r.r_paths);
  Format.fprintf ppf "@]"

(* ---- §4.2.3: automatic correlation (CORR) advisor ----------------------- *)

module Corr = struct
  type advice = {
    a_register : string;
    a_data_net : string;
    a_source : string;
    a_min_path : Timebase.ps;
    a_clock_spread : Timebase.ps;
    a_hold : Timebase.ps;
    a_required_delay : Timebase.ps;
  }

  (* Walk a clock net back through its buffer/gate chain, accumulating
     delay spreads and the assertion skew at the source. *)
  let clock_spread nl net_id =
    let rec walk visited net_id =
      if List.mem net_id visited then 0
      else
        let n = Netlist.net nl net_id in
        let wire = Delay.spread (Netlist.wire_delay nl n) in
        match n.Netlist.n_driver with
        | None -> (
          match n.Netlist.n_assertion with
          | Some a ->
            let wf =
              Assertion.to_waveform (Netlist.defaults nl) (Netlist.timebase nl) a
            in
            let early, late = Waveform.skew wf in
            wire + (late - early)
          | None -> wire)
        | Some inst_id -> (
          let inst = Netlist.inst nl inst_id in
          match inst.Netlist.i_prim with
          | Primitive.Buf { delay; _ } | Primitive.Gate { delay; _ } ->
            let upstream =
              Array.fold_left
                (fun acc (c : Netlist.conn) ->
                  max acc (walk (net_id :: visited) c.Netlist.c_net))
                0 inst.Netlist.i_inputs
            in
            wire + Delay.spread delay + upstream
          | Primitive.Mux2 { delay; _ } ->
            let upstream =
              Array.fold_left
                (fun acc (c : Netlist.conn) ->
                  max acc (walk (net_id :: visited) c.Netlist.c_net))
                0 inst.Netlist.i_inputs
            in
            wire + Delay.spread delay + upstream
          | Primitive.Reg _ | Primitive.Latch _ | Primitive.Const _
          | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
          | Primitive.Min_pulse_width _ ->
            wire)
    in
    walk [] net_id

  (* The clock-assertion source net a clock pin traces back to, if any. *)
  let clock_source nl net_id =
    let rec walk visited net_id =
      if List.mem net_id visited then None
      else
        let n = Netlist.net nl net_id in
        match n.Netlist.n_driver with
        | None -> if n.Netlist.n_assertion <> None then Some net_id else None
        | Some inst_id -> (
          let inst = Netlist.inst nl inst_id in
          match inst.Netlist.i_prim with
          | Primitive.Buf _ | Primitive.Gate _ | Primitive.Mux2 _ ->
            Array.fold_left
              (fun acc (c : Netlist.conn) ->
                match acc with
                | Some _ -> acc
                | None -> walk (net_id :: visited) c.Netlist.c_net)
              None inst.Netlist.i_inputs
          | Primitive.Reg _ | Primitive.Latch _ | Primitive.Const _
          | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
          | Primitive.Min_pulse_width _ ->
            None)
    in
    walk [] net_id

  (* The hold requirement attached to a data net by a checker. *)
  let hold_of nl data_net =
    let best = ref 0 in
    Netlist.iter_insts nl (fun inst ->
        match inst.Netlist.i_prim with
        | Primitive.Setup_hold_check { hold; _ }
        | Primitive.Setup_rise_hold_fall_check { hold; _ } ->
          if
            Array.length inst.Netlist.i_inputs > 0
            && inst.Netlist.i_inputs.(0).Netlist.c_net = data_net
          then best := max !best hold
        | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _ | Primitive.Reg _
        | Primitive.Latch _ | Primitive.Min_pulse_width _ | Primitive.Const _ ->
          ());
    !best

  let advise nl =
    let acc = ref [] in
    Netlist.iter_insts nl (fun dst ->
        match dst.Netlist.i_prim with
        | Primitive.Reg _ | Primitive.Latch _ ->
          let data_net = dst.Netlist.i_inputs.(0).Netlist.c_net in
          let clock_net = dst.Netlist.i_inputs.(1).Netlist.c_net in
          let spread = clock_spread nl clock_net in
          let dst_src = clock_source nl clock_net in
          let hold = hold_of nl data_net in
          (* same-clock source registers feeding this data input *)
          Netlist.iter_insts nl (fun src ->
              match src.Netlist.i_prim, src.Netlist.i_output with
              | (Primitive.Reg _ | Primitive.Latch _), Some out ->
                let src_clock = src.Netlist.i_inputs.(1).Netlist.c_net in
                if dst_src <> None && clock_source nl src_clock = dst_src then begin
                  (* the race includes the source's own clock-to-output
                     minimum delay *)
                  let src_dmin =
                    match src.Netlist.i_prim with
                    | Primitive.Reg { delay; _ } | Primitive.Latch { delay; _ } ->
                      delay.Delay.dmin
                    | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _
                    | Primitive.Setup_hold_check _
                    | Primitive.Setup_rise_hold_fall_check _
                    | Primitive.Min_pulse_width _ | Primitive.Const _ ->
                      0
                  in
                  let r = analyze ~sources:[ out ] ~sinks:[ data_net ] nl in
                  List.iter
                    (fun p ->
                      if p.p_to = (Netlist.net nl data_net).Netlist.n_name then begin
                        let required = spread + hold - (src_dmin + p.p_min) in
                        if required > 0 then
                          acc :=
                            {
                              a_register = dst.Netlist.i_name;
                              a_data_net = (Netlist.net nl data_net).Netlist.n_name;
                              a_source = src.Netlist.i_name;
                              a_min_path = src_dmin + p.p_min;
                              a_clock_spread = spread;
                              a_hold = hold;
                              a_required_delay = required;
                            }
                            :: !acc
                      end)
                    r.r_paths
                end
              | _, _ -> ())
        | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _
        | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
        | Primitive.Min_pulse_width _ | Primitive.Const _ ->
          ());
    List.rev !acc

  let pp_advice ppf a =
    Format.fprintf ppf
      "%s: feedback from %s reaches %s in %a ns minimum, but the clock is \
       uncertain over %a ns with a %a ns hold -- insert a CORR delay of at \
       least %a ns"
      a.a_register a.a_source a.a_data_net Timebase.pp_ns a.a_min_path Timebase.pp_ns
      a.a_clock_spread Timebase.pp_ns a.a_hold Timebase.pp_ns a.a_required_delay
end
