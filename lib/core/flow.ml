(* Static signal-class inference: one forward sweep over the Sched
   condensation in topological order, relaxing each feedback component
   to a bounded fixpoint and widening to Unknown when it refuses to
   settle.  Purely structural — evaluation state is never read. *)

type cls =
  | Const of Tvalue.t
  | Stable
  | Clock of { domains : int list; gated : bool }
  | Data of int list
  | Unknown

type t = {
  nl : Netlist.t;
  classes : cls array;
  rc : bool array;
}

(* Domain sets are short sorted int lists (one entry per asserted clock
   root); a merge keeps them canonical so classes compare structurally. *)
let union a b =
  let rec go a b =
    match a, b with
    | [], rest | rest, [] -> rest
    | x :: ra, y :: rb ->
      if x = y then x :: go ra rb
      else if x < y then x :: go ra b
      else y :: go a rb
  in
  go a b

let domains_of = function
  | Clock { domains; _ } | Data domains -> domains
  | Const _ | Stable | Unknown -> []

let is_fixed_cls = function Const _ | Stable -> true | _ -> false

(* Worst-case combination for gates and multiplexers: a changing input
   makes the output data; clocks survive only pure gating (all other
   inputs provably stable), in which case the domains union through. *)
let combine inputs =
  if List.exists (fun c -> c = Some Unknown) inputs then Some Unknown
  else
    match List.filter_map Fun.id inputs with
    | [] -> None
    | known ->
      let doms =
        List.fold_left (fun acc c -> union acc (domains_of c)) [] known
      in
      let has_data = List.exists (function Data _ -> true | _ -> false) known in
      let has_clock = List.exists (function Clock _ -> true | _ -> false) known in
      if has_data then Some (Data doms)
      else if has_clock then Some (Clock { domains = doms; gated = true })
      else Some Stable

let analyse ?sched:sched_opt ?(case_nets = []) nl =
  let sched = match sched_opt with Some s -> s | None -> Sched.compute nl in
  let n_nets = Netlist.n_nets nl in
  let volatile = Array.make (max 1 n_nets) false in
  List.iter (fun id -> if id >= 0 && id < n_nets then volatile.(id) <- true) case_nets;
  (* None is bottom; [pinned] nets never take a transfer class. *)
  let work : cls option array = Array.make (max 1 n_nets) None in
  let pinned = Array.make (max 1 n_nets) false in
  let rc = Array.make (max 1 n_nets) false in
  let tb = Netlist.timebase nl in
  let defaults = Netlist.defaults nl in
  (* A net case analysis may substitute is not provably stable for the
     run, whatever the static cone says (§2.7). *)
  let demote id c =
    match c with (Const _ | Stable) when volatile.(id) -> Data [] | c -> c
  in
  Netlist.iter_nets nl (fun n ->
      let id = n.Netlist.n_id in
      match n.Netlist.n_assertion with
      | Some a when Assertion.is_clock a ->
        (* An asserted clock is a domain root even when it is also
           driven: the assertion, not the driver, defines its edges. *)
        work.(id) <- Some (Clock { domains = [ id ]; gated = false });
        pinned.(id) <- true;
        rc.(id) <- true
      | Some a when n.Netlist.n_driver = None ->
        let wf = Assertion.to_waveform defaults tb a in
        let c = if Waveform.stable_everywhere wf then Stable else Data [] in
        work.(id) <- Some (demote id c);
        pinned.(id) <- true
      | Some _ -> () (* driven .S net: the driver's class is the truth *)
      | None ->
        if n.Netlist.n_driver = None then begin
          (* the verifier assumes undriven unasserted nets stable (§2.5) *)
          work.(id) <- Some (demote id Stable);
          pinned.(id) <- true
        end);
  let transfer (i : Netlist.inst) =
    let inc k =
      let c = i.Netlist.i_inputs.(k) in
      match work.(c.Netlist.c_net) with
      | Some (Const v) when c.Netlist.c_invert -> Some (Const (Tvalue.lnot v))
      | x -> x
    in
    let all_known l = List.for_all (function Some _ -> true | None -> false) l in
    let const_zero_like = function Some (Const _) -> true | _ -> false in
    let doms l =
      List.fold_left
        (fun acc c ->
          match c with Some c -> union acc (domains_of c) | None -> acc)
        [] l
    in
    match i.Netlist.i_prim with
    | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
    | Primitive.Min_pulse_width _ ->
      None
    | Primitive.Const v -> Some (Const v)
    | Primitive.Buf { invert; _ } -> (
      match inc 0 with
      | Some (Const v) -> Some (Const (if invert then Tvalue.lnot v else v))
      | x -> x)
    | Primitive.Gate { n_inputs; _ } -> combine (List.init n_inputs inc)
    | Primitive.Mux2 _ -> combine [ inc 0; inc 1; inc 2 ]
    | Primitive.Reg { has_set_reset; _ } ->
      (* The output moves only at clock edges (and on set/reset): its
         domains come from the control inputs, not the sampled data. *)
      let ctrl = inc 1 :: (if has_set_reset then [ inc 2; inc 3 ] else []) in
      let sr = if has_set_reset then [ inc 2; inc 3 ] else [] in
      if List.exists (fun c -> c = Some Unknown) ctrl then Some Unknown
      else if
        (* a stable clock has no edges; set/reset must be tied inactive
           (a mere .S window could still fire the overlay) *)
        (match inc 1 with Some c -> is_fixed_cls c | None -> false)
        && List.for_all const_zero_like sr
      then Some Stable
      else if not (all_known ctrl) then None
      else Some (Data (doms ctrl))
    | Primitive.Latch { has_set_reset; _ } ->
      (* Transparent while enabled: data domains flow through. *)
      let sr = if has_set_reset then [ inc 2; inc 3 ] else [] in
      let all = inc 0 :: inc 1 :: sr in
      if List.exists (fun c -> c = Some Unknown) all then Some Unknown
      else if
        (match inc 0 with Some c -> is_fixed_cls c | None -> false)
        && (match inc 1 with Some c -> is_fixed_cls c | None -> false)
        && List.for_all const_zero_like sr
      then Some Stable
      else if not (all_known all) then None
      else Some (Data (doms all))
  in
  (* One transfer application; returns whether anything moved. *)
  let apply (i : Netlist.inst) =
    match i.Netlist.i_output with
    | None -> false
    | Some o ->
      let changed = ref false in
      if not pinned.(o) then begin
        let c =
          match transfer i with Some c -> Some (demote o c) | None -> None
        in
        if c <> work.(o) then begin
          work.(o) <- c;
          changed := true
        end
      end;
      if
        (not rc.(o))
        && Array.exists
             (fun (c : Netlist.conn) -> rc.(c.Netlist.c_net))
             i.Netlist.i_inputs
      then begin
        rc.(o) <- true;
        changed := true
      end;
      !changed
  in
  (* Component ids are in reverse topological order (Sched), so a sweep
     from the highest id visits producers before consumers; each acyclic
     component needs exactly one application, feedback components relax
     to a fixpoint under a budget and widen to Unknown past it. *)
  for sid = Sched.n_sccs sched - 1 downto 0 do
    match Sched.members sched sid with
    | [] -> ()
    | [ id ] when Sched.cyclic_slot sched id < 0 -> ignore (apply (Netlist.inst nl id))
    | ids ->
      (* descending id order: where the budget cuts off depends on it *)
      let members = List.rev_map (Netlist.inst nl) ids in
      let budget = 8 + (2 * List.length members) in
      let rec relax k =
        let changed =
          List.fold_left (fun acc i -> apply i || acc) false members
        in
        if changed then
          if k >= budget then begin
            (* widening: pin every member output to Unknown, then let
               the (monotone, hence terminating) clock-cone flag finish *)
            List.iter
              (fun (i : Netlist.inst) ->
                match i.Netlist.i_output with
                | Some o when not pinned.(o) ->
                  work.(o) <- Some Unknown;
                  pinned.(o) <- true
                | _ -> ())
              members;
            relax 0
          end
          else relax (k + 1)
      in
      relax 0
  done;
  let classes =
    Array.init (max 1 n_nets) (fun id ->
        if id >= n_nets then Unknown
        else match work.(id) with Some c -> c | None -> Unknown)
  in
  { nl; classes; rc }

let cls t id = t.classes.(id)
let domains t id = domains_of t.classes.(id)
let reaches_clock t id = t.rc.(id)

let class_counts t =
  let c = ref 0 and s = ref 0 and ck = ref 0 and d = ref 0 and u = ref 0 in
  Netlist.iter_nets t.nl (fun n ->
      match t.classes.(n.Netlist.n_id) with
      | Const _ -> incr c
      | Stable -> incr s
      | Clock _ -> incr ck
      | Data _ -> incr d
      | Unknown -> incr u);
  (!c, !s, !ck, !d, !u)

let pp_classes ppf t =
  let name id = (Netlist.net t.nl id).Netlist.n_name in
  let domain_names ds = String.concat ", " (List.map name ds) in
  Format.fprintf ppf "@[<v>SIGNAL CLASS LISTING@,@,";
  Netlist.iter_nets t.nl (fun n ->
      let id = n.Netlist.n_id in
      let cls_str =
        match t.classes.(id) with
        | Const v -> Printf.sprintf "const %c" (Tvalue.to_char v)
        | Stable -> "stable"
        | Clock { domains; gated } ->
          Printf.sprintf "clock%s {%s}"
            (if gated then " (gated)" else "")
            (domain_names domains)
        | Data [] -> "data {}"
        | Data ds -> Printf.sprintf "data {%s}" (domain_names ds)
        | Unknown -> "unknown"
      in
      let witness =
        match n.Netlist.n_assertion with
        | Some a -> Printf.sprintf "asserted %s" (Assertion.to_string a)
        | None -> (
          match n.Netlist.n_driver with
          | None -> "undriven, assumed stable"
          | Some d ->
            Printf.sprintf "from %s"
              (Primitive.mnemonic (Netlist.inst t.nl d).Netlist.i_prim))
      in
      Format.fprintf ppf "%-28s %-28s %s@," n.Netlist.n_name cls_str witness);
  let c, s, ck, d, u = class_counts t in
  Format.fprintf ppf "@,%d CONST %d STABLE %d CLOCK %d DATA %d UNKNOWN (%d nets)@,@]"
    c s ck d u (Netlist.n_nets t.nl)
