open Scald_core
module R = Lint_report

type input = { nl : Netlist.t; flow : Flow.t Lazy.t; window : Window.t Lazy.t }

let input nl = { nl; flow = lazy (Flow.analyse nl); window = lazy (Window.analyse nl) }

type rule = {
  id : string;
  title : string;
  section : string;
  severity : R.severity;
  check : input -> R.finding list;
}

let finding rule severity locus message hint =
  { R.f_rule = rule; f_severity = severity; f_locus = locus; f_message = message;
    f_hint = hint }

let ns = Timebase.ns_of_ps

(* ---- shared structural helpers ------------------------------------------- *)

let is_clock_assertion (a : Assertion.t) =
  match a.Assertion.kind with
  | Assertion.Precision_clock | Assertion.Nonprecision_clock -> true
  | Assertion.Stable -> false

let net_name nl id = (Netlist.net nl id).Netlist.n_name

(* The edge-sensitive clock/enable input of an instance, if it has one,
   with its diagnostic port label. *)
let edge_input (i : Netlist.inst) =
  match i.Netlist.i_prim with
  | Primitive.Reg _ | Primitive.Latch _ | Primitive.Setup_hold_check _
  | Primitive.Setup_rise_hold_fall_check _ ->
    Some (i.Netlist.i_inputs.(1), Primitive.input_label i.Netlist.i_prim 1)
  | _ -> None

let is_data_checker = function
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _ -> true
  | _ -> false

(* Gates, buffers and muxes are "levels of gating": they consume one
   evaluation-directive letter each and propagate the rest (2.8). *)
let is_gating = function
  | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _ -> true
  | _ -> false

let domain_names nl ds = String.concat ", " (List.map (net_name nl) ds)

(* Maximum number of gating levels strictly below an instance's output.
   Combinational cycles count as unbounded depth (their letters are
   always consumed); K4 reports the cycle itself. *)
let gating_depth nl =
  let n = Netlist.n_insts nl in
  let memo = Array.make n (-1) in
  let rec depth i =
    if memo.(i) >= 0 then memo.(i)
    else if memo.(i) = -2 then max_int / 2
    else begin
      memo.(i) <- -2;
      let inst = Netlist.inst nl i in
      let d =
        match inst.Netlist.i_output with
        | None -> 0
        | Some o ->
          List.fold_left
            (fun acc j ->
              if is_gating (Netlist.inst nl j).Netlist.i_prim then
                max acc (1 + depth j)
              else acc)
            0
            (Netlist.fanout (Netlist.net nl o))
      in
      memo.(i) <- min d (max_int / 2);
      d
    end
  in
  depth

(* The base signal name with the assertion suffix stripped: the SCALD
   system keys nets by the full spelling, so "D IN" and "D IN .S0-4"
   are silently two different nets — exactly what K5 hunts for. *)
let base_name name =
  match Signal_name.parse name with
  | Ok sn -> sn.Signal_name.base
  | Error _ -> name

let delay_dmax (prim : Primitive.t) =
  match prim with
  | Primitive.Gate { delay; _ }
  | Primitive.Buf { delay; _ }
  | Primitive.Mux2 { delay; _ }
  | Primitive.Reg { delay; _ }
  | Primitive.Latch { delay; _ } ->
    delay.Delay.dmax
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
  | Primitive.Min_pulse_width _ | Primitive.Const _ ->
    0

let wire_dmax nl id = (Netlist.wire_delay nl (Netlist.net nl id)).Delay.dmax

(* ---- completeness rules --------------------------------------------------- *)

(* C1: every edge-sensitive input traces back to a clock assertion.
   [Flow.reaches_clock] is the shared cone analysis' answer to exactly
   the question the old private DFS asked. *)
let check_c1 nl flow =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      match edge_input i with
      | Some (c, label) when not (Flow.reaches_clock flow c.Netlist.c_net) ->
        acc :=
          finding "C1" R.Error (R.Inst i.Netlist.i_name)
            (Printf.sprintf
               "%s input %s is never driven from a clock-asserted signal — the checker can never see a defined edge"
               label (net_name nl c.Netlist.c_net))
            "assert the clock with .P or .C (thesis 2.5), or derive it from an asserted clock"
          :: !acc
      | _ -> ());
  List.rev !acc

(* C2: every primary (undriven) input carries an assertion.  Subsumes
   Netlist.undriven_unasserted: the verifier would silently assume
   these signals always stable (2.5). *)
let check_c2 nl =
  List.map
    (fun (n : Netlist.net) ->
      finding "C2" R.Error (R.Net n.Netlist.n_name)
        "primary input has neither a driver nor an assertion — the verifier assumes it always stable"
        "add a .P/.C clock assertion or a .S stability assertion to the signal name (thesis 2.5)")
    (Netlist.undriven_unasserted nl)

(* C3: every register/latch data input is covered by a checker. *)
let check_c3 nl =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      match i.Netlist.i_prim with
      | Primitive.Reg _ | Primitive.Latch _ ->
        let data = i.Netlist.i_inputs.(0).Netlist.c_net in
        let covered =
          List.exists
            (fun j ->
              let chk = Netlist.inst nl j in
              is_data_checker chk.Netlist.i_prim
              && chk.Netlist.i_inputs.(0).Netlist.c_net = data)
            (Netlist.fanout (Netlist.net nl data))
        in
        if not covered then
          acc :=
            finding "C3" R.Warning (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "data input %s has no SETUP/HOLD checker — its timing is never verified"
                 (net_name nl data))
              "instantiate SETUP HOLD CHK on the data/clock pair (thesis Figure 2-3)"
            :: !acc
      | _ -> ());
  List.rev !acc

(* C4: gated clocks carry an &A/&H hazard directive (2.6).  An explicit
   non-hazard directive counts as a designer waiver and is only noted.
   Keyed on the inferred class, not the assertion, so a clock derived
   through buffers or prior gating is still recognized as a clock. *)
let check_c4 nl flow =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      match i.Netlist.i_prim with
      | Primitive.Gate _ | Primitive.Mux2 _ ->
        Array.iter
          (fun (c : Netlist.conn) ->
            match Flow.cls flow c.Netlist.c_net with
            | Flow.Const _ | Flow.Stable | Flow.Data _ | Flow.Unknown -> ()
            | Flow.Clock _ ->
              if List.exists Directive.check_hazard c.Netlist.c_directive then ()
              else if c.Netlist.c_directive <> [] then
                acc :=
                  finding "C4" R.Info (R.Inst i.Netlist.i_name)
                    (Printf.sprintf
                       "clock %s is gated under an explicit &%s directive — hazard check waived"
                       (net_name nl c.Netlist.c_net)
                       (Directive.to_string c.Netlist.c_directive))
                    "make sure the waiver is intentional; &A/&H would check the gating inputs"
                  :: !acc
              else
                acc :=
                  finding "C4" R.Warning (R.Inst i.Netlist.i_name)
                    (Printf.sprintf
                       "clock %s is gated without an &A/&H directive — a control input changing while the clock is asserted would go undetected"
                       (net_name nl c.Netlist.c_net))
                    "add &A (check) or &H (check and re-time) to the clock connection (thesis 2.6)"
                  :: !acc)
          i.Netlist.i_inputs
      | _ -> ());
  List.rev !acc

(* C5: clocks state their skew explicitly where the design rules give a
   non-zero default. *)
let check_c5 nl =
  let defaults = Netlist.defaults nl in
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      match n.Netlist.n_assertion with
      | Some a when is_clock_assertion a && a.Assertion.skew_ns = None ->
        let minus, plus =
          match a.Assertion.kind with
          | Assertion.Precision_clock -> defaults.Assertion.precision_skew
          | _ -> defaults.Assertion.nonprecision_skew
        in
        if minus <> 0 || plus <> 0 then
          acc :=
            finding "C5" R.Info (R.Net n.Netlist.n_name)
              (Printf.sprintf
                 "clock relies on the default skew %.1f/%.1f ns of the design rules"
                 (ns minus) (ns plus))
              "state the skew explicitly with a (minus,plus) skew spec, e.g. .P(-1.0,1.0)2-3 (thesis 2.5)"
            :: !acc
      | _ -> ());
  List.rev !acc

(* C6: a register's data must move in (a subset of) the domains of the
   clock that captures it.  Data tagged with domains the capturing
   clock is not part of crossed over from another clock domain with no
   constraint relating the two — the classic unconstrained CDC.  Empty
   data domains (changing primary inputs) are the ordinary synchronous
   case and say nothing about crossing. *)
let check_c6 nl flow =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      match i.Netlist.i_prim with
      | Primitive.Reg _ ->
        let data = i.Netlist.i_inputs.(0).Netlist.c_net in
        let clk = i.Netlist.i_inputs.(1).Netlist.c_net in
        let dd = Flow.domains flow data in
        let dc = Flow.domains flow clk in
        if
          dd <> [] && dc <> []
          && not (List.for_all (fun d -> List.mem d dd) dc)
        then
          acc :=
            finding "C6" R.Warning (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "data input %s moves in clock domain(s) {%s} but is captured by %s of domain {%s} — an unconstrained clock-domain crossing"
                 (net_name nl data) (domain_names nl dd) (net_name nl clk)
                 (domain_names nl dc))
              "the two clocks share no timing relation the verifier can use; synchronize the crossing or relate the clocks with skew specs (thesis 2.5)"
            :: !acc
      | _ -> ());
  List.rev !acc

(* C7: convergent logic mixing two clock domains.  Two inputs of one
   gate whose domain sets are non-empty and disjoint carry values timed
   by unrelated clocks; their combination has no single-cycle meaning.
   Inputs sharing any domain (a parity tree, an ALU) are fine, as are
   clock-class inputs — gating is C4/K7's business, not convergence. *)
let check_c7 nl flow =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      if is_gating i.Netlist.i_prim then begin
        let data_inputs =
          Array.to_list i.Netlist.i_inputs
          |> List.filter_map (fun (c : Netlist.conn) ->
                 match Flow.cls flow c.Netlist.c_net with
                 | Flow.Data (_ :: _ as ds) -> Some (c.Netlist.c_net, ds)
                 | _ -> None)
        in
        let disjoint a b = not (List.exists (fun d -> List.mem d b) a) in
        let rec first_pair = function
          | [] -> None
          | (n, ds) :: rest -> (
            match List.find_opt (fun (_, ds') -> disjoint ds ds') rest with
            | Some (n', ds') -> Some ((n, ds), (n', ds'))
            | None -> first_pair rest)
        in
        match first_pair data_inputs with
        | Some ((n1, d1), (n2, d2)) ->
          acc :=
            finding "C7" R.Warning (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "inputs %s {%s} and %s {%s} converge from disjoint clock domains — their relative timing is unconstrained"
                 (net_name nl n1) (domain_names nl d1) (net_name nl n2)
                 (domain_names nl d2))
              "split the function per domain, synchronize one side, or resolve the ambiguity with case analysis (thesis 2.7)"
            :: !acc
        | None -> ()
      end);
  List.rev !acc

(* ---- consistency rules ----------------------------------------------------- *)

(* K1: delay ranges are sane and fit within the clock period. *)
let check_k1 nl =
  let period = Timebase.period (Netlist.timebase nl) in
  let check_delay locus what (d : Delay.t) =
    if d.Delay.dmin < 0 || d.Delay.dmin > d.Delay.dmax then
      [ finding "K1" R.Error locus
          (Printf.sprintf "%s has an inverted range %.1f/%.1f ns (min > max)" what
             (ns d.Delay.dmin) (ns d.Delay.dmax))
          "delays are min/max pairs with 0 <= min <= max (thesis 1.4.1.1)" ]
    else if d.Delay.dmax > period then
      [ finding "K1" R.Error locus
          (Printf.sprintf "%s max %.1f ns exceeds the %.1f ns clock period" what
             (ns d.Delay.dmax) (ns period))
          "a path longer than the cycle cannot settle within the single verified period; split it or raise PERIOD" ]
    else []
  in
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      let locus = R.Inst i.Netlist.i_name in
      match i.Netlist.i_prim with
      | Primitive.Gate { delay; _ } | Primitive.Buf { delay; _ }
      | Primitive.Reg { delay; _ } | Primitive.Latch { delay; _ } ->
        acc := check_delay locus "component delay" delay @ !acc
      | Primitive.Mux2 { delay; select_extra } ->
        acc :=
          check_delay locus "component delay" delay
          @ check_delay locus "select-path delay" (Delay.add delay select_extra)
          @ !acc
      | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
      | Primitive.Min_pulse_width _ | Primitive.Const _ ->
        ());
  Netlist.iter_nets nl (fun n ->
      match n.Netlist.n_wire_delay with
      | Some d ->
        acc := check_delay (R.Net n.Netlist.n_name) "wire-delay override" d @ !acc
      | None -> ());
  let default_findings =
    check_delay R.Design "default wire delay" (Netlist.default_wire_delay nl)
  in
  default_findings @ List.rev !acc

(* K2: checker constraints are feasible within the period (the
   exemplar's K5-style basic feasibility). *)
let check_k2 nl =
  let period = Timebase.period (Netlist.timebase nl) in
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      let locus = R.Inst i.Netlist.i_name in
      match i.Netlist.i_prim with
      | Primitive.Setup_hold_check { setup; hold }
      | Primitive.Setup_rise_hold_fall_check { setup; hold } ->
        if setup + hold > period || setup > period || hold > period then
          acc :=
            finding "K2" R.Error locus
              (Printf.sprintf
                 "set-up %.1f ns + hold %.1f ns cannot be met within the %.1f ns period"
                 (ns setup) (ns hold) (ns period))
              "the data input would never be allowed to change; reduce the constraint or raise PERIOD"
            :: !acc
        else begin
          (* one-level data-path margin: launch, propagate, settle
             set-up before the next edge *)
          let data = i.Netlist.i_inputs.(0).Netlist.c_net in
          match (Netlist.net nl data).Netlist.n_driver with
          | Some d ->
            let path =
              delay_dmax (Netlist.inst nl d).Netlist.i_prim + wire_dmax nl data
            in
            if path + setup > period then
              acc :=
                finding "K2" R.Warning locus
                  (Printf.sprintf
                     "data path into the checker (%.1f ns max) leaves no set-up margin (%.1f ns needed, %.1f ns period)"
                     (ns path) (ns setup) (ns period))
                  "shorten the path feeding the checked signal or reduce the set-up requirement"
                :: !acc
          | None -> ()
        end
      | Primitive.Min_pulse_width { high; low } ->
        if high + low > period then
          acc :=
            finding "K2" R.Error locus
              (Printf.sprintf
                 "minimum widths %.1f ns high + %.1f ns low exceed the %.1f ns period"
                 (ns high) (ns low) (ns period))
              "one high and one low pulse must fit in a cycle; reduce the widths or raise PERIOD"
            :: !acc
      | _ -> ());
  List.rev !acc

(* K3: directive strings no longer than the gating depth that consumes
   them (2.8). *)
let check_k3 nl =
  let depth = gating_depth nl in
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      Array.iter
        (fun (c : Netlist.conn) ->
          let len = List.length c.Netlist.c_directive in
          if len > 0 then begin
            let usable =
              if is_gating i.Netlist.i_prim then 1 + depth i.Netlist.i_id else 1
            in
            if len > usable then
              acc :=
                finding "K3" R.Warning (R.Inst i.Netlist.i_name)
                  (Printf.sprintf
                     "directive &%s on %s carries %d letters but only %d level(s) of gating consume them — the rest silently do nothing"
                     (Directive.to_string c.Netlist.c_directive)
                     (net_name nl c.Netlist.c_net) len usable)
                  "one letter is consumed per level of gating (thesis 2.8); shorten the string or add the intended gating levels"
                :: !acc
          end)
        i.Netlist.i_inputs);
  List.rev !acc

(* K4: combinational cycles, by DFS over driver/fanout — no evaluation.
   Registers and latches legitimately close feedback loops; gates,
   buffers and muxes must not. *)
let check_k4 nl =
  let n = Netlist.n_insts nl in
  let color = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let acc = ref [] in
  let rec dfs path i =
    color.(i) <- 1;
    let inst = Netlist.inst nl i in
    (match inst.Netlist.i_output with
    | None -> ()
    | Some o ->
      List.iter
        (fun j ->
          if is_gating (Netlist.inst nl j).Netlist.i_prim then begin
            if color.(j) = 0 then dfs (j :: path) j
            else if color.(j) = 1 then begin
              (* back edge: the cycle is the path segment back to j *)
              let rec take = function
                | [] -> []
                | k :: rest -> if k = j then [ k ] else k :: take rest
              in
              let cycle = List.rev (take (i :: path)) in
              let names =
                List.map (fun k -> (Netlist.inst nl k).Netlist.i_name) cycle
              in
              acc :=
                finding "K4" R.Error (R.Net (net_name nl o))
                  (Printf.sprintf "combinational cycle: %s"
                     (String.concat " -> " (names @ [ List.hd names ])))
                  "unregistered feedback never settles; break the loop with a register or latch (thesis 2.4)"
                :: !acc
            end
          end)
        (Netlist.fanout (Netlist.net nl o)));
    color.(i) <- 2
  in
  Netlist.iter_insts nl (fun i ->
      if color.(i.Netlist.i_id) = 0 && is_gating i.Netlist.i_prim then
        dfs [ i.Netlist.i_id ] i.Netlist.i_id);
  List.rev !acc

(* K5: assertion spellings and polarities are consistent. *)
let check_k5 nl =
  let acc = ref [] in
  (* (a) one spelling per signal: the assertion is part of the net key
     (2.5.1), so conflicting spellings silently split one signal into
     several independent nets. *)
  let by_base = Hashtbl.create 64 in
  Netlist.iter_nets nl (fun n ->
      let base = base_name n.Netlist.n_name in
      Hashtbl.replace by_base base
        (n.Netlist.n_name
        :: (match Hashtbl.find_opt by_base base with Some l -> l | None -> [])));
  Hashtbl.iter
    (fun base spellings ->
      match spellings with
      | _ :: _ :: _ ->
        acc :=
          finding "K5" R.Error (R.Net base)
            (Printf.sprintf
               "signal spelled with conflicting assertions (%s) — each spelling is silently a distinct net"
               (String.concat " vs " (List.sort String.compare spellings)))
            "use one spelling everywhere: the assertion is part of the signal name (thesis 2.5.1)"
          :: !acc
      | _ -> ())
    by_base;
  (* (b) a stable-asserted signal used as a clock, and (c) a low-active
     clock entering an edge-sensitive input uncomplemented. *)
  Netlist.iter_insts nl (fun i ->
      match edge_input i with
      | None -> ()
      | Some (c, label) -> (
        match (Netlist.net nl c.Netlist.c_net).Netlist.n_assertion with
        | Some a when not (is_clock_assertion a) ->
          acc :=
            finding "K5" R.Error (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "%s input %s carries a .S stability assertion, not a clock assertion"
                 label (net_name nl c.Netlist.c_net))
              "edge-sensitive inputs need a .P/.C clock; a stable window defines no edge (thesis 2.5)"
            :: !acc
        | Some a when a.Assertion.low_active && not c.Netlist.c_invert ->
          acc :=
            finding "K5" R.Warning (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "low-active clock %s drives the %s input uncomplemented — the edge checked is the wrong one"
                 (net_name nl c.Netlist.c_net) label)
              "connect the complement (a leading \"-\") or drop the L polarity from the assertion"
            :: !acc
        | _ -> ()));
  List.sort R.compare_finding !acc

(* K6: dead logic — a driven net that feeds nothing is either wasted
   hardware or a missing checker connection. *)
let check_k6 nl =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      if n.Netlist.n_driver <> None && Netlist.fanout_count n = 0 then
        acc :=
          finding "K6" R.Warning (R.Net n.Netlist.n_name)
            "driven but feeds no primitive and no checker — dead logic, or a missing connection"
            "connect the signal, check it, or delete its driver"
          :: !acc);
  List.rev !acc

(* K7: a clock gated by data of its own domain — the §2.6 hazard shape.
   The gating signal is launched by the very clock it gates, so it is
   guaranteed to change in the window where the clock's edges live;
   whether a runt pulse escapes depends only on the delay race.  The
   inferred domain is the evidence: Flow tagged the data input with the
   same domain root the clock-class input carries. *)
let check_k7 nl flow =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      if is_gating i.Netlist.i_prim then begin
        let inputs = Array.to_list i.Netlist.i_inputs in
        let clocks =
          List.filter_map
            (fun (c : Netlist.conn) ->
              match Flow.cls flow c.Netlist.c_net with
              | Flow.Clock { domains; _ } -> Some (c.Netlist.c_net, domains)
              | _ -> None)
            inputs
        in
        let datas =
          List.filter_map
            (fun (c : Netlist.conn) ->
              match Flow.cls flow c.Netlist.c_net with
              | Flow.Data (_ :: _ as ds) -> Some (c.Netlist.c_net, ds)
              | _ -> None)
            inputs
        in
        let hit =
          List.find_map
            (fun (cn, cd) ->
              List.find_map
                (fun (dn, dd) ->
                  match List.filter (fun d -> List.mem d cd) dd with
                  | [] -> None
                  | shared -> Some (cn, dn, shared))
                datas)
            clocks
        in
        match hit with
        | Some (cn, dn, shared) ->
          acc :=
            finding "K7" R.Warning (R.Inst i.Netlist.i_name)
              (Printf.sprintf
                 "clock %s is gated by %s, data launched by its own domain {%s} — the gate control races the clock edge it qualifies"
                 (net_name nl cn) (net_name nl dn) (domain_names nl shared))
              "re-time the gating term off the opposite edge or qualify with an unrelated stable signal; &A/&H only detects the hazard, it does not remove it (thesis 2.6)"
            :: !acc
        | None -> ()
      end);
  List.rev !acc

(* ---- W rules: static arrival-window analysis (doc/WINDOWS.md) ------------- *)

(* W1: a stable assertion the computed windows already satisfy — the
   check can never fire, so the constraint documents nothing the
   structure does not prove.  Informational: harmless, but worth knowing
   when auditing what the assertion set actually pins down. *)
let check_w1 nl w =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      if Window.net_proven w n.Netlist.n_id then
        acc :=
          finding "W1" R.Info (R.Net n.Netlist.n_name)
            "stable assertion statically satisfied at every corner — the check can never fire (vacuous constraint)"
            "the windows prove it: tighten the assertion if it should bind, or drop it if it only restates the structure"
          :: !acc);
  List.rev !acc

(* W2: a checker whose fan-in windows prove it clean at every corner —
   provably always-satisfied.  Gated on every input cone actually being
   constrained by an assertion, so a proof resting only on the §2.5
   stable assumption (which W4 questions) does not also fire here. *)
let check_w2 nl w =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      if
        Window.inst_proven w i.Netlist.i_id
        && Array.for_all
             (fun (c : Netlist.conn) -> Window.constrained w c.Netlist.c_net)
             i.Netlist.i_inputs
      then
        acc :=
          finding "W2" R.Info (R.Inst i.Netlist.i_name)
            "checker statically proven satisfied at every corner — it can never report a violation"
            "no action needed; if the check was meant to bind, its margins or input assertions are looser than intended"
          :: !acc);
  List.rev !acc

(* W3: the dual — both checker inputs reconstruct exactly and the real
   check fails at every corner.  The violation is guaranteed before any
   evaluation; reported as an error so a lint-only pass already catches
   it. *)
let check_w3 nl w =
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      if Window.inst_guaranteed w i.Netlist.i_id then
        acc :=
          finding "W3" R.Error (R.Inst i.Netlist.i_name)
            "timing violation guaranteed at every corner: the asserted input waveforms already violate the constraint"
            "fix the assertion windows or the checker margins — no delay assignment can satisfy this check"
          :: !acc);
  List.rev !acc

(* W4: a checker input whose window rests on nothing — no assertion
   anywhere in its cone (only the §2.5 stable assumption), or an
   unbounded (feedback-widened) window.  Either way the checker's
   verdict hangs on defaults rather than stated constraints. *)
let check_w4 nl w =
  let seen = Array.make (max 1 (Netlist.n_nets nl)) false in
  let acc = ref [] in
  Netlist.iter_insts nl (fun i ->
      if Primitive.is_checker i.Netlist.i_prim then
        Array.iter
          (fun (c : Netlist.conn) ->
            let id = c.Netlist.c_net in
            if not seen.(id) then begin
              let unconstrained = not (Window.constrained w id) in
              let unbounded = Window.unbounded w id in
              if unconstrained || unbounded then begin
                seen.(id) <- true;
                let msg =
                  if unbounded then
                    "checker input has an unbounded arrival window (feedback widening) — the verdict is not pinned by any stated constraint"
                  else
                    "checker input cone carries no assertion — its window rests solely on the §2.5 stable assumption"
                in
                acc :=
                  finding "W4" R.Warning (R.Net (net_name nl id)) msg
                    "assert the cone's primary inputs (or the signal itself) so the window is grounded in stated constraints"
                  :: !acc
              end
            end)
          i.Netlist.i_inputs);
  List.rev !acc

(* W5: a declared stable interval the computed windows contradict — every
   possible transition of the net lands inside an asserted-stable span,
   so whenever the signal moves at all, the assertion is violated. *)
let check_w5 nl w =
  let acc = ref [] in
  Netlist.iter_nets nl (fun n ->
      if Window.net_contradicted w n.Netlist.n_id then
        acc :=
          finding "W5" R.Warning (R.Net n.Netlist.n_name)
            "stable assertion contradicts the computed arrival windows: every possible transition falls inside a declared stable interval"
            "the declared window and the structure disagree — move the stable interval or re-time the driving path"
          :: !acc);
  List.rev !acc

(* ---- catalogue ------------------------------------------------------------- *)

(* The signal-class analysis (Flow) answers every cone question the
   rules ask — clock reachability (C1), derived clocks (C4, K7), clock
   domains (C6, C7); the window analysis every W rule's. *)
let on_netlist f a = f a.nl
let with_flow f a = f a.nl (Lazy.force a.flow)
let with_window f a = f a.nl (Lazy.force a.window)

let all =
  [
    { id = "C1"; title = "edge-sensitive inputs trace to a clock assertion";
      section = "2.5, Figure 2-3"; severity = R.Error; check = with_flow check_c1 };
    { id = "C2"; title = "primary inputs carry assertions"; section = "2.5";
      severity = R.Error; check = on_netlist check_c2 };
    { id = "C3"; title = "register and latch data inputs are checked";
      section = "Figures 2-1 to 2-3"; severity = R.Warning; check = on_netlist check_c3 };
    { id = "C4"; title = "gated clocks carry &A/&H directives"; section = "2.6";
      severity = R.Warning; check = with_flow check_c4 };
    { id = "C5"; title = "clock skew stated where design rules default it";
      section = "2.5, 3.3"; severity = R.Info; check = on_netlist check_c5 };
    { id = "C6"; title = "register data and clock agree on the clock domain";
      section = "2.1, 2.5"; severity = R.Warning; check = with_flow check_c6 };
    { id = "C7"; title = "no convergence of disjoint clock domains";
      section = "2.7"; severity = R.Warning; check = with_flow check_c7 };
    { id = "K1"; title = "delay ranges sane and within the period";
      section = "1.4.1.1"; severity = R.Error; check = on_netlist check_k1 };
    { id = "K2"; title = "checker constraints feasible within the period";
      section = "2.9"; severity = R.Error; check = on_netlist check_k2 };
    { id = "K3"; title = "directive length matches the gating depth";
      section = "2.8"; severity = R.Warning; check = on_netlist check_k3 };
    { id = "K4"; title = "no combinational cycles"; section = "2.4";
      severity = R.Error; check = on_netlist check_k4 };
    { id = "K5"; title = "assertion spellings and polarities consistent";
      section = "2.5.1"; severity = R.Error; check = on_netlist check_k5 };
    { id = "K6"; title = "no dead logic"; section = "2.5";
      severity = R.Warning; check = on_netlist check_k6 };
    { id = "K7"; title = "clocks not gated by data of their own domain";
      section = "2.6"; severity = R.Warning; check = with_flow check_k7 };
    { id = "W1"; title = "no vacuous stable assertions";
      section = "doc/WINDOWS.md"; severity = R.Info; check = with_window check_w1 };
    { id = "W2"; title = "checkers not provably always-satisfied";
      section = "doc/WINDOWS.md"; severity = R.Info; check = with_window check_w2 };
    { id = "W3"; title = "no statically guaranteed violations";
      section = "doc/WINDOWS.md"; severity = R.Error; check = with_window check_w3 };
    { id = "W4"; title = "checker input windows bounded and constrained";
      section = "doc/WINDOWS.md"; severity = R.Warning; check = with_window check_w4 };
    { id = "W5"; title = "stable assertions consistent with arrival windows";
      section = "doc/WINDOWS.md"; severity = R.Warning; check = with_window check_w5 };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun r -> r.id = id) all
