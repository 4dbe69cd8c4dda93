(* Static arrival-time windows: one forward abstract interpretation over
   the Sched condensation, per delay corner.  Purely structural — the
   evaluator's state is never read.  The soundness contract (and the
   QCheck property pinning it) is: every materialized change window of
   the converged evaluator waveform of a net lies inside the net's
   computed window set, at every corner, under every case substitution.
   Feedback components start at Top and narrow under a budget, so any
   stopping point over-approximates every fixpoint; Unknown-tainted
   nets (feedback membership and unguarded set/reset overlays) are
   flagged and excluded from all proofs, because Unknown instants are
   non-stable without being transitions. *)

type span = { s_lo : Timebase.ps; s_hi : Timebase.ps }

type wins = Top | Wins of span list

type t = {
  nl : Netlist.t;
  sched : Sched.t;
  period : Timebase.ps;
  corners : Corner.table;
  dscale : float array;
  wscale : float array;
  k : int;
  cwins : wins array array;  (* corner -> net id -> windows *)
  pinned : bool array;       (* net state fixed by its seed *)
  constrained : bool array;  (* an assertion reaches the backward cone *)
  unk : bool array;          (* Unknown may appear on the net *)
  vol : bool array;          (* case analysis may substitute the net *)
  kv : Tvalue.t option array;      (* statically constant value *)
  estr : Directive.t option array; (* statically known evaluation string *)
  exact : bool array;        (* settled waveform statically reconstructable *)
  p_inst : Bytes.t;          (* checker statically proven clean *)
  p_guar : Bytes.t;          (* checker statically proven violated *)
  p_net : Bytes.t;           (* stable assertion statically satisfied *)
  p_contra : Bytes.t;        (* stable assertion statically contradicted *)
  mutable lane_eq : bool array;  (* per corner: window map equals corner 0's *)
}

(* ---- the window lattice -------------------------------------------------- *)

let wrapp period x =
  let r = x mod period in
  if r < 0 then r + period else r

(* Spans are kept sorted, disjoint and non-wrapping; past this count the
   smallest gaps are merged, trading precision for a bounded value. *)
let max_spans = 16

let norm_spans ~period raw =
  if List.exists (fun (lo, hi) -> hi - lo >= period) raw then
    [ { s_lo = 0; s_hi = period } ]
  else begin
    let wrapped =
      List.concat_map
        (fun (lo, hi) ->
          let w = hi - lo in
          if w < 0 then []
          else
            let lo = wrapp period lo in
            let hi = lo + w in
            if hi <= period then [ (lo, hi) ] else [ (lo, period); (0, hi - period) ])
        raw
    in
    let sorted = List.sort compare wrapped in
    let merged =
      List.rev
        (List.fold_left
           (fun acc (lo, hi) ->
             match acc with
             | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
             | _ -> (lo, hi) :: acc)
           [] sorted)
    in
    let rec cap l =
      let n = List.length l in
      if n <= max_spans then l
      else begin
        let arr = Array.of_list l in
        let best = ref 1 and bestgap = ref max_int in
        for i = 1 to n - 1 do
          let gap = fst arr.(i) - snd arr.(i - 1) in
          if gap < !bestgap then begin
            bestgap := gap;
            best := i
          end
        done;
        let b = !best in
        let out = ref [] in
        Array.iteri
          (fun i s ->
            if i = b then begin
              match !out with
              | (plo, phi) :: rest -> out := (plo, max phi (snd s)) :: rest
              | [] -> out := [ s ]
            end
            else out := s :: !out)
          arr;
        cap (List.rev !out)
      end
    in
    List.map (fun (lo, hi) -> { s_lo = lo; s_hi = hi }) (cap merged)
  end

let union_w ~period a b =
  match a, b with
  | Top, _ | _, Top -> Top
  | Wins [], w | w, Wins [] -> w
  | Wins x, Wins y ->
    Wins (norm_spans ~period (List.map (fun s -> (s.s_lo, s.s_hi)) (x @ y)))

let dilate_w ~period (dlo, dhi) w =
  match w with
  | Top -> Top
  | Wins _ when dlo = 0 && dhi = 0 -> w
  | Wins l ->
    Wins (norm_spans ~period (List.map (fun s -> (s.s_lo + dlo, s.s_hi + dhi)) l))

let wins_of_waveform ~period wf =
  Wins
    (norm_spans ~period
       (List.map
          (fun { Waveform.w_start; w_stop } -> (w_start, w_stop))
          (Waveform.change_windows wf)))

(* ---- static per-connection facts ----------------------------------------- *)

let static_letter t (i : Netlist.inst) k =
  let cn = i.Netlist.i_inputs.(k) in
  if cn.Netlist.c_directive <> [] then Some (Directive.head cn.Netlist.c_directive)
  else
    match t.estr.(cn.Netlist.c_net) with
    | Some s -> Some (Directive.head s)
    | None -> None

let conn_kv t (cn : Netlist.conn) =
  match t.kv.(cn.Netlist.c_net) with
  | Some v -> Some (if cn.Netlist.c_invert then Tvalue.lnot v else v)
  | None -> None

(* The window set seen through a connection: the source windows dilated
   by the interconnection delay (exact range when the directive letter is
   statically known, the conservative [0, dmax] envelope otherwise). *)
let in_w t c (i : Netlist.inst) k =
  let cn = i.Netlist.i_inputs.(k) in
  let base = t.cwins.(c).(cn.Netlist.c_net) in
  match base with
  | Top -> Top
  | Wins _ -> (
    let n = Netlist.net t.nl cn.Netlist.c_net in
    match static_letter t i k with
    | Some l when Directive.zero_wire l -> base
    | (Some _ | None) as letter ->
      let wd = Delay.scale t.wscale.(c) (Netlist.wire_delay t.nl n) in
      let lo = match letter with Some _ -> wd.Delay.dmin | None -> 0 in
      dilate_w ~period:t.period (lo, wd.Delay.dmax) base)

(* Some true: the element delay is provably zeroed by a directive;
   Some false: provably applied; None: statically unresolved. *)
let zero_gate_status letters =
  if List.exists (function Some l -> Directive.zero_gate l | None -> false) letters
  then Some true
  else if List.for_all Option.is_some letters then Some false
  else None

let elem_range t c delay zg =
  match zg with
  | Some true -> (0, 0)
  | Some false ->
    let d = Delay.scale t.dscale.(c) delay in
    (d.Delay.dmin, d.Delay.dmax)
  | None ->
    let d = Delay.scale t.dscale.(c) delay in
    (0, d.Delay.dmax)

(* ---- the per-primitive window transfer ----------------------------------- *)

let transfer_wins t c (i : Netlist.inst) =
  let period = t.period in
  match i.Netlist.i_prim with
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
  | Primitive.Min_pulse_width _ ->
    Wins [] (* checkers have no output; never stored *)
  | Primitive.Const _ -> Wins []
  | Primitive.Buf { delay; _ } ->
    let zg = zero_gate_status [ static_letter t i 0 ] in
    dilate_w ~period (elem_range t c delay zg) (in_w t c i 0)
  | Primitive.Gate { fn = _; n_inputs; invert = _; delay } ->
    let letters = List.init n_inputs (fun k -> static_letter t i k) in
    let zg = zero_gate_status letters in
    let hazard_certain =
      List.exists (function Some l -> Directive.check_hazard l | None -> false) letters
    in
    (* Under a hazard directive the evaluator replaces the non-hazard
       inputs with an enabling constant (§2.6), so only the hazard (or
       letter-unknown) inputs can move the output. *)
    let contributes k =
      (not hazard_certain)
      ||
      match List.nth letters k with
      | None -> true
      | Some l -> Directive.check_hazard l
    in
    let u = ref (Wins []) in
    for k = 0 to n_inputs - 1 do
      if contributes k then u := union_w ~period !u (in_w t c i k)
    done;
    dilate_w ~period (elem_range t c delay zg) !u
  | Primitive.Mux2 { delay; select_extra } ->
    let letters = List.init 3 (fun k -> static_letter t i k) in
    let zg = zero_gate_status letters in
    let elo, ehi = elem_range t c delay zg in
    let se = Delay.scale t.dscale.(c) select_extra in
    let a = dilate_w ~period (elo, ehi) (in_w t c i 0) in
    let b = dilate_w ~period (elo, ehi) (in_w t c i 1) in
    (* The select path carries [select_extra] unconditionally, and its
       transition windows are additionally painted over the output
       dilated by the element delay. *)
    let s =
      dilate_w ~period (se.Delay.dmin + elo, se.Delay.dmax + ehi) (in_w t c i 2)
    in
    union_w ~period a (union_w ~period b s)
  | Primitive.Reg { delay; has_set_reset } ->
    let d = Delay.scale t.dscale.(c) delay in
    let er = (d.Delay.dmin, d.Delay.dmax) in
    (* The output moves only at clock edges (and on set/reset): the
       sampled data never contributes transitions of its own. *)
    let ck = dilate_w ~period er (in_w t c i 1) in
    if has_set_reset then
      union_w ~period ck
        (union_w ~period
           (dilate_w ~period er (in_w t c i 2))
           (dilate_w ~period er (in_w t c i 3)))
    else ck
  | Primitive.Latch { delay; has_set_reset } ->
    let d = Delay.scale t.dscale.(c) delay in
    let er = (d.Delay.dmin, d.Delay.dmax) in
    let base =
      union_w ~period
        (dilate_w ~period er (in_w t c i 0))
        (dilate_w ~period er (in_w t c i 1))
    in
    if has_set_reset then
      union_w ~period base
        (union_w ~period
           (dilate_w ~period er (in_w t c i 2))
           (dilate_w ~period er (in_w t c i 3)))
    else base

(* ---- flag transfers (corner-independent) ---------------------------------- *)

let estr_out t (i : Netlist.inst) =
  match i.Netlist.i_prim with
  | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _ ->
    let n = Array.length i.Netlist.i_inputs in
    let rec find k =
      if k >= n then Some []
      else
        let cn = i.Netlist.i_inputs.(k) in
        let eff =
          if cn.Netlist.c_directive <> [] then Some cn.Netlist.c_directive
          else t.estr.(cn.Netlist.c_net)
        in
        match eff with
        | None -> None
        | Some [] -> find (k + 1)
        | Some (_ :: rest) -> Some rest
    in
    find 0
  | _ -> Some []

(* A register or latch with a set/reset pair can manufacture Unknown
   (both asserted at once, §2.4.3) unless one side is statically tied to
   a constant 0 — the grounded-input idiom the Const primitive exists
   for. *)
let sr_safe t (i : Netlist.inst) =
  conn_kv t i.Netlist.i_inputs.(2) = Some Tvalue.V0
  || conn_kv t i.Netlist.i_inputs.(3) = Some Tvalue.V0

let transfer_flags t (i : Netlist.inst) =
  let ins = i.Netlist.i_inputs in
  let in_unk =
    Array.exists (fun (cn : Netlist.conn) -> t.unk.(cn.Netlist.c_net)) ins
  in
  match i.Netlist.i_prim with
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
  | Primitive.Min_pulse_width _ ->
    (false, None, Some [])
  | Primitive.Const v -> (false, Some v, Some [])
  | Primitive.Buf { invert; _ } ->
    let kv =
      match conn_kv t ins.(0) with
      | Some v -> Some (if invert then Tvalue.lnot v else v)
      | None -> None
    in
    (in_unk, kv, estr_out t i)
  | Primitive.Gate { fn; n_inputs; invert; _ } ->
    let letters = List.init n_inputs (fun k -> static_letter t i k) in
    let all_known = List.for_all Option.is_some letters in
    let kv =
      if not all_known then None
      else begin
        let hz =
          List.exists (fun l -> Directive.check_hazard (Option.get l)) letters
        in
        let vals =
          List.mapi
            (fun k l ->
              if hz && not (Directive.check_hazard (Option.get l)) then
                Some (Primitive.enabling_value fn)
              else conn_kv t ins.(k))
            letters
        in
        let absorbing =
          match fn with
          | Primitive.And -> Some Tvalue.V0
          | Primitive.Or -> Some Tvalue.V1
          | Primitive.Xor | Primitive.Chg -> None
        in
        let folded =
          match absorbing with
          | Some z when List.exists (fun v -> v = Some z) vals ->
            (* the dominant value absorbs even Unknown (Tvalue) *)
            Some z
          | _ ->
            if List.for_all Option.is_some vals then
              Some (Primitive.gate_fold fn (List.map Option.get vals))
            else None
        in
        match folded with
        | Some v -> Some (if invert then Tvalue.lnot v else v)
        | None -> None
      end
    in
    (in_unk, kv, estr_out t i)
  | Primitive.Mux2 _ ->
    let kv =
      match conn_kv t ins.(2) with
      | Some Tvalue.V0 -> conn_kv t ins.(0)
      | Some Tvalue.V1 -> conn_kv t ins.(1)
      | _ -> None
    in
    (in_unk, kv, estr_out t i)
  | Primitive.Reg { has_set_reset; _ } | Primitive.Latch { has_set_reset; _ } ->
    ((in_unk || (has_set_reset && not (sr_safe t i))), None, Some [])

let constr_out t (i : Netlist.inst) o =
  (Netlist.net t.nl o).Netlist.n_assertion <> None
  || Array.exists
       (fun (cn : Netlist.conn) -> t.constrained.(cn.Netlist.c_net))
       i.Netlist.i_inputs

(* ---- the sweep ------------------------------------------------------------ *)

let apply_inst t ~cyclic (i : Netlist.inst) =
  match i.Netlist.i_output with
  | None -> false
  | Some o ->
    if t.pinned.(o) then false
    else begin
      let changed = ref false in
      for c = 0 to t.k - 1 do
        let w = transfer_wins t c i in
        if w <> t.cwins.(c).(o) then begin
          t.cwins.(c).(o) <- w;
          changed := true
        end
      done;
      (* Feedback members keep their conservative resets: mid-relaxation
         (and divergence-cutoff) values need not be any fixpoint, so the
         taint and the unknown-string demotion must stand. *)
      if not cyclic then begin
        let u, kv, es = transfer_flags t i in
        let kv =
          match kv with
          | Some Tvalue.Stable when t.vol.(o) -> None
          | kv -> kv
        in
        if u <> t.unk.(o) then begin
          t.unk.(o) <- u;
          changed := true
        end;
        if kv <> t.kv.(o) then begin
          t.kv.(o) <- kv;
          changed := true
        end;
        if es <> t.estr.(o) then begin
          t.estr.(o) <- es;
          changed := true
        end
      end;
      !changed
    end

(* Feedback components start at Top and iterate downward: a chaotic
   descent from Top stays above every (pre-)fixpoint at every step, so
   the budget cutoff is sound wherever it lands — the dual of Flow's
   bottom-up relaxation, which would be unsound here (a self-sustaining
   oscillation is a concrete fixpoint above the least one). *)
let run_scc t sid =
  match Sched.members t.sched sid with
  | [] -> ()
  | [ id ] when Sched.cyclic_slot t.sched id < 0 ->
    ignore (apply_inst t ~cyclic:false (Netlist.inst t.nl id))
  | ids ->
    (* descending id order: where the budget cuts off depends on it *)
    let members = List.rev_map (Netlist.inst t.nl) ids in
    List.iter
      (fun (i : Netlist.inst) ->
        match i.Netlist.i_output with
        | Some o when not t.pinned.(o) ->
          for c = 0 to t.k - 1 do
            t.cwins.(c).(o) <- Top
          done;
          t.unk.(o) <- true;
          t.kv.(o) <- None;
          t.estr.(o) <- None
        | _ -> ())
      members;
    let budget = 8 + (2 * List.length members) in
    let rec relax k =
      let changed =
        List.fold_left (fun acc i -> apply_inst t ~cyclic:true i || acc) false members
      in
      if changed && k < budget then relax (k + 1)
    in
    relax 0

(* The constrained flag is a plain forward boolean closure: seeded from
   the assertions, then topological passes to a fixpoint. *)
let compute_constrained t =
  Netlist.iter_nets t.nl (fun n ->
      let id = n.Netlist.n_id in
      if not t.pinned.(id) then
        t.constrained.(id) <- n.Netlist.n_assertion <> None);
  let rec pass () =
    let changed = ref false in
    for sid = Sched.n_sccs t.sched - 1 downto 0 do
      List.iter
        (fun id ->
          let i = Netlist.inst t.nl id in
          match i.Netlist.i_output with
          | None -> ()
          | Some o ->
            if (not t.pinned.(o)) && not t.constrained.(o) then
              if constr_out t i o then begin
                t.constrained.(o) <- true;
                changed := true
              end)
        (Sched.members t.sched sid)
    done;
    if !changed then pass ()
  in
  pass ()

(* ---- seeds ---------------------------------------------------------------- *)

let seed_net t (n : Netlist.net) =
  let id = n.Netlist.n_id in
  match n.Netlist.n_assertion, n.Netlist.n_driver with
  | Some a, None ->
    let wf =
      Assertion.to_waveform (Netlist.defaults t.nl) (Netlist.timebase t.nl) a
    in
    let w = wins_of_waveform ~period:t.period wf in
    for c = 0 to t.k - 1 do
      t.cwins.(c).(id) <- w
    done;
    t.pinned.(id) <- true;
    t.constrained.(id) <- true;
    t.unk.(id) <- false;
    t.estr.(id) <- Some [];
    t.exact.(id) <- not t.vol.(id);
    t.kv.(id) <-
      (if Waveform.n_segments wf = 1 then
         match Waveform.value_at wf 0 with
         | Tvalue.Stable when t.vol.(id) -> None
         | v -> Some v
       else None)
  | None, None ->
    (* assumed stable: the §2.5 rule the evaluator applies *)
    for c = 0 to t.k - 1 do
      t.cwins.(c).(id) <- Wins []
    done;
    t.pinned.(id) <- true;
    t.constrained.(id) <- false;
    t.unk.(id) <- false;
    t.estr.(id) <- Some [];
    t.exact.(id) <- not t.vol.(id);
    t.kv.(id) <- (if t.vol.(id) then None else Some Tvalue.Stable)
  | _, Some _ ->
    (* driven: the transfer is the truth; reset to the sweep's bottom *)
    for c = 0 to t.k - 1 do
      t.cwins.(c).(id) <- Wins []
    done;
    t.pinned.(id) <- false;
    t.constrained.(id) <- n.Netlist.n_assertion <> None;
    t.unk.(id) <- false;
    t.estr.(id) <- None;
    t.exact.(id) <- false;
    t.kv.(id) <- None

(* ---- checker and assertion proofs ----------------------------------------- *)

(* The statically reconstructed settled waveform of an undriven net:
   precisely what [Eval]'s initialization assigns (assertion waveform,
   or constant Stable), which no driver ever overwrites.  Volatile nets
   are excluded — case substitution would rewrite their Stable spans. *)
let exact_base t (n : Netlist.net) =
  if not t.exact.(n.Netlist.n_id) then None
  else
    match n.Netlist.n_assertion with
    | Some a ->
      Some (Assertion.to_waveform (Netlist.defaults t.nl) (Netlist.timebase t.nl) a)
    | None -> Some (Waveform.const ~period:t.period Tvalue.Stable)

(* Replicates Eval.input_waveform on a statically known source: invert,
   then the wire delay unless the connection's directive zeroes it (an
   undriven net carries an empty evaluation string, so the connection
   directive is the whole story). *)
let exact_input t c (i : Netlist.inst) k =
  let cn = i.Netlist.i_inputs.(k) in
  let n = Netlist.net t.nl cn.Netlist.c_net in
  match exact_base t n with
  | None -> None
  | Some wf ->
    let wf = if cn.Netlist.c_invert then Waveform.map Tvalue.lnot wf else wf in
    if Directive.zero_wire (Directive.head cn.Netlist.c_directive) then Some wf
    else
      let wd = Delay.scale t.wscale.(c) (Netlist.wire_delay t.nl n) in
      Some (Waveform.apply_delay wd wf)

(* A sound over-approximation of the waveform seen through a connection:
   Change over the source windows dilated by the wire delay, Stable
   elsewhere.  Inversion preserves (in)stability, so it is dropped.
   None when Unknown may appear — Unknown is non-stable, and this
   abstraction could not represent it conservatively. *)
let abstract_input t c (i : Netlist.inst) k =
  let cn = i.Netlist.i_inputs.(k) in
  let id = cn.Netlist.c_net in
  if t.unk.(id) then None
  else
    match t.cwins.(c).(id) with
    | Top -> Some (Waveform.const ~period:t.period Tvalue.Change)
    | Wins spans ->
      let n = Netlist.net t.nl id in
      let zero_w =
        match static_letter t i k with
        | Some l -> Directive.zero_wire l
        | None -> false
      in
      let whi =
        if zero_w then 0
        else (Delay.scale t.wscale.(c) (Netlist.wire_delay t.nl n)).Delay.dmax
      in
      let ivals =
        List.filter_map
          (fun s ->
            let lo = s.s_lo and hi = s.s_hi + whi in
            if hi <= lo then None else Some (lo, hi))
          spans
      in
      Some
        (Waveform.of_intervals ~period:t.period ~inside:Tvalue.Change
           ~outside:Tvalue.Stable ivals)

let data_input t c i k =
  match exact_input t c i k with
  | Some wf -> Some (wf, true)
  | None -> (
    match abstract_input t c i k with
    | Some wf -> Some (wf, false)
    | None -> None)

(* (proven clean at every corner, proven violated at every corner).
   The clock must reconstruct exactly — the real Check functions are run
   on it, so rising windows (and the Undefined_clock asymmetry) match
   the dynamic verdict bit for bit; the data side may be abstract for a
   clean proof, but a guaranteed violation needs both sides exact, since
   only then is the static verdict the true one. *)
let prove_inst t (i : Netlist.inst) =
  let net_name k =
    (Netlist.net t.nl i.Netlist.i_inputs.(k).Netlist.c_net).Netlist.n_name
  in
  match i.Netlist.i_prim with
  | Primitive.Setup_hold_check { setup; hold }
  | Primitive.Setup_rise_hold_fall_check { setup; hold } ->
    let signal = net_name 0 and clock = net_name 1 in
    let corner c =
      match exact_input t c i 1 with
      | None -> None
      | Some ck -> (
        match data_input t c i 0 with
        | None -> None
        | Some (data, dx) ->
          let vs =
            match i.Netlist.i_prim with
            | Primitive.Setup_hold_check _ ->
              Check.check_setup_hold ~inst:i.Netlist.i_name ~signal ~clock ~setup
                ~hold ~data ~ck
            | _ ->
              Check.check_setup_rise_hold_fall ~inst:i.Netlist.i_name ~signal
                ~clock ~setup ~hold ~data ~ck
          in
          Some (vs = [], dx))
    in
    let rec go c p g =
      if c >= t.k then (p, g)
      else
        match corner c with
        | None -> (false, false)
        | Some (empty, dx) -> go (c + 1) (p && empty) (g && dx && not empty)
    in
    go 0 true true
  | Primitive.Min_pulse_width { high; low } ->
    (* pulse widths are measured on actual 0/1 pulses, which the Change/
       Stable abstraction cannot see — exact input only, and then the
       static verdict is the true one in both directions *)
    let signal = net_name 0 in
    let rec go c p g =
      if c >= t.k then (p, g)
      else
        match exact_input t c i 0 with
        | None -> (false, false)
        | Some wf ->
          let vs =
            Check.check_min_pulse_width ~inst:i.Netlist.i_name ~signal ~high ~low wf
          in
          let e = vs = [] in
          go (c + 1) (p && e) (g && not e)
    in
    go 0 true true
  | _ -> (false, false)

let pos_spans spans = List.filter (fun s -> s.s_hi > s.s_lo) spans

(* A driven stable-asserted net is proven when the real stable-assertion
   check accepts the abstract (Change-over-windows) waveform at every
   corner — the dynamic waveform's unstable instants are a subset, so
   its verdict is empty too. *)
let prove_net t (n : Netlist.net) =
  let id = n.Netlist.n_id in
  match n.Netlist.n_assertion, n.Netlist.n_driver with
  | Some a, Some _ when a.Assertion.kind = Assertion.Stable && not t.unk.(id) ->
    let ok c =
      match t.cwins.(c).(id) with
      | Top -> false
      | Wins spans ->
        let ivals =
          List.map (fun s -> (s.s_lo, s.s_hi)) (pos_spans spans)
        in
        let wf =
          Waveform.of_intervals ~period:t.period ~inside:Tvalue.Change
            ~outside:Tvalue.Stable ivals
        in
        Check.check_stable_assertion ~signal:n.Netlist.n_name
          ~tb:(Netlist.timebase t.nl) a wf
        = []
    in
    let rec go c = c >= t.k || (ok c && go (c + 1)) in
    go 0
  | _ -> false

(* The W5 contradiction: the net does have possible transition windows,
   and at every corner every one of them lies wholly inside a declared
   stable interval — when the signal moves at all, it violates its own
   assertion. *)
let contra_net t (n : Netlist.net) =
  let id = n.Netlist.n_id in
  match n.Netlist.n_assertion, n.Netlist.n_driver with
  | Some a, Some _ when a.Assertion.kind = Assertion.Stable && not t.unk.(id) ->
    let ivs =
      Assertion.intervals (Netlist.timebase t.nl) a
      |> List.filter_map (fun r ->
             let ((_, width) as iv) = Timebase.modular_range ~period:t.period r in
             if width = 0 then None else Some iv)
    in
    ivs <> []
    &&
    let ok c =
      match t.cwins.(c).(id) with
      | Top -> false
      | Wins spans -> (
        match pos_spans spans with
        | [] -> false
        | pos ->
          List.for_all
            (fun sp ->
              List.exists
                (fun (ist, iw) ->
                  iw >= t.period
                  || wrapp t.period (sp.s_lo - ist) + (sp.s_hi - sp.s_lo) <= iw)
                ivs)
            pos)
    in
    let rec go c = c >= t.k || (ok c && go (c + 1)) in
    go 0
  | _ -> false

let prove_all t =
  Netlist.iter_insts t.nl (fun i ->
      if Primitive.is_checker i.Netlist.i_prim then begin
        let p, g = prove_inst t i in
        Bytes.set t.p_inst i.Netlist.i_id (if p then '\001' else '\000');
        Bytes.set t.p_guar i.Netlist.i_id (if g then '\001' else '\000')
      end);
  Netlist.iter_nets t.nl (fun n ->
      Bytes.set t.p_net n.Netlist.n_id (if prove_net t n then '\001' else '\000');
      Bytes.set t.p_contra n.Netlist.n_id (if contra_net t n then '\001' else '\000'))

let compute_lanes t =
  let n = Netlist.n_nets t.nl in
  let eq = Array.make t.k true in
  for c = 1 to t.k - 1 do
    let same = ref true in
    (try
       for id = 0 to n - 1 do
         if t.cwins.(c).(id) <> t.cwins.(0).(id) then begin
           same := false;
           raise Exit
         end
       done
     with Exit -> ());
    eq.(c) <- !same
  done;
  t.lane_eq <- eq

(* ---- construction --------------------------------------------------------- *)

let analyse ?sched:sched_opt ?(case_nets = []) nl =
  let sched = match sched_opt with Some s -> s | None -> Sched.compute nl in
  let n_nets = Netlist.n_nets nl in
  let n_insts = Netlist.n_insts nl in
  let corners = Netlist.corners nl in
  let k = Array.length corners in
  let t =
    {
      nl;
      sched;
      period = Timebase.period (Netlist.timebase nl);
      corners;
      dscale = Array.map (fun (c : Corner.t) -> c.Corner.delay_scale) corners;
      wscale = Array.map (fun (c : Corner.t) -> c.Corner.wire_scale) corners;
      k;
      cwins = Array.init k (fun _ -> Array.make (max 1 n_nets) (Wins []));
      pinned = Array.make (max 1 n_nets) false;
      constrained = Array.make (max 1 n_nets) false;
      unk = Array.make (max 1 n_nets) false;
      vol = Array.make (max 1 n_nets) false;
      kv = Array.make (max 1 n_nets) None;
      estr = Array.make (max 1 n_nets) None;
      exact = Array.make (max 1 n_nets) false;
      p_inst = Bytes.make (max 1 n_insts) '\000';
      p_guar = Bytes.make (max 1 n_insts) '\000';
      p_net = Bytes.make (max 1 n_nets) '\000';
      p_contra = Bytes.make (max 1 n_nets) '\000';
      lane_eq = Array.make k true;
    }
  in
  List.iter
    (fun id -> if id >= 0 && id < n_nets then t.vol.(id) <- true)
    case_nets;
  Netlist.iter_nets nl (fun n -> seed_net t n);
  for sid = Sched.n_sccs sched - 1 downto 0 do
    run_scc t sid
  done;
  compute_constrained t;
  prove_all t;
  compute_lanes t;
  t

(* ---- accessors ------------------------------------------------------------ *)

let wins t ?(corner = 0) id = t.cwins.(corner).(id)
let constrained t id = t.constrained.(id)
let may_unknown t id = t.unk.(id)

let unbounded t id =
  let rec go c =
    c < t.k && (match t.cwins.(c).(id) with Top -> true | Wins _ -> go (c + 1))
  in
  go 0

let inst_proven t id = Bytes.get t.p_inst id = '\001'
let inst_guaranteed t id = Bytes.get t.p_guar id = '\001'
let net_proven t id = Bytes.get t.p_net id = '\001'
let net_contradicted t id = Bytes.get t.p_contra id = '\001'

let count_bytes b n =
  let c = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get b i = '\001' then incr c
  done;
  !c

let n_insts_proven t = count_bytes t.p_inst (Netlist.n_insts t.nl)
let n_guaranteed t = count_bytes t.p_guar (Netlist.n_insts t.nl)
let n_nets_proven t = count_bytes t.p_net (Netlist.n_nets t.nl)

let counts t =
  let b = ref 0 and u = ref 0 in
  Netlist.iter_nets t.nl (fun n ->
      match t.cwins.(0).(n.Netlist.n_id) with
      | Top -> incr u
      | Wins _ -> incr b);
  (!b, !u)

let n_unconstrained t =
  let c = ref 0 in
  Netlist.iter_nets t.nl (fun n ->
      if not t.constrained.(n.Netlist.n_id) then incr c);
  !c

let n_lanes_static t =
  let c = ref 0 in
  for i = 1 to t.k - 1 do
    if t.lane_eq.(i) then incr c
  done;
  !c

(* ---- listing --------------------------------------------------------------- *)

let spans_str spans =
  match spans with
  | [] -> "never"
  | l ->
    String.concat " "
      (List.map
         (fun s ->
           Printf.sprintf "%.1f-%.1f" (Timebase.ns_of_ps s.s_lo)
             (Timebase.ns_of_ps s.s_hi))
         l)

let pp_windows ppf t =
  Format.fprintf ppf "@[<v>ARRIVAL WINDOW LISTING@,@,";
  Netlist.iter_nets t.nl (fun n ->
      let id = n.Netlist.n_id in
      let w =
        match t.cwins.(0).(id) with Top -> "unbounded" | Wins l -> spans_str l
      in
      let w = if t.unk.(id) then w ^ " ?unknown" else w in
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
      let witness =
        if t.constrained.(id) then witness else witness ^ ", unconstrained"
      in
      Format.fprintf ppf "%-28s %-28s %s@," n.Netlist.n_name w witness);
  let b, u = counts t in
  Format.fprintf ppf "@,%d BOUNDED %d UNBOUNDED %d UNCONSTRAINED (%d nets)@,"
    b u (n_unconstrained t) (Netlist.n_nets t.nl);
  let n_checkers = ref 0 in
  Netlist.iter_insts t.nl (fun i ->
      if Primitive.is_checker i.Netlist.i_prim then incr n_checkers);
  Format.fprintf ppf
    "%d of %d checkers proven   %d guaranteed violations   %d asserted nets proven@,"
    (n_insts_proven t) !n_checkers (n_guaranteed t) (n_nets_proven t);
  Format.fprintf ppf "%d of %d extra lanes statically shared@,@]"
    (n_lanes_static t)
    (max 0 (t.k - 1))
