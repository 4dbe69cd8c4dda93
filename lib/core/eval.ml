(* Dense primitive-kind tags for the per-kind evaluation counters: an
   array index is the only bookkeeping the hot path can afford. *)
let n_kinds = 12

let kind_tag = function
  | Primitive.Gate { fn = Primitive.And; _ } -> 0
  | Primitive.Gate { fn = Primitive.Or; _ } -> 1
  | Primitive.Gate { fn = Primitive.Xor; _ } -> 2
  | Primitive.Gate { fn = Primitive.Chg; _ } -> 3
  | Primitive.Buf _ -> 4
  | Primitive.Mux2 _ -> 5
  | Primitive.Reg _ -> 6
  | Primitive.Latch _ -> 7
  | Primitive.Setup_hold_check _ -> 8
  | Primitive.Setup_rise_hold_fall_check _ -> 9
  | Primitive.Min_pulse_width _ -> 10
  | Primitive.Const _ -> 11

let kind_name = function
  | 0 -> "AND"
  | 1 -> "OR"
  | 2 -> "XOR"
  | 3 -> "CHG"
  | 4 -> "BUF"
  | 5 -> "MUX2"
  | 6 -> "REG"
  | 7 -> "LATCH"
  | 8 -> "SETUP HOLD CHK"
  | 9 -> "SETUP RISE HOLD FALL CHK"
  | 10 -> "MIN PULSE WIDTH"
  | _ -> "CONST"

(* ---- the counter table ------------------------------------------------------ *)

type merge = Sum | Max
type row = { key : string; merge : merge; doc : string }

(* Every evaluator counter is one row, declared once here: the metrics
   key it prints under, how two snapshots merge and its doc.  [row]
   hands back the counter's slot in the evaluator's [count] array, which
   the hot path bumps with a plain integer increment.  The per-kind
   evaluation counts follow the rows, one slot per kind tag. *)
module Row = struct
  let rows = ref []

  let row key merge doc =
    rows := { key; merge; doc } :: !rows;
    List.length !rows - 1

  let requests = row "requests" Sum
      "service-level requests served (count_request); 0 for one-shot runs"

  let events = row "events" Sum "output-change events processed (§3.3.2)"
  let evaluations = row "evaluations" Sum "primitive evaluations performed"

  let queued = row "events_queued" Sum
      "enqueue requests (fanout activations) of instances with an output net; a \
       checker is never enqueued"

  let coalesced = row "events_coalesced" Sum
      "enqueue requests absorbed because the instance was already on the work list"

  let queue_hwm = row "queue_hwm" Max "work-list high-water mark"
  let sched_levels = row "sched_levels" Max "topological levels in the schedule"
  let sccs = row "sccs" Max "strongly connected components in the schedule"
  let max_scc_size = row "max_scc_size" Max "largest component (1 when acyclic)"

  let cache_hits = row "cache_hits" Sum
      "input-waveform cache hits, plus the verdicts each check pass kept"

  let cache_misses = row "cache_misses" Sum
      "input-waveform cache fills, plus the verdicts re-derived"

  let corners = row "corners" Max "corners evaluated per traversal (1 single-corner)"

  let lanes_shared = row "corner_lanes_shared" Sum
      "lane outputs that converged to the reference waveform and share its record"

  let evals_saved = row "corner_evals_saved" Sum
      "lane evaluations skipped because every input was constant and shared with \
       the reference lane"
end

let rows = Array.of_list (List.rev !Row.rows)
let table = Array.to_list rows
let kind_base = Array.length rows
let n_slots = kind_base + n_kinds

(* A dirty log: the ids logged since one lane's last check pass, in
   logging order, with one mark byte per id so that each id is logged
   once and logging never allocates.  A net's mark says what moved:
   [own] its verdict's class alone, [stamp] its generation stamp, which
   also dirties every instance in its fanout.  Instances use [own]. *)
type log = { ids : int array; mutable n : int; mark : Bytes.t }

let own = '\001'
let stamp = '\002'

(* The first pass of an evaluator re-derives every verdict: its logs
   start with every id in them. *)
let log_full n m = { ids = Array.init n Fun.id; n; mark = Bytes.make n m }

let log_add lg id m =
  let old = Bytes.unsafe_get lg.mark id in
  if old < m then begin
    if old = '\000' then begin
      lg.ids.(lg.n) <- id;
      lg.n <- lg.n + 1
    end;
    Bytes.unsafe_set lg.mark id m
  end

module Ids = Set.Make (Int)

(* Per-corner evaluation state (doc/CORNERS.md), one record per corner:
   lane 0 is the reference.  Every lane carries the same memo structure,
   keyed on the evaluator's per-net [gen] stamps: any lane changing a
   net bumps the stamp, so every lane's caches miss together. *)
type lane = {
  l_dscale : float;  (* element-delay scale factor of this corner *)
  l_wscale : float;  (* interconnection-delay scale factor *)
  l_value : Waveform.t array;
      (* per-net waveform; on lanes 1..k-1 the lane-0 record itself
         whenever equal *)
  (* Generation-stamped input cache: [conn_base.(i) + k] is the flat
     index of input [k] of instance [i]; the cached waveform is valid
     while the driving net's [gen] still equals [l_cache_gen]. *)
  l_cache_gen : int array;
  l_cache_wf : Waveform.t array;
  (* Per-net memo backing the per-conn cache: for the common
     untransformed connection (no inversion, no explicit directive) the
     derived input waveform depends only on the driving net, so every
     such conn of one net shares a single record per generation instead
     of allocating its own. *)
  l_net_gen : int array;
  l_net_wf : Waveform.t array;
  (* Check-pass state.  An instance's verdicts are a pure function of
     its input waveforms and its own parameters, a net's of its value
     and its assertion, so a check pass re-derives only what the dirty
     logs name (§2.7): the nets whose stamp moved, the instances in
     their fanout and the ids [touch_inst] or a class change named.
     The list is built from the ids whose verdicts are non-empty. *)
  l_chk : Check.t list array;  (* per-inst verdicts *)
  l_chk_net : Check.t list array;  (* per-net assertion verdicts *)
  mutable l_bad_insts : Ids.t;  (* ids whose [l_chk] is non-empty *)
  mutable l_bad_nets : Ids.t;  (* ids whose [l_chk_net] is non-empty *)
  l_dirty_nets : log;
  l_dirty_insts : log;
}

type t = {
  nl : Netlist.t;  (* read, never written *)
  sched : Sched.t;
  gen : int array;
      (* per-net generation stamp, bumped on every assignment to the
         net's value or evaluation string on any lane; keys the memos *)
  moved : Bytes.t;  (* per net: its stamp moved since the last reset *)
  mutable n_moved : int;  (* nets marked in [moved] *)
  eval_str : Directive.t array;
      (* per-net evaluation string carried by the value, consumed one
         letter per level of gating (§2.8) *)
  buckets : int Queue.t array;  (* work list: one FIFO bucket per level *)
  mutable cur_level : int;  (* bucket sweep cursor *)
  mutable queue_len : int;  (* items queued across all buckets *)
  scc_evals : int array;  (* per cyclic component: evals this run *)
  mutable diverged_slot : int;  (* cyclic slot that blew its budget, -1 none *)
  in_queue : Bytes.t;  (* packed booleans, one byte per instance *)
  case : Tvalue.t option array;
  mutable case_ids : int array;  (* ascending ids [case] maps *)
  conn_base : int array;
  corners : Corner.table;
  lanes : lane array;  (* one per corner, lane 0 the reference *)
  mutable check_hits : int;  (* verdicts a check pass kept *)
  (* Whether each id reports at all: a live id's verdicts are derived
     by the check pass, every other id's are empty.  [n_live] counts the
     live ids, which is all the per-pass counters need. *)
  inst_live : Bytes.t;
  net_live : Bytes.t;
  mutable n_live : int;
  count : int array;  (* one slot per counter-table row, then per kind *)
  mutable converged : bool;
  mutable initialized : bool;
}

(* ---- live ids --------------------------------------------------------------- *)

(* An instance reports by its kind (checkers, and gates for their &A/&H
   hazard checks), a net when it is driven and asserted. *)
let inst_reports t id =
  match (Netlist.inst t.nl id).i_prim with
  | Primitive.Gate _ | Primitive.Setup_hold_check _
  | Primitive.Setup_rise_hold_fall_check _ | Primitive.Min_pulse_width _ ->
    true
  | Primitive.Buf _ | Primitive.Mux2 _ | Primitive.Reg _ | Primitive.Latch _
  | Primitive.Const _ ->
    false

let net_reports t id =
  let n = Netlist.net t.nl id in
  n.n_assertion <> None && n.n_driver <> None

(* Record whether an id reports.  A change re-counts the id and logs it
   on every lane, so the next pass re-derives or clears its verdicts. *)
let relive t live log id now =
  if (Bytes.unsafe_get live id <> '\000') <> now then begin
    t.n_live <- (t.n_live + if now then 1 else -1);
    Bytes.unsafe_set live id (if now then '\001' else '\000');
    for l = 0 to Array.length t.lanes - 1 do
      log_add (log t.lanes.(l)) id own
    done
  end

let relive_inst t id =
  relive t t.inst_live (fun ln -> ln.l_dirty_insts) id (inst_reports t id)

let relive_net t id = relive t t.net_live (fun ln -> ln.l_dirty_nets) id (net_reports t id)

let create ?sched nl =
  let n_insts = Netlist.n_insts nl in
  let conn_base = Array.make (max 1 n_insts) 0 in
  let n_conns = ref 0 in
  Netlist.iter_insts nl (fun i ->
      conn_base.(i.Netlist.i_id) <- !n_conns;
      n_conns := !n_conns + Array.length i.Netlist.i_inputs);
  let dummy_wf =
    Waveform.const ~period:(Timebase.period (Netlist.timebase nl)) Tvalue.Unknown
  in
  let sched = match sched with Some s -> s | None -> Sched.compute nl in
  let corners = Netlist.corners nl in
  let n_nets = max 1 (Netlist.n_nets nl) in
  let lanes =
    Array.map
      (fun (c : Corner.t) ->
        {
          l_dscale = c.delay_scale;
          l_wscale = c.wire_scale;
          l_value = Array.make n_nets dummy_wf;
          l_cache_gen = Array.make (max 1 !n_conns) (-1);
          l_cache_wf = Array.make (max 1 !n_conns) dummy_wf;
          l_net_gen = Array.make n_nets (-1);
          l_net_wf = Array.make n_nets dummy_wf;
          l_chk = Array.make (max 1 n_insts) [];
          l_chk_net = Array.make n_nets [];
          l_bad_insts = Ids.empty;
          l_bad_nets = Ids.empty;
          l_dirty_nets = log_full (Netlist.n_nets nl) stamp;
          l_dirty_insts = log_full n_insts own;
        })
      corners
  in
  let t =
    {
      nl;
      sched;
      gen = Array.make n_nets 0;
      moved = Bytes.make n_nets '\000';
      n_moved = 0;
      eval_str = Array.make n_nets [];
      buckets = Array.init (max 1 (Sched.n_levels sched)) (fun _ -> Queue.create ());
      cur_level = 0;
      queue_len = 0;
      scc_evals = Array.make (Sched.n_cyclic sched) 0;
      diverged_slot = -1;
      in_queue = Bytes.make (max 1 n_insts) '\000';
      case = Array.make n_nets None;
      case_ids = [||];
      conn_base;
      corners;
      lanes;
      check_hits = 0;
      inst_live = Bytes.make (max 1 n_insts) '\000';
      net_live = Bytes.make n_nets '\000';
      n_live = 0;
      count = Array.make n_slots 0;
      converged = true;
      initialized = false;
    }
  in
  for id = 0 to n_insts - 1 do
    relive_inst t id
  done;
  for id = 0 to Netlist.n_nets nl - 1 do
    relive_net t id
  done;
  t

let netlist t = t.nl
let sched t = t.sched
let corners t = t.corners
let n_corners t = Array.length t.corners

(* A plain integer increment of one counter slot: the hot path's only
   bookkeeping.  Slots come from [Row] or [kind_base], so they are in
   range. *)
let[@inline] add t slot n =
  Array.unsafe_set t.count slot (Array.unsafe_get t.count slot + n)

let events t = t.count.(Row.events)
let evaluations t = t.count.(Row.evaluations)
let converged t = t.converged
let check_hits t = t.check_hits
let nets_moved t = t.n_moved

let count_request t = add t Row.requests 1

let reset_counters t =
  Array.fill t.count 0 n_slots 0;
  t.check_hits <- 0;
  Bytes.fill t.moved 0 (Bytes.length t.moved) '\000';
  t.n_moved <- 0

type counters = int array

(* The schedule shape and the lane count describe the evaluator, not
   its work: the snapshot reads them off the schedule and the corner
   table, so a reset leaves them readable. *)
let counters t =
  let c = Array.copy t.count in
  c.(Row.sched_levels) <- Sched.n_levels t.sched;
  c.(Row.sccs) <- Sched.n_sccs t.sched;
  c.(Row.max_scc_size) <- Sched.max_scc_size t.sched;
  c.(Row.corners) <- Array.length t.corners;
  c

let zero_counters = Array.make n_slots 0

let merge_counters a b =
  Array.mapi
    (fun i x ->
      if i < kind_base && rows.(i).merge = Max then max x b.(i) else x + b.(i))
    a

let slot_of key =
  let rec find i =
    if i = kind_base then invalid_arg (Printf.sprintf "Eval.counter: no counter %S" key)
    else if rows.(i).key = key then i
    else find (i + 1)
  in
  find 0

let counter c key = c.(slot_of key)
let counter_list c = List.mapi (fun i r -> (r.key, c.(i))) table

let evals_by_kind c =
  List.init n_kinds (fun k -> (kind_name k, c.(kind_base + k)))
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let period t = Timebase.period (Netlist.timebase t.nl)

let apply_case t id wf =
  match t.case.(id) with
  | None -> wf
  | Some v ->
    Waveform.map (fun x -> match x with Tvalue.Stable -> v | _ -> x) wf

(* Initial value of a net before any driver has produced one. *)
let initial_value t (n : Netlist.net) =
  let base =
    match n.n_assertion with
    | Some a -> Assertion.to_waveform (Netlist.defaults t.nl) (Netlist.timebase t.nl) a
    | None ->
      if n.n_driver = None then Waveform.const ~period:(period t) Tvalue.Stable
      else Waveform.const ~period:(period t) Tvalue.Unknown
  in
  apply_case t n.n_id base

(* Every stamp move goes through [bump], which marks the net as moved
   and logs it on every lane for the check pass: its own verdict and its
   fanout's may have moved. *)
let bump t id =
  t.gen.(id) <- t.gen.(id) + 1;
  if Bytes.unsafe_get t.moved id = '\000' then begin
    Bytes.unsafe_set t.moved id '\001';
    t.n_moved <- t.n_moved + 1
  end;
  for c = 0 to Array.length t.lanes - 1 do
    log_add t.lanes.(c).l_dirty_nets id stamp
  done

(* Every assignment to a net's lane-0 value and evaluation string goes
   through [assign] so the generation stamp can never fall behind
   them. *)
let assign t id wf eval_str =
  t.lanes.(0).l_value.(id) <- wf;
  t.eval_str.(id) <- eval_str;
  bump t id

(* A checker has no output net: evaluating one computes nothing, and the
   check pass reaches it through the dirty log's fanout, so it never
   enters the work list. *)
let enqueue t inst_id =
  if (Netlist.inst t.nl inst_id).i_output <> None then begin
    add t Row.queued 1;
    if Bytes.unsafe_get t.in_queue inst_id <> '\000' then add t Row.coalesced 1
    else begin
      Bytes.unsafe_set t.in_queue inst_id '\001';
      let l = Sched.level t.sched inst_id in
      Queue.add inst_id t.buckets.(l);
      if l < t.cur_level then t.cur_level <- l;
      t.queue_len <- t.queue_len + 1;
      if t.queue_len > t.count.(Row.queue_hwm) then
        t.count.(Row.queue_hwm) <- t.queue_len
    end
  end

let enqueue_fanout t net_id =
  Netlist.iter_fanout (Netlist.net t.nl net_id) (enqueue t)

(* Drop all pending work, resetting the in-queue flags so a later
   (incremental) run starts from a consistent work list. *)
let clear_work t =
  let drop q =
    Queue.iter (fun id -> Bytes.unsafe_set t.in_queue id '\000') q;
    Queue.clear q
  in
  Array.iter drop t.buckets;
  t.queue_len <- 0

(* ---- directive resolution --------------------------------------------- *)

(* The evaluation string for an input connection: an explicit "&..."
   directive on the connection wins; otherwise the string carried by the
   signal value (§2.8). *)
let effective_directive t (inst : Netlist.inst) i =
  let c = inst.i_inputs.(i) in
  if c.c_directive <> [] then c.c_directive else t.eval_str.(c.c_net)

(* ---- input processing --------------------------------------------------- *)

(* A lane k > 0 shares lane 0's derived input (and its memo record) when
   its raw waveform is the lane-0 record itself and either the wire
   scale matches lane 0's or the waveform is a single segment — skew is
   the only thing a delay can add to a constant, and skew is
   unobservable on one segment (materialization drops it, the pointwise
   maps ignore it). *)
let shares_lane0 t lane id =
  lane > 0
  &&
  let ln = t.lanes.(lane) and l0 = t.lanes.(0) in
  let v0 = l0.l_value.(id) in
  ln.l_value.(id) == v0 && (ln.l_wscale = l0.l_wscale || Waveform.n_segments v0 = 1)

(* A [W]/[Z]/[H] directive zeroes the wire into an input (§2.6). *)
let wire_delay t lane (inst : Netlist.inst) i =
  if Directive.zero_wire (Directive.head (effective_directive t inst i)) then Delay.zero
  else
    Delay.scale t.lanes.(lane).l_wscale
      (Netlist.wire_delay t.nl (Netlist.net t.nl inst.i_inputs.(i).c_net))

(* A [Z]/[H] directive on any input zeroes a gating level's delay. *)
let rec zero_gate t (inst : Netlist.inst) i =
  i < Array.length inst.i_inputs
  && (Directive.zero_gate (Directive.head (effective_directive t inst i))
     || zero_gate t inst (i + 1))

(* An [A]/[H] directive makes input [i] a hazard input: the gate checks
   the others are stable while it is asserted (§2.6). *)
let hazard_letter t (inst : Netlist.inst) i =
  Directive.check_hazard (Directive.head (effective_directive t inst i))

let rec hazard_input t (inst : Netlist.inst) i =
  i < Array.length inst.i_inputs && (hazard_letter t inst i || hazard_input t inst (i + 1))

let element_delay t lane (inst : Netlist.inst) =
  match Primitive.element_delay inst.i_prim with
  | Some d when not (Primitive.is_gating inst.i_prim && zero_gate t inst 0) ->
    Delay.scale t.lanes.(lane).l_dscale d
  | Some _ | None -> Delay.zero

(* The input waveform is a pure function of the driving net's evaluation
   state (value + evaluation string) and of static structure, so it is
   memoized per connection, keyed on the net's generation stamp.  High-
   fanout nets and the checker pass (which re-derives every input) hit
   the cache instead of re-applying inversion and wire delay. *)
let rec input_waveform t lane (inst : Netlist.inst) i =
  let c = inst.i_inputs.(i) in
  let id = c.c_net in
  if shares_lane0 t lane id then input_waveform t 0 inst i
  else begin
    let ln = t.lanes.(lane) in
    let idx = t.conn_base.(inst.i_id) + i in
    let gen = t.gen.(id) in
    if ln.l_cache_gen.(idx) = gen then begin
      add t Row.cache_hits 1;
      ln.l_cache_wf.(idx)
    end
    else begin
      add t Row.cache_misses 1;
      let raw = ln.l_value.(id) in
      let wf =
        if (not c.c_invert) && c.c_directive = [] then begin
          (* Untransformed connection: the result is a function of the
             net alone, so all such conns share one record per
             generation (the per-conn stamps and hit/miss accounting
             are unchanged — only the allocation is shared). *)
          if ln.l_net_gen.(id) = gen then ln.l_net_wf.(id)
          else begin
            let wf = Waveform.apply_delay (wire_delay t lane inst i) raw in
            ln.l_net_gen.(id) <- gen;
            ln.l_net_wf.(id) <- wf;
            wf
          end
        end
        else Waveform.buffer ~invert:c.c_invert ~delay:(wire_delay t lane inst i) raw
      in
      ln.l_cache_gen.(idx) <- gen;
      ln.l_cache_wf.(idx) <- wf;
      wf
    end
  end

(* ---- primitive models --------------------------------------------------- *)

(* Output value of a 2-input multiplexer as a function of the three
   input values at an instant, with a stable-but-unknown or changing
   select treated worst-case. *)
let mux_value a b s =
  match s with
  | Tvalue.V0 -> a
  | Tvalue.V1 -> b
  | Tvalue.Unknown -> Tvalue.Unknown
  | Tvalue.Stable ->
    if Tvalue.equal a b then a
    else (
      match a, b with
      | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
      | _, _ ->
        if Tvalue.is_stable a && Tvalue.is_stable b then Tvalue.Stable
        else if Tvalue.is_stable a then b
        else if Tvalue.is_stable b then a
        else Tvalue.Change)
  | Tvalue.Rise | Tvalue.Fall | Tvalue.Change -> (
    match a, b with
    | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
    | _, _ -> Tvalue.Change)

(* Asynchronous SET/RESET overlay applied pointwise over the clocked
   behaviour of a register or latch (§2.4.3). *)
let set_reset_overlay out s r =
  match s, r with
  | Tvalue.V0, Tvalue.V0 -> out
  | Tvalue.V1, Tvalue.V0 -> Tvalue.V1
  | Tvalue.V0, Tvalue.V1 -> Tvalue.V0
  | Tvalue.V1, Tvalue.V1 -> Tvalue.Unknown
  | Tvalue.Unknown, _ | _, Tvalue.Unknown -> Tvalue.Unknown
  | _, _ -> Tvalue.Change

(* Whether every remaining window samples [v] from the data input. *)
let rec samples_all data_m v = function
  | [] -> true
  | w :: rest -> (
    match Waveform.sampled data_m w with
    | Some v' when Tvalue.equal v v' -> samples_all data_m v rest
    | Some _ | None -> false)

let reg_output ~period ~delay ~data_m ~clock =
  match Waveform.rising_windows clock with
  | [] ->
    if
      List.for_all
        (fun (v, _) -> match v with Tvalue.Unknown -> true | _ -> false)
        (Waveform.segments clock)
    then Waveform.const ~period Tvalue.Unknown
    else Waveform.const ~period Tvalue.Stable
  | first :: rest as windows ->
    let data_m = Lazy.force data_m in
    (* The value every window samples, else Stable. *)
    let base =
      match Waveform.sampled data_m first with
      | Some v when samples_all data_m v rest -> v
      | Some _ | None -> Tvalue.Stable
    in
    let change_ivals =
      List.map
        (fun { Waveform.w_start; w_stop } ->
          (w_start + delay.Delay.dmin, w_stop + delay.Delay.dmax))
        windows
    in
    Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:base change_ivals

(* Transparent-latch value as a function of the data and enable values
   at an instant, tabulated once; the result is then delayed by the
   latch delay. *)
let latch_table =
  Waveform.table @@ fun d e ->
  match e with
  | Tvalue.V0 -> Tvalue.Stable
  | Tvalue.Unknown -> Tvalue.Unknown
  | Tvalue.V1 | Tvalue.Stable -> (
    match d with
    | Tvalue.Unknown -> Tvalue.Unknown
    | Tvalue.Change | Tvalue.Rise | Tvalue.Fall -> Tvalue.Change
    | Tvalue.V0 | Tvalue.V1 -> if Tvalue.equal e Tvalue.V1 then d else Tvalue.Stable
    | Tvalue.Stable -> Tvalue.Stable)
  | Tvalue.Rise | Tvalue.Change -> (
    (* The latch may be opening: the output can change to the new data
       value regardless of the data's stability. *)
    match d with Tvalue.Unknown -> Tvalue.Unknown | _ -> Tvalue.Change)
  | Tvalue.Fall -> (
    (* The latch is closing: with stable data the captured value equals
       the transparent value, so the output does not change. *)
    match d with
    | Tvalue.Unknown -> Tvalue.Unknown
    | Tvalue.Change | Tvalue.Rise | Tvalue.Fall -> Tvalue.Change
    | Tvalue.V0 | Tvalue.V1 | Tvalue.Stable -> Tvalue.Stable)

(* A value with the overlay's Change painted over it. *)
let paint_table =
  Waveform.table (fun v p ->
      match p, v with
      | Tvalue.Change, Tvalue.Unknown -> Tvalue.Unknown
      | Tvalue.Change, _ -> Tvalue.Change
      | _, v -> v)

(* Paint Change over the given windows (dilated by a delay range) on a
   waveform -- used for output changes caused by an input transition that
   the pointwise combination cannot see, such as a zero-width select or
   enable edge between two Stable regions. *)
let paint_change_windows ~period ~d windows wf =
  if windows = [] then wf
  else
    let ivals =
      List.map
        (fun { Waveform.w_start; w_stop } -> (w_start + d.Delay.dmin, w_stop + d.Delay.dmax))
        windows
    in
    let overlay =
      Waveform.of_intervals ~period ~inside:Tvalue.Change ~outside:Tvalue.Stable ivals
    in
    Waveform.map2 paint_table wf overlay

(* ---- instance evaluation ------------------------------------------------ *)

(* One lane's output: the primitive models are corner-invariant; only
   the element and wire delays differ per lane, so the body is shared
   and the lane selects the input derivation and the delay scale. *)
let eval_output t lane (inst : Netlist.inst) =
  let dscale = t.lanes.(lane).l_dscale in
  match inst.i_prim with
  | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
  | Primitive.Min_pulse_width _ ->
    None
  | Primitive.Const v -> Some (Waveform.const ~period:(period t) v)
  | Primitive.Buf { invert; delay } ->
    let d = if zero_gate t inst 0 then Delay.zero else Delay.scale dscale delay in
    Some (Waveform.buffer ~invert ~delay:d (input_waveform t lane inst 0))
  | Primitive.Gate { fn; n_inputs; invert; delay } ->
    let wfs =
      if hazard_input t inst 0 then begin
        (* &A / &H: assume the other (control) inputs enable the gate,
           so the output follows the clock alone (§2.6). *)
        let enabling = Waveform.const ~period:(period t) (Primitive.enabling_value fn) in
        let wfs = Array.make n_inputs enabling in
        for i = 0 to n_inputs - 1 do
          if hazard_letter t inst i then wfs.(i) <- input_waveform t lane inst i
        done;
        wfs
      end
      else begin
        let wfs = Array.make n_inputs (input_waveform t lane inst 0) in
        for i = 1 to n_inputs - 1 do
          wfs.(i) <- input_waveform t lane inst i
        done;
        wfs
      end
    in
    let d = if zero_gate t inst 0 then Delay.zero else Delay.scale dscale delay in
    Some
      (Waveform.gate (Primitive.gate_table fn) ~init:(Primitive.enabling_value fn) ~invert
         ~delay:d wfs)
  | Primitive.Mux2 { delay; select_extra } ->
    let a = input_waveform t lane inst 0 and b = input_waveform t lane inst 1 and s = input_waveform t lane inst 2 in
    let s = Waveform.apply_delay (Delay.scale dscale select_extra) s in
    let combined = Waveform.map3 mux_value a b s in
    let d = if zero_gate t inst 0 then Delay.zero else Delay.scale dscale delay in
    let out = Waveform.apply_delay d combined in
    (* A select transition may change the output even when both data
       inputs are stable (their unknown stable values can differ), so
       paint Change over every select-transition window dilated by the
       mux delay. *)
    Some (paint_change_windows ~period:(period t) ~d (Waveform.change_windows s) out)
  | Primitive.Reg { delay; has_set_reset } ->
    let delay = Delay.scale dscale delay in
    (* The data input's record comes from the input cache and keeps its
       folded form, so a clock-only re-evaluation folds nothing. *)
    let data_m = lazy (Waveform.materialize (input_waveform t lane inst 0)) in
    let clock = input_waveform t lane inst 1 in
    let out = reg_output ~period:(period t) ~delay ~data_m ~clock in
    if not has_set_reset then Some out
    else
      let s = Waveform.apply_delay delay (input_waveform t lane inst 2)
      and r = Waveform.apply_delay delay (input_waveform t lane inst 3) in
      Some (Waveform.map3 set_reset_overlay out s r)
  | Primitive.Latch { delay; has_set_reset } ->
    let delay = Delay.scale dscale delay in
    let data = input_waveform t lane inst 0 and enable = input_waveform t lane inst 1 in
    let out = Waveform.apply_delay delay (Waveform.map2 latch_table data enable) in
    (* The opening (rising-enable) edge may change the output even with
       stable data: the held value from the previous cycle can differ
       from the current data value.  Zero-width edges are invisible to
       the pointwise combination, so paint them explicitly. *)
    let out =
      paint_change_windows ~period:(period t) ~d:delay
        (Waveform.rising_windows enable) out
    in
    if not has_set_reset then Some out
    else
      let s = Waveform.apply_delay delay (input_waveform t lane inst 2)
      and r = Waveform.apply_delay delay (input_waveform t lane inst 3) in
      Some (Waveform.map3 set_reset_overlay out s r)

(* The evaluation string passed along with the output value: the rest of
   the first non-empty input directive (§2.8).  Only levels of gating
   propagate it. *)
let output_eval_str t (inst : Netlist.inst) =
  if not (Primitive.is_gating inst.i_prim) then []
  else
    let n = Array.length inst.i_inputs in
    let rec find i =
      if i >= n then []
      else
        match effective_directive t inst i with [] -> find (i + 1) | _ :: rest -> rest
    in
    find 0

(* Equality up to skew on a constant: [Waveform.equal] compares the
   early/late skew window, but on a single-segment waveform skew is
   unobservable (materialization drops it, [value_at] and the pointwise
   maps ignore it), so two constants with the same value are the same
   waveform for every downstream purpose.  Canonicalizing through this
   lets a lane share the lane-0 record even when a scaled delay left a
   different (invisible) skew on a constant. *)
let same_modulo_const_skew a b =
  a == b || Waveform.equal a b
  || (Waveform.n_segments a = 1 && Waveform.n_segments b = 1
     && Waveform.period a = Waveform.period b
     && Tvalue.equal (Waveform.value_at a 0) (Waveform.value_at b 0))

(* A lane's evaluation of an instance is skippable when every input is
   pointer-shared with lane 0 *and* constant: delays (however scaled)
   are invisible on constants, so the lane's output equals the lane-0
   output exactly. *)
let lane_eval_skippable t (ln : lane) (inst : Netlist.inst) =
  let v0 = t.lanes.(0).l_value in
  let n = Array.length inst.i_inputs in
  let rec go i =
    i >= n
    || (let id = inst.i_inputs.(i).c_net in
        let nv = v0.(id) in
        ln.l_value.(id) == nv && Waveform.n_segments nv = 1 && go (i + 1))
  in
  go 0

let eval_inst t inst_id =
  let inst = Netlist.inst t.nl inst_id in
  add t Row.evaluations 1;
  add t (kind_base + kind_tag inst.i_prim) 1;
  match eval_output t 0 inst with
  | None -> ()
  | Some wf -> (
    match inst.i_output with
    | None -> ()
    | Some out_id ->
      let v0 = t.lanes.(0).l_value in
      let wf = apply_case t out_id wf in
      let eval_str = output_eval_str t inst in
      let changed =
        not (Waveform.equal wf v0.(out_id)) || eval_str <> t.eval_str.(out_id)
      in
      (* Lane 0 assigns first so the lanes below canonicalize against
         the *new* reference waveform. *)
      if changed then assign t out_id wf eval_str;
      let ref_wf = v0.(out_id) in
      let lane_changed = ref false in
      for c = 1 to Array.length t.lanes - 1 do
        let ln = t.lanes.(c) in
        let prev = ln.l_value.(out_id) in
        let next =
          if lane_eval_skippable t ln inst then begin
            add t Row.evals_saved 1;
            ref_wf
          end
          else begin
            let o =
              apply_case t out_id (Option.get (eval_output t c inst))
            in
            (* Converge storage: a lane output equal to the reference
               (or to its own previous value) keeps the existing record,
               so pointer inequality below is exact change detection. *)
            if same_modulo_const_skew o ref_wf then begin
              if o != ref_wf then add t Row.lanes_shared 1;
              ref_wf
            end
            else if same_modulo_const_skew o prev then prev
            else o
          end
        in
        if next != prev then begin
          ln.l_value.(out_id) <- next;
          lane_changed := true
        end
      done;
      if changed || !lane_changed then begin
        (* A lane-only change must still invalidate the generation-keyed
           caches and wake the fanout; lane 0's stamp was already bumped
           by [assign]. *)
        if not changed then bump t out_id;
        add t Row.events 1;
        enqueue_fanout t out_id
      end)

(* Next ready instance in level order: advance the cursor to the first
   non-empty bucket.  Fanout edges never reach below the current level
   (condensation levels are monotone along edges; equal only inside a
   component), so one sweep visits each acyclic instance at most once
   and re-visits exactly the members of still-relaxing feedback
   components. *)
let dequeue_level t =
  let n = Array.length t.buckets in
  let rec find l =
    if l >= n then None
    else
      match Queue.take_opt t.buckets.(l) with
      | Some id ->
        t.cur_level <- l;
        Some id
      | None -> find (l + 1)
  in
  find t.cur_level

let fixpoint t =
  t.converged <- true;
  t.diverged_slot <- -1;
  (* The bound is a per-run budget (counted from this run's start), not
     a lifetime one: every case gets the same headroom regardless of its
     position in the case list, so convergence of a case is independent
     of evaluation order. *)
  let bound = max 10_000 (Netlist.n_insts t.nl * 200) in
  let start = evaluations t in
  let s = t.sched in
  t.cur_level <- 0;
  Array.fill t.scc_evals 0 (Array.length t.scc_evals) 0;
  (* In level order every acyclic instance runs at most once per
     wavefront, so the global bound can only trip inside feedback — the
     per-component budget below catches it first and names the region;
     the global bound remains as a backstop. *)
  let rec loop () =
    if evaluations t - start > bound then t.converged <- false
    else
      match dequeue_level t with
      | None -> ()
      | Some id ->
        t.queue_len <- t.queue_len - 1;
        Bytes.unsafe_set t.in_queue id '\000';
        let slot = Sched.cyclic_slot s id in
        if slot < 0 then begin
          eval_inst t id;
          loop ()
        end
        else begin
          let c = t.scc_evals.(slot) + 1 in
          t.scc_evals.(slot) <- c;
          if c > max 10_000 (Sched.cyclic_size s slot * 200) then begin
            t.converged <- false;
            t.diverged_slot <- slot
          end
          else begin
            eval_inst t id;
            loop ()
          end
        end
  in
  loop ();
  (* On divergence the pending work is dropped *and* the in-queue flags
     cleared, so a later incremental case starts from a consistent work
     list instead of silently coalescing away its re-evaluations. *)
  if not t.converged then clear_work t

(* (Re-)source a net's lane values from the freshly assigned lane-0
   waveform: initial values are corner-independent (assertions and case
   mappings carry no delay), so every lane starts on the shared record. *)
let reset_lanes t id =
  let v = t.lanes.(0).l_value.(id) in
  for c = 1 to Array.length t.lanes - 1 do
    t.lanes.(c).l_value.(id) <- v
  done

(* A case list as (id, value) pairs in ascending id order, a repeated id
   keeping its last value. *)
let case_entries case =
  let rec last_of_each = function
    | (a, _) :: ((b, _) :: _ as rest) when a = b -> last_of_each rest
    | e :: rest -> e :: last_of_each rest
    | [] -> []
  in
  Array.of_list (last_of_each (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) case))

let run ?(case = []) t =
  let next = case_entries case in
  if not t.initialized then begin
    t.initialized <- true;
    Array.iter (fun (id, v) -> t.case.(id) <- Some v) next;
    Netlist.iter_nets t.nl (fun n ->
        assign t n.n_id (initial_value t n) [];
        reset_lanes t n.n_id);
    Netlist.iter_insts t.nl (fun i -> enqueue t i.i_id)
  end
  else begin
    (* Incremental case change: touch only the nets whose mapping
       changed (§2.7).  Only the ids the old or the new case maps can
       change, visited in ascending order. *)
    let old = t.case_ids in
    let i = ref 0 and j = ref 0 in
    while !i < Array.length old || !j < Array.length next do
      let a = if !i < Array.length old then old.(!i) else max_int in
      let b = if !j < Array.length next then fst next.(!j) else max_int in
      let id = Int.min a b in
      let w = if b = id then Some (snd next.(!j)) else None in
      if a = id then incr i;
      if b = id then incr j;
      if not (Option.equal Tvalue.equal w t.case.(id)) then begin
        t.case.(id) <- w;
        let n = Netlist.net t.nl id in
        (match n.n_driver with
        | None ->
          assign t id (initial_value t n) t.eval_str.(id);
          reset_lanes t id
        | Some d -> enqueue t d);
        enqueue_fanout t id
      end
    done
  end;
  t.case_ids <- Array.map fst next;
  fixpoint t

let value ?(lane = 0) t id = t.lanes.(lane).l_value.(id)

(* ---- incremental-service hooks (lib/incr, doc/SERVICE.md) ---------------- *)

(* External generation injection: a service that edits a net's
   parameters (wire delay, a consumer's connection directive) bumps the
   stamp so every generation-keyed consumer cache misses, then wakes the
   fanout.  The waveform itself is untouched — only its interpretation
   changed. *)
let touch_net t net_id =
  bump t net_id;
  enqueue_fanout t net_id

(* An assertion edit changes the net's source waveform: undriven nets
   are re-initialized in place (mirroring the §2.7 case-change path in
   [run]); driven nets re-evaluate their driver so the new assertion is
   checked against a fresh value.  Adding or removing the assertion may
   change whether the net reports at all. *)
let reassert_net t net_id =
  let n = Netlist.net t.nl net_id in
  (match n.n_driver with
  | None ->
    assign t net_id (initial_value t n) t.eval_str.(net_id);
    reset_lanes t net_id
  | Some d ->
    bump t net_id;
    enqueue t d);
  relive_net t net_id;
  enqueue_fanout t net_id

(* An instance-parameter edit (element delay, checker margins, a new
   primitive) moves no input stamp, so it logs the instance on every
   lane explicitly and re-evaluates it. *)
let touch_inst t inst_id =
  for l = 0 to Array.length t.lanes - 1 do
    log_add t.lanes.(l).l_dirty_insts inst_id own
  done;
  relive_inst t inst_id;
  enqueue t inst_id

(* ---- checking ------------------------------------------------------------ *)

let net_name t id = (Netlist.net t.nl id).n_name

(* The &A/&H checks of hazard input [i] onwards: each other input that
   is not a hazard input must be stable while input [i] is asserted. *)
let rec hazard_checks t lane (inst : Netlist.inst) i =
  let n = Array.length inst.i_inputs in
  if i = n then []
  else if not (hazard_letter t inst i) then hazard_checks t lane inst (i + 1)
  else
    let gate_wf = input_waveform t lane inst i in
    let rec others j =
      if j = n then hazard_checks t lane inst (i + 1)
      else if j = i || hazard_letter t inst j then others (j + 1)
      else
        let v =
          Check.check_stable_while ~inst:inst.i_name
            ~signal:(net_name t inst.i_inputs.(j).c_net)
            ~clock:(net_name t inst.i_inputs.(i).c_net)
            ~gate_wf (input_waveform t lane inst j)
        in
        v @ others (j + 1)
    in
    others 0

let check_inst_compute t lane (inst : Netlist.inst) =
  match inst.i_prim with
  | Primitive.Setup_hold_check { setup; hold } ->
    let data = input_waveform t lane inst 0 and ck = input_waveform t lane inst 1 in
    Check.check_setup_hold ~inst:inst.i_name
      ~signal:(net_name t inst.i_inputs.(0).c_net)
      ~clock:(net_name t inst.i_inputs.(1).c_net)
      ~setup ~hold ~data ~ck
  | Primitive.Setup_rise_hold_fall_check { setup; hold } ->
    let data = input_waveform t lane inst 0 and ck = input_waveform t lane inst 1 in
    Check.check_setup_rise_hold_fall ~inst:inst.i_name
      ~signal:(net_name t inst.i_inputs.(0).c_net)
      ~clock:(net_name t inst.i_inputs.(1).c_net)
      ~setup ~hold ~data ~ck
  | Primitive.Min_pulse_width { high; low } ->
    let wf = input_waveform t lane inst 0 in
    Check.check_min_pulse_width ~inst:inst.i_name
      ~signal:(net_name t inst.i_inputs.(0).c_net)
      ~high ~low wf
  | Primitive.Gate _ -> hazard_checks t lane inst 0
  | Primitive.Buf _ | Primitive.Mux2 _ | Primitive.Reg _ | Primitive.Latch _
  | Primitive.Const _ ->
    []

(* Move an id in or out of a lane's non-empty set when its verdicts
   change between empty and non-empty. *)
let refile set id was now =
  match was, now with
  | [], [] | _ :: _, _ :: _ -> set
  | [], _ :: _ -> Ids.add id set
  | _ :: _, [] -> Ids.remove id set

(* Re-derive one id's verdicts on a lane: computed when live, empty
   when it reports nothing.  Returns whether it was live, i.e. whether
   the pass paid for it. *)
let rederive_inst t lane id =
  let ln = t.lanes.(lane) in
  let live = Bytes.unsafe_get t.inst_live id <> '\000' in
  let r =
    if live then begin
      add t Row.cache_misses 1;
      check_inst_compute t lane (Netlist.inst t.nl id)
    end
    else []
  in
  ln.l_bad_insts <- refile ln.l_bad_insts id ln.l_chk.(id) r;
  ln.l_chk.(id) <- r;
  live

let rederive_net t lane id =
  let ln = t.lanes.(lane) in
  let live = Bytes.unsafe_get t.net_live id <> '\000' in
  let r =
    if live then begin
      add t Row.cache_misses 1;
      let n = Netlist.net t.nl id in
      match n.n_assertion with
      | Some a ->
        Check.check_stable_assertion ~signal:n.n_name ~tb:(Netlist.timebase t.nl) a
          ln.l_value.(id)
      | None -> []
    end
    else []
  in
  ln.l_bad_nets <- refile ln.l_bad_nets id ln.l_chk_net.(id) r;
  ln.l_chk_net.(id) <- r;
  live

let divergence t =
  if t.converged then []
  else
    let detail =
      if t.diverged_slot >= 0 then
        Printf.sprintf "evaluation budget exceeded in feedback region: %s"
          (Sched.cyclic_region t.sched t.diverged_slot t.nl)
      else "evaluation bound exceeded; the circuit may contain unbroken feedback"
    in
    [
      {
        Check.v_kind = Check.No_convergence;
        v_inst = "EVALUATOR";
        v_signal = "";
        v_clock = None;
        v_required = 0;
        v_actual = None;
        v_at = None;
        v_detail = detail;
      };
    ]

(* Closed, so passing it to [Netlist.fold_fanout] allocates nothing. *)
let log_fanout lg i =
  log_add lg i own;
  lg

(* One lane's check pass: drain the net log (each net's own verdict,
   and its fanout into the instance log when its stamp moved), then the
   instance log.  Every live id the pass did not re-derive kept its
   verdict: one hit each. *)
let check ?(lane = 0) t =
  let ln = t.lanes.(lane) in
  let paid = ref 0 in
  let nets = ln.l_dirty_nets and insts = ln.l_dirty_insts in
  for k = 0 to nets.n - 1 do
    let id = nets.ids.(k) in
    let m = Bytes.unsafe_get nets.mark id in
    Bytes.unsafe_set nets.mark id '\000';
    if rederive_net t lane id then incr paid;
    if m = stamp then ignore (Netlist.fold_fanout (Netlist.net t.nl id) insts log_fanout)
  done;
  nets.n <- 0;
  for k = 0 to insts.n - 1 do
    let id = insts.ids.(k) in
    Bytes.unsafe_set insts.mark id '\000';
    if rederive_inst t lane id then incr paid
  done;
  insts.n <- 0;
  let hits = t.n_live - !paid in
  add t Row.cache_hits hits;
  t.check_hits <- t.check_hits + hits;
  let rev = Ids.fold (fun id acc -> ln.l_chk.(id) :: acc) ln.l_bad_insts [] in
  let rev = Ids.fold (fun id acc -> ln.l_chk_net.(id) :: acc) ln.l_bad_nets rev in
  divergence t @ List.concat (List.rev rev)
