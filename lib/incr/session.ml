open Scald_core

type stats = {
  st_requests : int;
  st_reused_nets : int;
  st_dirtied_nets : int;
  st_warm_hits : int;
  st_fp_changed : int;
  st_events : int;
  st_evaluations : int;
}

type t = {
  s_nl : Netlist.t;
  s_id : string;
  (* the canonical dump of the netlist as currently edited, behind its
     content digest and skeleton; refreshed by [reverify] for what it
     touched *)
  s_content : Fingerprint.content;
  (* mutable: a [Corners] edit changes the lane count, which is fixed at
     [Eval.create] time, so [reverify] swaps in a fresh evaluator *)
  mutable s_ev : Eval.t;
  (* observation hook shared by every request of the session: spans
     emitted here inherit whatever lane the serve loop set, so traces
     attribute each phase to its request *)
  s_probe : Verifier.probe option;
  mutable s_cases : Case_analysis.case list;
  mutable s_case_nets : int list;
  mutable s_pending : Edit.t list;  (* reversed: newest first *)
  mutable s_report : Verifier.report;
  mutable s_cum : Eval.counters;
  mutable s_requests : int;
  mutable s_last : stats;
}

let resolved_case_nets nl cases =
  List.sort_uniq compare
    (List.concat_map (fun c -> List.map fst (Case_analysis.resolve nl c)) cases)

let load ?(cases = []) ?probe ?content nl =
  let report = Verifier.verify ~cases ~jobs:1 ?probe nl in
  let ev = report.Verifier.r_eval in
  let content = match content with Some c -> c | None -> Fingerprint.content nl in
  let t =
    {
      s_nl = nl;
      s_id = Fingerprint.content_digest content;
      s_content = content;
      s_ev = ev;
      s_probe = probe;
      s_cases = cases;
      s_case_nets = resolved_case_nets nl cases;
      s_pending = [];
      s_report = report;
      s_cum = Eval.zero_counters;
      s_requests = 1;
      s_last =
        {
          st_requests = 1;
          st_reused_nets = 0;
          st_dirtied_nets = Netlist.n_nets nl;
          st_warm_hits = 0;
          st_fp_changed = 0;
          st_events = report.Verifier.r_events;
          st_evaluations = report.Verifier.r_evaluations;
        };
    }
  in
  (* The cold run's last check pass left every lane's verdicts current
     and its dirty logs empty, so the first re-verify re-derives only
     the verdicts of its dirty cone. *)
  Eval.count_request ev;
  t.s_cum <- Eval.counters ev;
  t

let id t = t.s_id

let digest t = Fingerprint.content_digest t.s_content
let skeleton t = Fingerprint.content_skeleton t.s_content
let netlist t = t.s_nl
let report t = t.s_report
let cases t = t.s_cases
let stats t = t.s_last
let cumulative t = t.s_cum
let stage t e = t.s_pending <- e :: t.s_pending
let pending t = List.length t.s_pending

let listing_string (r : Verifier.report) =
  Format.asprintf "@.%a@.%a" Report.pp_violations r.Verifier.r_violations
    Verifier.pp_corner_listing r

let listing t = listing_string t.s_report

(* Forward closure over the instance graph: an instance is dirty when a
   seed net reaches one of its inputs (transitively).  This is the
   output cone of the edit over the same structure [Sched] condensed —
   feedback components are handled naturally, since their members reach
   each other through their output nets.  Its nets are what
   [st_dirtied_nets] counts; the evaluator's own work list and dirty
   logs decide what is re-evaluated and re-checked. *)
let dirty_cone nl ~seed_nets ~seed_insts =
  let n_insts = Netlist.n_insts nl and n_nets = Netlist.n_nets nl in
  let inst_dirty = Array.make (max 1 n_insts) false in
  let net_dirty = Array.make (max 1 n_nets) false in
  let q = Queue.create () in
  let add id =
    if not inst_dirty.(id) then begin
      inst_dirty.(id) <- true;
      Queue.add id q
    end
  in
  List.iter
    (fun nid ->
      net_dirty.(nid) <- true;
      Netlist.iter_fanout (Netlist.net nl nid) add)
    seed_nets;
  List.iter add seed_insts;
  while not (Queue.is_empty q) do
    let id = Queue.take q in
    match (Netlist.inst nl id).i_output with
    | None -> ()
    | Some o ->
      if not net_dirty.(o) then begin
        net_dirty.(o) <- true;
        Netlist.iter_fanout (Netlist.net nl o) add
      end
  done;
  net_dirty

let reverify ?(carry_counters = true) t =
  let nl = t.s_nl in
  (* [span] stays let-bound polymorphic, like the wrapper in
     [Verifier.verify]: it wraps unit-, pair- and list-returning
     phases below. *)
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    match t.s_probe with None -> f () | Some p -> p.Verifier.pr_span name f
  in
  t.s_requests <- t.s_requests + 1;
  let edits = List.rev t.s_pending in
  t.s_pending <- [];
  (* 1. apply the staged edits, collecting cone seeds *)
  let touched_nets = ref [] and reinit_nets = ref [] and touched_insts = ref [] in
  let new_cases = ref None in
  span "apply" (fun () ->
      List.iter
        (fun e ->
          let a = Edit.apply nl e in
          touched_nets := a.Edit.a_touched_nets @ !touched_nets;
          reinit_nets := a.Edit.a_reinit_nets @ !reinit_nets;
          touched_insts := a.Edit.a_touched_insts @ !touched_insts;
          match a.Edit.a_cases with Some cs -> new_cases := Some cs | None -> ())
        edits);
  let old_case_nets = t.s_case_nets in
  (match !new_cases with
  | Some cs ->
    t.s_cases <- cs;
    t.s_case_nets <- resolved_case_nets nl cs
  | None -> ());
  (* A corners edit changed the lane count, which is fixed at
     [Eval.create] time: swap in a fresh evaluator (cold — its first run
     below re-initializes every net, and its memos start empty).  The
     cumulative counters keep accumulating across the swap. *)
  if not (Corner.table_equal (Eval.corners t.s_ev) (Netlist.corners nl)) then begin
    let ev = Eval.create ~sched:(Eval.sched t.s_ev) nl in
    Eval.set_event_hook ev (Eval.event_hook t.s_ev);
    t.s_ev <- ev
  end;
  let ev = t.s_ev in
  Eval.reset_counters ev;
  Eval.count_request ev;
  let touched_nets = List.sort_uniq compare !touched_nets in
  let reinit_nets = List.sort_uniq compare !reinit_nets in
  let touched_insts = List.sort_uniq compare !touched_insts in
  (* The case sweep below replays every case group, so the cones of all
     case-mapped nets — old and new — are dirty alongside the cones of
     the edits. *)
  let seed_nets =
    List.sort_uniq compare
      (touched_nets @ reinit_nets @ old_case_nets @ t.s_case_nets)
  in
  (* A re-asserted or case-mapped net that is driven is recomputed by
     re-running its driver ([Eval.reassert_net], the §2.7 path in
     [Eval.run]) — the driver is therefore in the cone even though it
     sits upstream of the seed, not in its fanout. *)
  let seed_insts =
    List.sort_uniq compare
      (touched_insts
      @ List.filter_map
          (fun nid -> (Netlist.net nl nid).n_driver)
          (reinit_nets @ old_case_nets @ t.s_case_nets))
  in
  (* 2. count the nets the request may move *)
  let net_dirty = span "cone" (fun () -> dirty_cone nl ~seed_nets ~seed_insts) in
  (* 3. inject the edits into the evaluator: bump stamps, wake cones;
     an instance-parameter edit moves no stamp, so [touch_inst] logs
     the instance for the next check pass on every lane *)
  List.iter (Eval.touch_net ev) touched_nets;
  List.iter (Eval.reassert_net ev) reinit_nets;
  List.iter (Eval.touch_inst ev) touched_insts;
  (* 4. replay the case sweep; the check passes re-derive only the
     verdicts whose input stamps moved *)
  let case_list = match t.s_cases with [] -> [ [] ] | cs -> cs in
  let paired = List.mapi (Verifier.run_case ?probe:t.s_probe ev nl) case_list in
  (* 5. merge counters and build the report in Verifier.verify's shape *)
  let c = Eval.counters ev in
  t.s_cum <- Eval.merge_counters t.s_cum c;
  let report =
    Verifier.make_report ~jobs:1
      ~obs:(if carry_counters then t.s_cum else c)
      paired c ev
  in
  t.s_report <- report;
  (* 6. re-serialize the edited nets and instances alone — the case
     cones in [net_dirty] move waveforms, never parameters; the content
     digest itself is re-hashed on demand, off this path *)
  span "fingerprint" (fun () ->
      Fingerprint.refresh t.s_content nl ~nets:(touched_nets @ reinit_nets)
        ~insts:touched_insts);
  let dirtied = Array.fold_left (fun a d -> if d then a + 1 else a) 0 net_dirty in
  let st =
    {
      st_requests = t.s_requests;
      st_reused_nets = Netlist.n_nets nl - dirtied;
      st_dirtied_nets = dirtied;
      st_warm_hits = Eval.check_hits ev;
      st_fp_changed = 0;
      st_events = c.Eval.c_events;
      st_evaluations = c.Eval.c_evaluations;
    }
  in
  t.s_last <- st;
  (report, st)
