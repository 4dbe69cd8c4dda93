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
  mutable s_pending : Edit.t list;  (* reversed: newest first *)
  mutable s_report : Verifier.report;
  mutable s_cum : Eval.counters;
  mutable s_requests : int;
  mutable s_last : stats;
}

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
     the verdicts its edits moved. *)
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

let reverify ?(carry_counters = true) t =
  let nl = t.s_nl in
  let span name f =
    match t.s_probe with None -> f () | Some p -> p.Verifier.pr_span name f
  in
  t.s_requests <- t.s_requests + 1;
  let edits = List.rev t.s_pending in
  t.s_pending <- [];
  (* 1. apply the staged edits *)
  let touched_nets = ref [] and reinit_nets = ref [] and touched_insts = ref [] in
  span "apply" (fun () ->
      List.iter
        (fun e ->
          let a = Edit.apply nl e in
          touched_nets := a.Edit.a_touched_nets @ !touched_nets;
          reinit_nets := a.Edit.a_reinit_nets @ !reinit_nets;
          touched_insts := a.Edit.a_touched_insts @ !touched_insts;
          match a.Edit.a_cases with Some cs -> t.s_cases <- cs | None -> ())
        edits);
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
  (* 2. inject the edits into the evaluator: bump stamps, wake cones;
     an instance-parameter edit moves no stamp, so [touch_inst] logs
     the instance for the next check pass on every lane *)
  List.iter (Eval.touch_net ev) touched_nets;
  List.iter (Eval.reassert_net ev) reinit_nets;
  List.iter (Eval.touch_inst ev) touched_insts;
  (* 3. replay the case sweep; the check passes re-derive only the
     verdicts whose input stamps moved *)
  let case_list = match t.s_cases with [] -> [ [] ] | cs -> cs in
  let paired = List.mapi (Verifier.run_case ?probe:t.s_probe ev nl) case_list in
  (* 4. merge counters and build the report in Verifier.verify's shape *)
  let c = Eval.counters ev in
  t.s_cum <- Eval.merge_counters t.s_cum c;
  let report =
    Verifier.make_report ~jobs:1
      ~obs:(if carry_counters then t.s_cum else c)
      paired c ev
  in
  t.s_report <- report;
  (* 5. re-serialize the edited nets and instances alone — the case
     sweep moves waveforms, never parameters; the content digest itself
     is re-hashed on demand, off this path *)
  span "fingerprint" (fun () ->
      Fingerprint.refresh t.s_content nl ~nets:(touched_nets @ reinit_nets)
        ~insts:touched_insts);
  let dirtied = Eval.nets_moved ev in
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
