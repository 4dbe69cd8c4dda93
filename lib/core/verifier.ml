type case_result = {
  cr_case : Case_analysis.case;
  cr_violations : Check.t list;
  cr_events : int;
  cr_evaluations : int;
  cr_converged : bool;
}

type lint_summary = {
  ls_errors : int;
  ls_warnings : int;
  ls_infos : int;
  ls_listing : string;
}

type obs_summary = {
  os_requests : int;
  os_queued : int;
  os_coalesced : int;
  os_queue_hwm : int;
  os_sched_levels : int;
  os_sccs : int;
  os_max_scc_size : int;
  os_cache_hits : int;
  os_cache_misses : int;
  os_pruned_evals : int;
  os_corners : int;
  os_corner_lanes_shared : int;
  os_corner_evals_saved : int;
  os_window_insts : int;
  os_window_evals : int;
  os_window_checks : int;
  os_evals_by_kind : (string * int) list;
}

type corner_result = {
  co_corner : Corner.t;
  co_violations : Check.t list;
}

type probe = {
  pr_span : 'a. string -> (unit -> 'a) -> 'a;
  pr_event : (inst_id:int -> net_id:int -> unit) option;
}

type report = {
  r_cases : case_result list;
  r_events : int;
  r_evaluations : int;
  r_violations : Check.t list;
  r_corners : corner_result list;
  r_converged : bool;
  r_unasserted : string list;
  r_lint : lint_summary option;
  r_obs : obs_summary;
  r_eval : Eval.t;
  r_jobs : int;
}

(* Deduplicate on the full violation record: two reports of the same
   kind/inst/signal that differ in clock, measured margin or detail are
   distinct findings and must all survive. *)
let dedup_violations vs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (v : Check.t) ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vs

let obs_of_counters (c : Eval.counters) =
  {
    os_requests = c.Eval.c_requests;
    os_queued = c.Eval.c_queued;
    os_coalesced = c.Eval.c_coalesced;
    os_queue_hwm = c.Eval.c_queue_hwm;
    os_sched_levels = c.Eval.c_sched_levels;
    os_sccs = c.Eval.c_sccs;
    os_max_scc_size = c.Eval.c_max_scc_size;
    os_cache_hits = c.Eval.c_cache_hits;
    os_cache_misses = c.Eval.c_cache_misses;
    os_pruned_evals = 0;
    os_corners = c.Eval.c_corners;
    os_corner_lanes_shared = c.Eval.c_corner_lanes_shared;
    os_corner_evals_saved = c.Eval.c_corner_evals_saved;
    os_window_insts = 0;
    os_window_evals = 0;
    os_window_checks = 0;
    os_evals_by_kind = c.Eval.c_evals_by_kind;
  }

(* Per-lane checker verdicts for corners 1..k-1 of the current fixpoint;
   empty for a single-corner evaluator, so the historical path never
   runs an extra check pass. *)
let lane_checks ev =
  List.init (Eval.n_corners ev - 1) (fun l -> Eval.check ~lane:(l + 1) ev)

(* ---- one case of the sweep --------------------------------------------- *)

let run_case ?probe ev nl i case =
  (* [span] must stay let-bound polymorphic: it wraps both unit and
     list-returning phases. *)
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f -> match probe with None -> f () | Some p -> p.pr_span name f
  in
  let before_events = Eval.events ev and before_evals = Eval.evaluations ev in
  span
    (Printf.sprintf "evaluate:case%d" (i + 1))
    (fun () -> Eval.run ~case:(Case_analysis.resolve nl case) ev);
  let violations =
    span (Printf.sprintf "check:case%d" (i + 1)) (fun () -> Eval.check ev)
  in
  let corner_violations =
    (* no extra span (or work) on the single-corner path: traces must
       stay identical to the historical ones *)
    if Eval.n_corners ev = 1 then []
    else
      span (Printf.sprintf "check:case%d:corners" (i + 1)) (fun () -> lane_checks ev)
  in
  ( {
      cr_case = case;
      cr_violations = violations;
      cr_events = Eval.events ev - before_events;
      cr_evaluations = Eval.evaluations ev - before_evals;
      (* sampled per case: a later converging case must not mask an
         earlier one that hit the evaluation bound *)
      cr_converged = Eval.converged ev;
    },
    corner_violations )

(* ---- the sequential engine (jobs = 1, the §2.7 baseline) ----------------- *)

let verify_sequential ~probe ~sched ~case_list nl =
  let ev = Eval.create ~sched nl in
  (match probe with
  | Some { pr_event = Some _ as h; _ } -> Eval.set_event_hook ev h
  | Some { pr_event = None; _ } | None -> ());
  let results = List.mapi (run_case ?probe ev nl) case_list in
  (results, Eval.counters ev, ev)

(* ---- the domain-parallel engine (jobs > 1) -------------------------------- *)

(* Cases are sharded into contiguous blocks, one private evaluator per
   domain, all on the one netlist: evaluation only reads it, and each
   evaluator keeps its own waveforms.  A shard that does not start at
   case 1 first evaluates its predecessor case un-measured, so every
   measured case starts from exactly the state the sequential run would
   have given it — per-case event counts, violations and the merged
   counters are then identical to [jobs:1] (doc/PARALLEL.md). *)
let verify_parallel ~probe ~sched ~case_list ~jobs nl =
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f -> match probe with None -> f () | Some p -> p.pr_span name f
  in
  let case_arr = Array.of_list case_list in
  let n = Array.length case_arr in
  (* Resolve in the parent: name errors surface before any domain is
     spawned. *)
  let resolved = Array.map (Case_analysis.resolve nl) case_arr in
  let shards = Par.shards ~jobs n in
  let jobs = Array.length shards in
  let record_events =
    match probe with Some { pr_event = Some _; _ } -> true | _ -> false
  in
  let run_shard k =
    let lo, hi = shards.(k) in
    (* the schedule is structural and read-only: every domain shares
       it *)
    let ev = Eval.create ~sched nl in
    if lo > 0 then begin
      (* Warm-start priming: un-measured, un-hooked, un-counted.  The
         check passes are replayed too: they fill the input-waveform
         caches and drain the dirty logs of every lane exactly as the
         sequential run's preceding case did, so the cache hit/miss
         counters of every measured case stay identical to jobs:1. *)
      Eval.run ~case:resolved.(lo - 1) ev;
      ignore (Eval.check ev);
      ignore (lane_checks ev);
      Eval.reset_counters ev
    end;
    let buf = ref [] in
    if record_events then
      Eval.set_event_hook ev
        (Some (fun ~inst_id ~net_id -> buf := (inst_id, net_id) :: !buf));
    let results =
      List.init (hi - lo) (fun j ->
          let i = lo + j in
          buf := [];
          let r = run_case ev nl i case_arr.(i) in
          (r, List.rev !buf))
    in
    (results, Eval.counters ev, ev)
  in
  let shard_results =
    span
      (Printf.sprintf "evaluate:parallel(j%d)" jobs)
      (fun () -> Par.run ~jobs run_shard)
  in
  (* Replay the per-domain event logs into the caller's hook from this
     single domain, in case order — the stream an external consumer
     (e.g. the causal ring) sees is the sequential one. *)
  (match probe with
  | Some { pr_event = Some h; _ } ->
    span "merge:events" (fun () ->
        Array.iter
          (fun (results, _, _) ->
            List.iter
              (fun (_, events) ->
                List.iter (fun (inst_id, net_id) -> h ~inst_id ~net_id) events)
              results)
          shard_results)
  | Some { pr_event = None; _ } | None -> ());
  let results =
    List.concat_map (fun (rs, _, _) -> List.map fst rs) (Array.to_list shard_results)
  in
  let counters =
    (* per-domain counter structs merged at join; no shared hot-path
       state (merge semantics in Eval.merge_counters). *)
    Array.fold_left
      (fun acc (_, c, _) -> Eval.merge_counters acc c)
      Eval.zero_counters shard_results
  in
  (* The last shard ends having evaluated the final case, so its
     evaluator holds the same fixpoint state as the sequential run's. *)
  let _, _, last_ev = shard_results.(jobs - 1) in
  (results, counters, last_ev)

let make_report ?lint ?obs ~jobs paired counters ev =
  let results = List.map fst paired in
  let r_violations =
    dedup_violations (List.concat_map (fun r -> r.cr_violations) results)
  in
  let corner_tbl = Eval.corners ev in
  (* Corner 0 shares the headline violation list; the extra corners
     aggregate their per-case lane verdicts the same way (concatenate in
     case order, dedup). *)
  let r_corners =
    List.init (Array.length corner_tbl) (fun c ->
        let viols =
          if c = 0 then r_violations
          else
            dedup_violations
              (List.concat_map (fun (_, lanes) -> List.nth lanes (c - 1)) paired)
        in
        { co_corner = corner_tbl.(c); co_violations = viols })
  in
  let obs = Option.value obs ~default:counters in
  {
    r_cases = results;
    r_events = counters.Eval.c_events;
    r_evaluations = counters.Eval.c_evaluations;
    r_violations;
    r_corners;
    r_converged = List.for_all (fun r -> r.cr_converged) results;
    r_unasserted =
      List.map
        (fun (n : Netlist.net) -> n.n_name)
        (Netlist.undriven_unasserted (Eval.netlist ev));
    r_lint = lint;
    r_obs = obs_of_counters obs;
    r_eval = ev;
    r_jobs = jobs;
  }

let verify ?lint ?probe ?(cases = []) ?(jobs = 1) ?analysis ?window:_ ?corners nl =
  if jobs < 0 then invalid_arg "Verifier.verify: jobs must be >= 0";
  (* Install the corner table before any evaluator is created; every
     domain's evaluator then packs the same lanes. *)
  (match corners with None -> () | Some tbl -> Netlist.set_corners nl tbl);
  let span : 'a. string -> (unit -> 'a) -> 'a =
   fun name f -> match probe with None -> f () | Some p -> p.pr_span name f
  in
  let lint_summary =
    match lint with
    | None -> None
    | Some f -> Some (span "lint" (fun () -> f nl))
  in
  let case_list = match cases with [] -> [ [] ] | cs -> cs in
  (* One schedule per netlist, shared read-only by every evaluation
     domain. *)
  let sched = match analysis with Some (s, _) -> s | None -> Sched.compute nl in
  let jobs = if jobs = 0 then Par.available () else jobs in
  let jobs = max 1 (min jobs (List.length case_list)) in
  let paired, counters, ev =
    if jobs = 1 then verify_sequential ~probe ~sched ~case_list nl
    else verify_parallel ~probe ~sched ~case_list ~jobs nl
  in
  make_report ?lint:lint_summary ~jobs paired counters ev

let clean r =
  List.for_all (fun c -> c.co_violations = []) r.r_corners

let worst_corner r =
  match r.r_corners with
  | [] -> None
  | first :: _ ->
    (* ties go to the earliest corner in table order *)
    Some
      (List.fold_left
         (fun acc c ->
           if List.length c.co_violations > List.length acc.co_violations then c
           else acc)
         first r.r_corners)

let pp_corner_listing ppf r =
  match r.r_corners with
  | [] | [ _ ] -> ()
  | cs ->
    Format.fprintf ppf "@.MULTI-CORNER SUMMARY@.";
    List.iter
      (fun c ->
        let n = List.length c.co_violations in
        Format.fprintf ppf "  %-24s %d error%s@."
          (Format.asprintf "%a" Corner.pp c.co_corner)
          n (if n = 1 then "" else "s"))
      cs;
    (match worst_corner r with
    | Some c when c != List.hd cs && c.co_violations <> [] ->
      Format.fprintf ppf "@.WORST CORNER %a@." Corner.pp c.co_corner;
      List.iter (fun v -> Format.fprintf ppf "%a@." Check.pp v) c.co_violations
    | _ -> ())

let violations_of_kind kind r =
  List.filter (fun (v : Check.t) -> v.v_kind = kind) r.r_violations

let pp ppf r =
  Format.fprintf ppf "@[<v>TIMING VERIFICATION REPORT@,";
  Format.fprintf ppf "cases evaluated: %d   events: %d   evaluations: %d%s@,"
    (List.length r.r_cases) r.r_events r.r_evaluations
    (if r.r_converged then "" else "   (DID NOT CONVERGE)");
  List.iteri
    (fun i c ->
      Format.fprintf ppf "case %d [%a]: %d events, %d violations%s@," (i + 1)
        Case_analysis.pp c.cr_case c.cr_events
        (List.length c.cr_violations)
        (if c.cr_converged then "" else "   (DID NOT CONVERGE)"))
    r.r_cases;
  Format.fprintf ppf "queued: %d   coalesced: %d   queue high-water mark: %d@,"
    r.r_obs.os_queued r.r_obs.os_coalesced r.r_obs.os_queue_hwm;
  if r.r_obs.os_sched_levels > 0 then
    Format.fprintf ppf
      "sched levels: %d   sccs: %d   largest scc: %d   cache hits: %d   misses: %d@,"
      r.r_obs.os_sched_levels r.r_obs.os_sccs r.r_obs.os_max_scc_size
      r.r_obs.os_cache_hits r.r_obs.os_cache_misses;
  (* The corner section appears only on a multi-corner run, so a
     single-corner report stays byte-identical to the historical one. *)
  (match r.r_corners with
  | [] | [ _ ] -> ()
  | cs ->
    Format.fprintf ppf "corners: %d   lane outputs shared: %d   lane evals saved: %d@,"
      r.r_obs.os_corners r.r_obs.os_corner_lanes_shared r.r_obs.os_corner_evals_saved;
    List.iter
      (fun c ->
        Format.fprintf ppf "corner %a: %d violations@," Corner.pp c.co_corner
          (List.length c.co_violations))
      cs;
    (match worst_corner r with
    | Some w ->
      Format.fprintf ppf "worst corner: %s (%d violations)@," w.co_corner.Corner.name
        (List.length w.co_violations)
    | None -> ()));
  (match r.r_lint with
  | None -> ()
  | Some l ->
    Format.fprintf ppf "lint: %d errors, %d warnings, %d infos@," l.ls_errors
      l.ls_warnings l.ls_infos;
    Format.fprintf ppf "%s@," l.ls_listing);
  Format.fprintf ppf "%a@," Report.pp_violations r.r_violations;
  Report.pp_cross_reference ppf (Eval.netlist r.r_eval);
  Format.fprintf ppf "@]"
