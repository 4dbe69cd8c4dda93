(** Top-level timing verification driver.

    Ties the evaluator, case analysis and checkers together: the first
    case is evaluated from scratch, then each further case re-evaluates
    only the affected part of the circuit; the violations of every case
    are collected (§2.7, §2.9).

    With [?jobs] above 1 the case list is sharded over OCaml 5 domains,
    each owning a private evaluator on the one netlist, which evaluation
    only reads; a shard first replays its predecessor case un-measured
    so every measured case starts from the state the sequential run
    would have given it.  The report is identical to [jobs:1] for any
    job count — violations and their order, per-case event counts,
    convergence flags, merged counters and the final waveforms (see
    [doc/PARALLEL.md]). *)

type case_result = {
  cr_case : Case_analysis.case;  (** empty for the base case *)
  cr_violations : Check.t list;
  cr_events : int;  (** events processed for this case *)
  cr_evaluations : int;
  cr_converged : bool;
      (** whether evaluation of {e this} case reached a fixpoint within
          the bound; sampled per case so a later converging case cannot
          mask an earlier divergence *)
}

type obs_summary = {
  os_requests : int;
      (** service-level requests ({!Eval.count_request}); [0] for
          one-shot runs *)
  os_queued : int;  (** work-list enqueue requests over all cases *)
  os_coalesced : int;
      (** enqueue requests absorbed because the target was already
          queued *)
  os_queue_hwm : int;  (** work-list high-water mark *)
  os_sched_levels : int;  (** topological levels of the evaluation schedule *)
  os_sccs : int;  (** strongly connected components in the schedule *)
  os_max_scc_size : int;  (** largest component; [1] when acyclic *)
  os_cache_hits : int;
      (** input-waveform and register-data memo hits, plus the verdicts
          each check pass kept (see {!Eval.check}) *)
  os_cache_misses : int;  (** memo fills, plus verdicts re-derived *)
  os_pruned_evals : int;
      (** always [0]: nothing prunes evaluations.  Kept, with
          [os_window_insts], [os_window_evals] and [os_window_checks],
          only because the benchmark's ledger ([ledger/main.ml]) still
          reads it *)
  os_corners : int;  (** corners evaluated per traversal ([1] single-corner) *)
  os_corner_lanes_shared : int;
      (** lane outputs stored as the shared reference record *)
  os_corner_evals_saved : int;  (** lane evaluations skipped outright *)
  os_window_insts : int;  (** always [0]; kept for the ledger *)
  os_window_evals : int;  (** always [0]; kept for the ledger *)
  os_window_checks : int;  (** always [0]; kept for the ledger *)
  os_evals_by_kind : (string * int) list;
      (** primitive evaluations per kind mnemonic, alphabetical *)
}
(** The benchmark's ledger's view of a report's counter snapshot
    ({!obs_of_counters} of [r_counters]).  Kept, field by field, only
    because the ledger ([ledger/main.ml]) reads it; everything else
    reads [r_counters] through {!Eval.counter}. *)

type corner_result = {
  co_corner : Corner.t;
  co_violations : Check.t list;
      (** deduplicated union over all cases, evaluated on this corner's
          lane; corner 0's list {e is} [r_violations] *)
}
(** Per-corner verdict of a multi-corner run (doc/CORNERS.md). *)

type probe = {
  pr_span : 'a. string -> (unit -> 'a) -> 'a;
      (** wraps each internal phase — ["evaluate:caseN"],
          ["check:caseN"] — so an external profiler can time them *)
  pr_event : (inst_id:int -> net_id:int -> unit) option;
      (** ignored; kept for the ledger *)
}
(** Instrumentation hook record.  It keeps the dependency direction
    clean: the observability library ([scald_obs]) depends on this one
    and passes a probe in — [Verifier.verify ~probe:(Scald_obs.Obs.probe o) nl]. *)

type report = {
  r_cases : case_result list;
  r_events : int;
      (** the snapshot's ["events"]: with [r_evaluations] and [r_obs], a
          view of [r_counters] kept only because the benchmark's ledger
          ([ledger/main.ml]) reads it *)
  r_evaluations : int;  (** the snapshot's ["evaluations"]; kept for the ledger *)
  r_violations : Check.t list;
      (** deduplicated union over all cases (the reference corner's) *)
  r_corners : corner_result list;
      (** one entry per corner, in table order; a single entry (sharing
          [r_violations]) on a single-corner run *)
  r_converged : bool;  (** conjunction of [cr_converged] over all cases *)
  r_unasserted : string list;
      (** cross-reference of undriven, unasserted signals *)
  r_counters : Eval.counters;
      (** the report's one counter snapshot: the sweep's for {!verify}
          (its shards merged), the session's for a re-verify
          ({!make_report}).  The metrics file prints it, so its laws
          hold in every file: ["events_queued"] = ["evaluations"] +
          ["events_coalesced"] when every case converged, and
          {!Eval.evals_by_kind} sums to ["evaluations"] *)
  r_obs : obs_summary;  (** {!obs_of_counters} [r_counters]; kept for the ledger *)
  r_eval : Eval.t;
      (** the evaluator that ran the last case: its waveforms, on every
          lane, are the ones the listings and VCD of this report read; a
          later {!verify} of the same netlist leaves them unchanged *)
  r_jobs : int;  (** effective parallelism the run actually used *)
}

val verify :
  ?probe:probe ->
  ?cases:Case_analysis.case list ->
  ?jobs:int ->
  ?analysis:Sched.t * Flow.t ->
  ?window:Window.t ->
  ?corners:Corner.table ->
  Netlist.t ->
  report
(** Verify all timing constraints.  With no [cases] (or an empty list) a
    single symbolic cycle is evaluated; otherwise one incremental cycle
    per case.  When [probe] is given its span hook brackets every
    internal phase.

    [jobs] (default 1) is the number of domains to shard the cases
    over; [0] means {!Par.available}.  It is clamped to the case count,
    so small runs never over-spawn.  [jobs:1] is exactly the historical
    sequential path.  With [jobs > 1] the evaluation schedule is
    computed once on the calling domain and shared read-only by every
    worker, and case resolution still runs on the calling domain;
    workers never call [pr_span] (the parallel section is bracketed by
    one ["evaluate:parallel(jN)"] span from the calling domain).

    [analysis] supplies a precomputed schedule (it must describe this
    netlist's structure); used by tests that evaluate under
    {!Sched.flat} (the FIFO reference discipline).  Only the schedule is
    read: the {!Flow.t} half is ignored, since verification runs no
    signal-class analysis.  Without [analysis] the schedule is computed
    here; every evaluation domain shares it.  [window] is ignored:
    verification runs no arrival-window analysis (doc/WINDOWS.md).  The
    [Flow.t] half and [window] stay only because the benchmark's ledger
    ([ledger/main.ml]) still passes them.

    [corners] installs a delay-corner table on the netlist
    ({!Netlist.set_corners}) before evaluation, overriding any SDL
    [CORNERS] directive; all k corners are then propagated in one
    traversal and the per-corner verdicts land in [r_corners]
    (doc/CORNERS.md).  Corner 0 is the reference: its violations, order
    and convergence flags are bit-identical to a plain single-corner run
    at any [jobs].  CLI: [--corners slow,typ,fast].
    @raise Invalid_argument when [jobs < 0]. *)

val run_case :
  ?probe:probe ->
  Eval.t ->
  Netlist.t ->
  int ->
  Case_analysis.case ->
  case_result * Check.t list list
(** [run_case ev nl i case] — one step of the case sweep: evaluate case
    number [i] (0-based) to a fixpoint, then check the reference corner
    and every extra corner lane, under the spans ["evaluate:caseN"],
    ["check:caseN"] and (multi-corner only) ["check:caseN:corners"].
    Returns the case result and the per-lane verdicts of corners
    1..k-1.  Exposed so the incremental service replays exactly the
    sweep {!verify} runs. *)

val make_report :
  jobs:int ->
  (case_result * Check.t list list) list ->
  Eval.counters ->
  Eval.t ->
  report
(** Assemble a report from the {!run_case} results of a sweep, the
    counter snapshot it reports and the final evaluator.  [r_counters]
    is that snapshot, and [r_events], [r_evaluations] and [r_obs] are
    read from it: {!verify} passes the sweep's, the incremental service
    its cumulative totals or this request's alone
    ({!Scald_incr.Session.reverify}'s [carry_counters]). *)

val clean : report -> bool
(** No violations in any case on any corner. *)

val worst_corner : report -> corner_result option
(** The corner with the most violations (earliest in table order on a
    tie); [None] only for a report with no corner entries. *)

val dedup_violations : Check.t list -> Check.t list
(** Remove exact duplicates (all fields equal), keeping first
    occurrences in order.  Violations that differ in any field — clock,
    measured margin, detail — are distinct findings and all survive. *)

val obs_of_counters : Eval.counters -> obs_summary
(** The ledger's view of a snapshot: [r_obs]. *)

val pp_corner_listing : Format.formatter -> report -> unit
(** The multi-corner tail of the error listing: the per-corner tally and
    the full listing of the worst corner when it is not the reference.
    Prints nothing for a single-corner report. *)

val violations_of_kind : Check.kind -> report -> Check.t list

val pp : Format.formatter -> report -> unit
(** Human-readable verification report: per-case violation counts, the
    evaluator counter lines (read from [r_counters]), the error listing,
    and the cross-reference. *)
