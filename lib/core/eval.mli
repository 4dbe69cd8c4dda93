(** Event-driven circuit evaluation (§2.9).

    The evaluator computes, for one case, the value of every signal over
    the clock period: signals with assertions are initialized from them,
    undriven unasserted signals are taken to be always stable, everything
    else starts [Unknown]; then all primitives are evaluated and any
    whose output changed put their fanout back on the work list, until a
    fixpoint is reached.  A checker has no output net and never enters
    the work list: {!check} derives its verdicts from the settled
    waveforms.

    Case analysis is incremental: changing the case re-initializes only
    the mapped signals and re-evaluates only the affected cone, so
    additional cases cost time proportional to the events they cause
    (§2.7, §3.3.2).

    The work list is ordered by a structural schedule ({!Sched}, see
    [doc/SCHEDULER.md]): ready instances are taken in topological-level
    order, so each acyclic instance is evaluated at most once per
    settled wavefront; instances inside feedback components relax in
    FIFO order under a per-component budget, and a [No_convergence]
    verdict names the cyclic region.  {!Sched.flat} — one level, one
    component — turns this into the plain FIFO relaxation, the
    reference discipline the tests compare against.

    Every delay corner is a {e lane} with the same storage, derivation
    and memo state (doc/CORNERS.md): each lane keeps its own per-net
    waveforms, input waveforms and register data are memoized per lane,
    keyed on per-net generation stamps, and every lane keeps its own
    checker verdicts, re-derived only where a stamp moved.  The stamps
    and the evaluation strings (§2.8) live in the evaluator too: an
    evaluator only reads its netlist, so several may evaluate one
    netlist at once, and every listing reads an evaluator's waveforms
    through {!value}. *)

type t

val create : ?sched:Sched.t -> Netlist.t -> t
(** A fresh evaluator: every net holds the one all-Unknown waveform on
    every lane until the first {!run}.  [sched] supplies a precomputed
    schedule (it must describe this netlist's structure; the shards of a
    parallel run share one); without it one is computed here. *)

val netlist : t -> Netlist.t

val sched : t -> Sched.t
(** The schedule the evaluator orders its work list by. *)

val corners : t -> Corner.table
(** The corner table captured from the netlist at {!create} time.
    Corner 0 is the reference: its waveforms and verdicts are those of a
    plain single-corner run (doc/CORNERS.md). *)

val n_corners : t -> int

val run : ?case:(int * Tvalue.t) list -> t -> unit
(** Evaluate to a fixpoint under the given case mapping (net id to the
    value substituted for [Stable]; an empty list clears the mapping).
    Successive calls are incremental. *)

val check : ?lane:int -> t -> Check.t list
(** Run all checker primitives, [&A]/[&H] hazard checks and
    stable-assertion checks against the current signal values of corner
    [lane] (default [0], the reference), plus a {!Check.No_convergence}
    report if the last {!run} hit the evaluation bound — shared by every
    lane, since convergence is a property of the whole packed run; it
    names the feedback region whose relaxation budget was exceeded.

    The list is per-instance verdicts in id order, then per-net
    assertion verdicts in id order, with the divergence report in
    front.  The pass is incremental (doc/SCHEDULER.md, "Checking what
    moved"): every generation-stamp move and every {!touch_inst} logs
    its id on every lane, and a lane's pass re-derives only the
    verdicts of its logged nets, of its logged instances and of the
    instances in those nets' fanout — a verdict is a pure function of
    those waveforms and parameters, so the list is what a walk over
    every id would give.  It is built from the lane's ids with
    non-empty verdicts.  An evaluator's first pass on each lane has
    every id logged.

    Counters, per pass: every checker, gate or driven asserted net is
    one [c_cache_misses] when re-derived and one verdict hit
    ({!check_hits}, [c_cache_hits]) when kept. *)

val check_hits : t -> int
(** Verdicts the check passes kept since creation (or the last
    {!reset_counters}): per pass, the live checkers, gates and driven
    asserted nets it did not re-derive.  They are also counted in
    [c_cache_hits]. *)

val value : ?lane:int -> t -> int -> Waveform.t
(** Current waveform of a net on corner [lane] (default [0], the
    reference).  Lanes whose waveform equals the reference return the
    very same record (see [c_corner_lanes_shared]). *)

(** {2 Incremental-service hooks}

    Used by [lib/incr] (doc/SERVICE.md) to replay a netlist edit on a
    persistent evaluator.  They all leave waveforms outside the touched
    cone untouched, so generation-keyed caches keep their value, and
    each logs what it touched for the next {!check}. *)

val touch_net : t -> int -> unit
(** Bump the net's generation stamp and wake its fanout.  Called after
    an edit that changes how the (unchanged) waveform is interpreted —
    a wire-delay or input-directive change — so every consumer's
    memoized input waveform misses and is rebuilt. *)

val reassert_net : t -> int -> unit
(** Recompute a net after its assertion changed: an undriven net is
    re-initialized from the new assertion in place (the §2.7 case-change
    path), a driven net has its driver re-enqueued; either way the
    fanout is woken.  A driven net that gained or lost its assertion
    starts or stops reporting in the next {!check}. *)

val touch_inst : t -> int -> unit
(** Put one instance on the work list for the next {!run} (a no-op for
    a checker, or if already queued) and log it on every lane, so the
    next {!check} re-derives its verdicts.  Used after an edit of the
    instance's own parameters — element delay, checker margins, a
    replaced primitive — which changes its output or verdict without
    any input net changing. *)

val input_waveform : t -> int -> Netlist.inst -> int -> Waveform.t
(** [input_waveform t lane inst i] — the waveform the instance sees on
    input [i] at corner [lane]: the net value after complementation and
    the lane's scaled interconnection delay, with evaluation directives
    applied.  Exposed for reporting (the Figure 3-11 listing prints the
    values seen by the checker).  Memoized per connection on the driving
    net's generation stamp. *)

val events : t -> int
(** Number of events processed so far: an event is an output being given
    a new value, causing its consumers to be re-evaluated (§3.3.2). *)

val evaluations : t -> int
(** Number of primitive evaluations performed so far. *)

val converged : t -> bool
(** Whether the {e most recent} {!run} reached a fixpoint within the
    evaluation bound.  Reset at the start of every run — callers
    tracking convergence across a case list must sample it after each
    case (see {!Verifier.case_result.cr_converged}). *)

val nets_moved : t -> int
(** Distinct nets whose generation stamp moved since creation (or the
    last {!reset_counters}): every net an evaluation, an initialization,
    a case re-initialization or a {!touch_net}/{!reassert_net} gave a
    new value, evaluation string or stamp, on any lane.  A session
    reports it as [st_dirtied_nets] (doc/SERVICE.md). *)

val reset_counters : t -> unit

val count_request : t -> unit
(** Bump the request counter: one service-level request (a cold load or
    an incremental re-verify) is about to run on this evaluator.  The
    counter travels through {!counters} like every accumulator —
    cleared by {!reset_counters}, summed by {!merge_counters} — so a
    session's cumulative snapshot reports how many requests it has
    served.  One-shot CLI runs never call it and report [0]. *)

(** {2 Instrumentation}

    The evaluator keeps a handful of always-on integer counters (the
    thesis reports its runtime shape in exactly these terms, §3.3.2) and
    offers one optional per-event hook.  With the hook unset the hot
    event path pays only plain integer increments — no allocation, no
    indirect call. *)

type counters = {
  c_requests : int;
      (** service-level requests served ({!count_request}); [0] for
          one-shot runs *)
  c_events : int;  (** output-change events processed *)
  c_evaluations : int;  (** primitive evaluations performed *)
  c_queued : int;
      (** enqueue requests (fanout activations) of instances with an
          output net; a checker is never enqueued *)
  c_coalesced : int;
      (** enqueue requests absorbed because the instance was already on
          the work list — the saving of the call-list discipline *)
  c_queue_hwm : int;  (** work-list high-water mark *)
  c_sched_levels : int;
      (** topological levels in the schedule *)
  c_sccs : int;  (** strongly connected components in the schedule *)
  c_max_scc_size : int;  (** largest component ([1] when acyclic) *)
  c_cache_hits : int;
      (** input-waveform / register-data memo hits (generation match),
          plus the verdicts each check pass kept *)
  c_cache_misses : int;  (** memo fills, plus verdicts re-derived *)
  c_corners : int;  (** corners evaluated per traversal ([1] single-corner) *)
  c_corner_lanes_shared : int;
      (** lane outputs that converged to the reference waveform and were
          stored as the shared record instead of their own *)
  c_corner_evals_saved : int;
      (** lane evaluations skipped outright because every input was
          constant and pointer-shared with the reference lane *)
  c_evals_by_kind : (string * int) list;
      (** evaluations per primitive mnemonic, e.g. [("REG", 42)];
          alphabetical, zero-count kinds omitted *)
}

val counters : t -> counters
(** Snapshot of the counters accumulated since creation (or the last
    {!reset_counters}).  The schedule-shape fields ([c_sched_levels],
    [c_sccs], [c_max_scc_size]) are properties of the netlist, not
    accumulators — {!reset_counters} leaves them readable. *)

val zero_counters : counters
(** All-zero counters: the identity of {!merge_counters}. *)

val merge_counters : counters -> counters -> counters
(** Combine two snapshots: accumulators sum; the queue high-water mark
    and the schedule-shape fields take the max (they are identical
    across runs of one structure).  Used both to merge
    parallel shards ({!Verifier.verify} with [~jobs]) and to carry
    cumulative totals across the requests of an incremental session. *)

val set_event_hook : t -> (inst_id:int -> net_id:int -> unit) option -> unit
(** Install (or clear) a hook called once per event, {e after} the
    output net [net_id] of instance [inst_id] has been given its new
    value.  Used by the observability layer to feed its causal ring
    buffer; [None] (the default) restores the zero-cost path. *)

val event_hook : t -> (inst_id:int -> net_id:int -> unit) option
