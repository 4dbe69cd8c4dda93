(** A persistent verification session: the delta engine of the
    incremental service (doc/SERVICE.md).

    A session owns a netlist and the evaluator that verified it, and
    keeps both alive between requests.  Edits ({!Edit.t}) are staged
    with {!stage} and replayed by {!reverify}, which:

    + applies the staged edits to the netlist;
    + bumps the generation stamps of the edited nets and wakes their
      fanout, so every generation-keyed cache outside the edit's cone
      keeps its value (a corners edit swaps in a fresh evaluator
      instead, which evaluates every instance);
    + replays the case sweep, whose check passes re-derive only the
      verdicts whose input stamps moved (the evaluator's per-lane dirty
      logs, {!Scald_core.Eval.check});
    + merges cached and fresh violations into a report with the exact
      shape, content and order of a cold {!Scald_core.Verifier.verify}
      of the edited design;
    + reports, in {!stats}, how many nets the request moved: the
      evaluator counts them as it works ({!Scald_core.Eval.nets_moved}),
      so no second walk of the design is made.

    The bit-identity guarantee covers verdicts — the violation list and
    its order, per-case convergence, the unasserted cross-reference, the
    rendered listing — not the work counters ([r_counters] and its
    views), whose whole point is to be smaller.  It
    assumes convergent evaluation: a design that hits the evaluation
    bound has order-dependent waveforms by nature, and the
    [No_convergence] verdict is reproduced but the accompanying
    waveforms may differ. *)

open Scald_core

type t

type stats = {
  st_requests : int;  (** verify requests served so far, this one included *)
  st_reused_nets : int;
      (** nets the request left alone: [n_nets - st_dirtied_nets] *)
  st_dirtied_nets : int;
      (** distinct nets whose generation stamp the request moved
          ({!Scald_core.Eval.nets_moved}): edited and re-asserted nets,
          case re-initializations and every net an evaluation changed,
          on any corner.  All of them on a cold load or a corners
          edit *)
  st_warm_hits : int;
      (** verdicts the check passes served from the evaluator's memo
          ({!Scald_core.Eval.check_hits}), over every case and corner *)
  st_fp_changed : int;
      (** always [0]: the session keeps no per-net fingerprints.  Kept
          only because the benchmark's ledger ([ledger/main.ml]) still
          reads it *)
  st_events : int;  (** events processed by this request *)
  st_evaluations : int;  (** evaluations performed by this request *)
}

val load :
  ?cases:Case_analysis.case list ->
  ?probe:Verifier.probe ->
  ?content:Fingerprint.content ->
  Netlist.t ->
  t
(** Cold-start a session: verify the netlist sequentially, computing the
    schedule once, to be shared by every later request.

    [content], when given, is the netlist's {!Fingerprint.content},
    already built by the caller (the {!Store} builds it for its
    lookups); the session takes it over and keeps it current, so the
    design is serialized once.

    [probe] is kept for the session's lifetime: the cold verify runs
    under it, and every later {!reverify} wraps its phases ([apply],
    [evaluate:caseN], [check:caseN], [fingerprint]) in
    [pr_span] (plus [check:caseN:corners] on a multi-corner design)
    — so a serve daemon that sets a trace lane per request
    (see {!Scald_obs.Span.set_lane}) gets correctly attributed
    per-request spans instead of one interleaved stream. *)

val reverify : ?carry_counters:bool -> t -> Verifier.report * stats
(** Apply the staged edits and re-verify what they moved: the
    evaluator's work list re-evaluates only the instances an edit or a
    case change woke.  With no edits staged, replays the case sweep only
    (cheap, and a useful self-check).

    [carry_counters] (default [true]) selects the one counter snapshot
    the report carries ([r_counters], and so [r_events],
    [r_evaluations] and [r_obs]): the session's {e cumulative} counters
    — so a multi-run session reports totals, the metrics a service
    wants — or, when [false], this request's counters alone.  {!stats}
    always holds the per-request numbers; {!cumulative} always holds
    the totals. *)

val stage : t -> Edit.t -> unit
(** Stage an edit for the next {!reverify}.  Edits apply in stage
    order. *)

val pending : t -> int
(** Number of staged, not yet applied edits. *)

val id : t -> string
(** The session's handle: the content digest of the design it was
    loaded with ({!Fingerprint.content_digest} at {!load}, the
    definition {!digest} and {!Fingerprint.digest} use).  Stable for the
    session's lifetime. *)

val digest : t -> string
(** Content digest of the design {e as currently edited}, equal to
    {!Fingerprint.digest} of {!netlist}.  {!reverify} re-serializes only
    the chunks of the nets and instances its edits touched and stales
    their blocks ({!Fingerprint.refresh}); the first reader after a
    change (a response, a {!Store} lookup) re-hashes only those blocks,
    then the block digests, without walking the design. *)

val skeleton : t -> string
(** Structure-only digest ({!Fingerprint.skeleton}); invariant under
    edits. *)

val netlist : t -> Netlist.t
val report : t -> Verifier.report
(** The most recent report (cold-run report right after {!load}). *)

val cases : t -> Case_analysis.case list
val stats : t -> stats
(** Stats of the most recent request. *)

val cumulative : t -> Eval.counters
(** Counters accumulated over every request of this session, the cold
    load's included. *)

val listing : t -> string
(** The violation listing exactly as [scald_tv -q] prints it for the
    current report (leading and trailing newline included, and the
    multi-corner summary on a multi-corner design), for byte-for-byte
    comparison against a cold run. *)
