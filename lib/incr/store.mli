(** Content-addressed session store (doc/SERVICE.md).

    Sessions are addressed by the {!Fingerprint.digest} of their design.
    A [load] computes the submitted design's digest cold and compares it
    with each session's {!Session.digest}, maintained incrementally
    across edits; both follow {!Fingerprint}'s one two-level definition,
    so a session edited into a design answers that design's [load]
    warm.
    A [load] of a design the store has already verified comes back
    {!Warm} (nothing to do — the cached report stands); a design that is
    structurally identical to a live session but differs in parameters
    comes back {!Adopted}, with the parameter diff staged as edits on
    that session, so the next [verify] re-evaluates only the diff's
    dirty cone instead of the whole design.  Only the most recently used
    such session is tried, and if the diff touches an instance whose
    name several instances share ({!Edit.check} rejects such a name),
    the load is {!Cold}; so is everything else. *)

open Scald_core

type t

type outcome =
  | Cold of Session.t  (** no reusable session: full cold verify ran *)
  | Warm of Session.t
      (** digest and case group both match a live session — full reuse,
          its current report stands *)
  | Adopted of Session.t * int
      (** an existing session was adopted; [int] edits were staged
          (parameter diff, possibly plus a case-group swap) *)

val create : unit -> t

val load :
  t ->
  ?cases:Case_analysis.case list ->
  ?probe:Verifier.probe ->
  Netlist.t ->
  outcome
(** Load a design, reusing or adopting a live session when the content
    address allows it.  On {!Adopted}, the submitted netlist is
    discarded — the session keeps its own and replays the diff.
    [probe] is installed on a {!Cold} load only (see
    {!Session.load}) — reused sessions keep the probe they were
    created with.  The store counts nothing: a caller that tallies
    loads counts the outcomes (the service's [loads], [warm_loads] and
    [adopted_loads]). *)

val find : t -> string -> Session.t option
(** Look up by session handle ({!Session.id}) or current content digest
    ({!Session.digest}). *)

val latest : t -> Session.t option
(** Most recently loaded/used session — the default target of a request
    that omits the session handle. *)

val sessions : t -> Session.t list
val n_sessions : t -> int
