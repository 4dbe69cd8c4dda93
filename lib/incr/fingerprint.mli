(** Content addressing for the session store (doc/SERVICE.md).

    Three views of a netlist's identity, all computed from a canonical
    walk of its structure and parameters:

    - {!digest}: structure {e and} every parameter.  Equal digests mean
      a cold verify would produce the very same report, so a session
      holding this digest can be reused outright.
    - {!skeleton}: structure only — names, widths, connectivity,
      primitive shape.  Equal skeletons mean the two designs differ only
      in parameters, every one of which is expressible as an
      {!Edit.t} — an existing session can be {e adopted} by replaying
      the parameter diff ({!Edit.diff}) instead of reloading cold.
    - {!cones}: one 64-bit fingerprint per net over its input cone,
      computed over the {!Scald_core.Sched} condensation (feedback
      components are hashed with a two-pass component-seed scheme so the
      walk terminates).  A net whose cone fingerprint is unchanged
      between two parameterizations provably carries the same waveform;
      the service reports reuse in these terms ([reused_nets] /
      [dirtied_nets]).  Fingerprints are diagnostic — the dirty-cone
      computation that decides what to re-evaluate is structural, so a
      hash collision can never produce a wrong verdict.

    A session keeps all three current across edits with an {!index},
    whose {!refresh} costs the edit's own elements plus the
    fingerprints of their forward cone, not the design. *)

open Scald_core

val digest : Netlist.t -> string
(** Hex digest of structure plus all parameters, including the delay
    corner table ({!Scald_core.Netlist.corners}): a corner change is a
    parameter change and must miss the session cache. *)

val skeleton : Netlist.t -> string
(** Hex digest of structure only. *)

val cones : ?sched:Sched.t -> Netlist.t -> int64 array
(** Per-net input-cone fingerprints, indexed by net id, recomputed from
    scratch.  [sched] reuses a precomputed condensation. *)

val diff_count : int64 array -> int64 array -> int
(** Number of positions where two fingerprint arrays disagree. *)

(** {1 Maintained digests} *)

type content
(** The canonical dump of one netlist, kept as separate chunks: a
    header, one chunk per net, one per instance and a trailer holding
    the corner table.  Built in one walk, which also yields the
    skeleton. *)

val content : Netlist.t -> content

val content_digest : content -> string
(** Equals {!digest} of the netlist the content describes.  Memoized:
    the first call after a change joins the cached chunks and hashes
    them, without re-serializing anything. *)

val content_skeleton : content -> string
(** Equals {!skeleton}; fixed, since edits never change structure. *)

type index
(** A {!content} plus every net's and instance's local hash and the
    current {!cones}, maintained in place by {!refresh}. *)

val index : ?content:content -> sched:Sched.t -> Netlist.t -> index
(** Index a netlist.  [content], when given, must describe the netlist
    as it is now (the store builds it for its own lookups); the index
    takes it over and mutates it. *)

val index_content : index -> content

val index_cones : index -> int64 array
(** A copy of the current fingerprints; equals {!cones}. *)

val refresh : index -> Netlist.t -> nets:int list -> insts:int list -> int
(** Bring the index up to date after parameter edits, given every net
    and instance whose parameters may have changed ([nets] and [insts]
    may over-approximate).  Re-serializes their chunks and the trailer,
    re-hashes them, and recomputes the fingerprints of the forward
    closure of those whose local hash moved, in descending component
    order.  The digest is recomputed lazily, on the next
    {!content_digest}.  Returns the number of fingerprints that changed,
    i.e. {!diff_count} of {!cones} before and after. *)
