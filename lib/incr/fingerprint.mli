(** Content addressing for the session store (doc/SERVICE.md).

    Two views of a netlist's identity, both computed from one canonical
    walk of its structure and parameters:

    - {!digest}: structure {e and} every parameter.  Equal digests mean
      a cold verify would produce the very same report, so a session
      holding this digest can be reused outright.
    - {!skeleton}: structure only — names, widths, connectivity,
      primitive shape.  Equal skeletons mean the two designs differ only
      in parameters, every one of which is expressible as an
      {!Edit.t} — an existing session can be {e adopted} by replaying
      the parameter diff ({!Edit.diff}) instead of reloading cold.

    The digest is two-level: the canonical dump is cut into chunks (a
    header, one per net, one per instance, a trailer), the chunks into
    blocks of {!block_chunks}, and the digest is the MD5 of the blocks'
    MD5s in order.  A session keeps it current across edits with a
    {!content}, whose {!refresh} re-serializes only the edit's own
    elements and whose {!content_digest} re-hashes only the blocks they
    changed. *)

open Scald_core

val digest : Netlist.t -> string
(** Hex digest of structure plus all parameters, including the delay
    corner table ({!Scald_core.Netlist.corners}): a corner change is a
    parameter change and must miss the session cache.  The same
    two-level definition as {!content_digest}, computed cold. *)

val skeleton : Netlist.t -> string
(** Hex digest of structure only. *)

(** {1 Maintained digests} *)

val block_chunks : int
(** Chunks per hashed block: consecutive chunks [k * block_chunks] up
    to [(k + 1) * block_chunks - 1] (fewer in the last block) are
    hashed together.  A constant of the digest's definition. *)

type content
(** The canonical dump of one netlist, kept as separate chunks: a
    header, one chunk per net, the instance count, one chunk per
    instance and a trailer holding the corner table, with each block's
    digest.  Built in one walk, which also yields the skeleton. *)

val content : Netlist.t -> content

val content_digest : content -> string
(** Equals {!digest} of the netlist the content describes.  Memoized:
    the first call after a change re-hashes only the blocks whose chunks
    changed, then the block digests, joining each block's chunks in one
    reused buffer — it neither re-serializes anything nor allocates
    anything the size of a block or of the design. *)

val content_skeleton : content -> string
(** Equals {!skeleton}; fixed, since edits never change structure. *)

val refresh : content -> Netlist.t -> nets:int list -> insts:int list -> unit
(** Bring the content up to date after parameter edits, given every net
    and instance whose parameters may have changed ([nets] and [insts]
    may over-approximate).  Re-serializes their chunks and the trailer,
    and marks stale the block of each chunk that changed; the digest is
    recomputed lazily, on the next {!content_digest}, and only if some
    chunk changed. *)
