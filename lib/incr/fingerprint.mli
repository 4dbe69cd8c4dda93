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

    A session keeps both current across edits with a {!content}, whose
    {!refresh} re-serializes only the edit's own elements, not the
    design. *)

open Scald_core

val digest : Netlist.t -> string
(** Hex digest of structure plus all parameters, including the delay
    corner table ({!Scald_core.Netlist.corners}): a corner change is a
    parameter change and must miss the session cache. *)

val skeleton : Netlist.t -> string
(** Hex digest of structure only. *)

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

val refresh : content -> Netlist.t -> nets:int list -> insts:int list -> unit
(** Bring the content up to date after parameter edits, given every net
    and instance whose parameters may have changed ([nets] and [insts]
    may over-approximate).  Re-serializes their chunks and the trailer;
    the digest is recomputed lazily, on the next {!content_digest}, and
    only if some chunk changed. *)
