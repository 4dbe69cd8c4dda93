(** Prometheus text-format exposition (version 0.0.4).

    The serve daemon's [--prom FILE] flag rewrites one of these at most
    once per 250 ms, after every [stats] and [health], and on exit
    (doc/OBSERVABILITY.md, "Service telemetry");
    [tools/check_prom.py] lints the output in CI.  Dependency-free:
    the format is [# HELP] / [# TYPE] comments plus
    [name{label="value"} 42] sample lines. *)

type sample
type family

val sample : ?labels:(string * string) list -> float -> sample
(** One sample line.  Label values are escaped on output; label names
    must already be valid ([[a-zA-Z_][a-zA-Z0-9_]*]).  The value prints
    as the JSON codec spells a number ({!Scald_core.Json.number}). *)

val family :
  name:string ->
  help:string ->
  typ:[ `Counter | `Gauge ] ->
  sample list ->
  family
(** A metric family: HELP + TYPE header and its samples.  Every sample
    in one family must carry a distinct label set (the linter rejects
    duplicates). *)

val to_text : family list -> string
(** Render the exposition document. *)

val write_file : string -> family list -> unit
(** Serialize to [path ^ ".tmp"] then [Sys.rename] over [path], so a
    concurrent reader sees either the old or the new document, never a
    torn one. *)
