(** Phase profiler: nested wall-clock spans.

    A profiler records a tree of named spans — parse, expand, lint,
    per-case evaluate, check, report — against a monotonically sampled
    clock.  Timestamps are kept relative to the profiler's creation, in
    microseconds, which is exactly what the Chrome [trace_event] format
    wants (see {!Trace_export}).

    Every completed span adds its duration to its name's total
    ({!totals}), which is all the metrics file needs.  The spans
    themselves are kept, for a trace file, only when the profiler is
    created with [keep] — a long-lived service that writes no trace
    keeps no per-request history.

    The clock is injectable so tests can drive a deterministic one; the
    default is {!Unix.gettimeofday}. *)

type span = {
  s_name : string;
  s_ts_us : float;  (** start, µs since profiler creation *)
  s_dur_us : float;  (** duration in µs *)
  s_depth : int;  (** nesting depth, 0 = top level *)
  s_lane : int;
      (** the profiler's {!lane} when the span completed; the serve
          daemon sets one lane per request so {!Trace_export} renders
          each request on its own track ([0] outside a request) *)
}

type t

val create : ?clock:(unit -> float) -> ?keep:bool -> unit -> t
(** A fresh profiler.  [clock] returns seconds; it need only be
    monotone non-decreasing.  [keep] (default [true]) keeps every
    completed span for {!spans}; without it only the per-name totals
    are. *)

val now_us : t -> float
(** Current clock reading, µs since profiler creation.  Exposed so the
    serve loop can time whole requests on the {e same} (injectable)
    clock its spans use — deterministic tests drive both at once. *)

val set_lane : t -> int -> unit
(** Set the lane stamped on subsequently completed spans.  The serve
    daemon calls this at each request boundary; nested spans emitted
    by [Session]/[Eval] during the request inherit it for free. *)

val lane : t -> int
(** The current lane (0 initially). *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span.  The span is recorded
    even when [f] raises; spans nest to any depth. *)

val spans : t -> span list
(** All completed spans, in order of completion time; [[]] unless the
    profiler keeps them.  O(total). *)

val totals : t -> (string * float) list
(** Summed µs per distinct span name, in order of each name's first
    completion; kept or not. *)

val total_us : t -> string -> float
(** Summed duration of every completed span with the given name. *)
