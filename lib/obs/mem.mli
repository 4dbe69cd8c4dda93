(** Resource accounting: GC counters and peak resident set size.

    One snapshot per sampling point; the serve daemon takes them at
    request boundaries and exposes the latest through [stats]/[health]
    and the metrics file (doc/OBSERVABILITY.md, "Service telemetry").
    Word counts are in OCaml words (8 bytes on 64-bit).  Only
    [mem_minor_words] and [mem_peak_rss_kb] are current at the sampling
    point; the other GC fields are as of the last collection. *)

type snapshot = {
  mem_minor_words : float;  (** words allocated in the minor heap *)
  mem_promoted_words : float;  (** words promoted minor -> major *)
  mem_major_words : float;  (** words allocated in the major heap *)
  mem_heap_words : int;  (** major-heap size *)
  mem_compactions : int;  (** heap compactions so far *)
  mem_peak_rss_kb : int;
      (** peak resident set size in kB (VmHWM from /proc/self/status);
          [0] where procfs is unavailable *)
}

val sample : ?peak_rss_kb:int -> unit -> snapshot
(** Take a snapshot.  The GC side is a cheap [Gc.minor_words] and
    [Gc.quick_stat]; the RSS side opens [/proc/self/status] unless
    [?peak_rss_kb] carries a previous reading forward (hot-path
    callers sample RSS only at coarse boundaries). *)

val peak_rss_kb : unit -> int
(** Just the VmHWM reading, in kB; [0] when unavailable. *)

val zero : snapshot
(** The all-zero snapshot (placeholder before the first sample). *)
