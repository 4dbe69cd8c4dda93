(* Resource accounting: GC counters plus peak RSS.

   The GC side is cheap (no heap walk): [Gc.minor_words] is exact, and
   OCaml 5's [Gc.quick_stat] gives the rest as of the last collection.
   The RSS side parses VmHWM out of /proc/self/status, a file open per
   sample — callers on a hot path pass [~peak_rss_kb] to carry the
   last reading forward instead (the serve loop reads /proc only at
   load/stats/health boundaries to stay inside the telemetry-overhead
   budget). *)

type snapshot = {
  mem_minor_words : float;
  mem_promoted_words : float;
  mem_major_words : float;
  mem_heap_words : int;
  mem_compactions : int;
  mem_peak_rss_kb : int;
}

(* "VmHWM:    12345 kB" — the peak resident set size.  0 on platforms
   without procfs (macOS, BSD) or when the read fails: absence of the
   metric, not an error. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let rest = String.trim (String.sub line 6 (String.length line - 6)) in
              let digits =
                match String.index_opt rest ' ' with
                | Some i -> String.sub rest 0 i
                | None -> rest
              in
              match int_of_string_opt digits with Some n -> n | None -> 0
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let sample ?peak_rss_kb:rss () =
  let s = Gc.quick_stat () in
  {
    mem_minor_words = Gc.minor_words ();
    mem_promoted_words = s.Gc.promoted_words;
    mem_major_words = s.Gc.major_words;
    mem_heap_words = s.Gc.heap_words;
    mem_compactions = s.Gc.compactions;
    mem_peak_rss_kb = (match rss with Some kb -> kb | None -> peak_rss_kb ());
  }

let zero =
  {
    mem_minor_words = 0.0;
    mem_promoted_words = 0.0;
    mem_major_words = 0.0;
    mem_heap_words = 0;
    mem_compactions = 0;
    mem_peak_rss_kb = 0;
  }
