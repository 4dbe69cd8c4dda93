open Scald_core

type metrics = {
  m_counters : (string * int) list;
  m_flags : (string * bool) list;
  m_kinds : (string * int) list;
  m_phases : (string * float) list;
}

let schema_version = "scald-metrics/8"

(* A duplicate key — a caller's [extra] colliding with a built-in, or
   with itself — would serialize as two identical JSON fields: valid
   to some parsers, last-wins to others, silently lossy to all. *)
let check_no_dup_keys pairs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then
        invalid_arg (Printf.sprintf "Counters.of_report: duplicate key %S" k)
      else Hashtbl.add seen k ())
    pairs

let of_report ?(phases = []) ?(extra = []) (r : Verifier.report) =
  let counters =
      [
        ("requests", r.Verifier.r_obs.Verifier.os_requests);
        ("events", r.Verifier.r_events);
        ("evaluations", r.Verifier.r_evaluations);
        ("events_queued", r.Verifier.r_obs.Verifier.os_queued);
        ("events_coalesced", r.Verifier.r_obs.Verifier.os_coalesced);
        ("queue_hwm", r.Verifier.r_obs.Verifier.os_queue_hwm);
        ("sched_levels", r.Verifier.r_obs.Verifier.os_sched_levels);
        ("sccs", r.Verifier.r_obs.Verifier.os_sccs);
        ("max_scc_size", r.Verifier.r_obs.Verifier.os_max_scc_size);
        ("cache_hits", r.Verifier.r_obs.Verifier.os_cache_hits);
        ("cache_misses", r.Verifier.r_obs.Verifier.os_cache_misses);
        ("cases", List.length r.Verifier.r_cases);
        ( "cases_diverged",
          List.length
            (List.filter
               (fun (c : Verifier.case_result) -> not c.Verifier.cr_converged)
               r.Verifier.r_cases) );
        ("jobs", r.Verifier.r_jobs);
        ("corners", r.Verifier.r_obs.Verifier.os_corners);
        ("corner_lanes_shared", r.Verifier.r_obs.Verifier.os_corner_lanes_shared);
        ("corner_evals_saved", r.Verifier.r_obs.Verifier.os_corner_evals_saved);
        ("violations", List.length r.Verifier.r_violations);
        ("unasserted", List.length r.Verifier.r_unasserted);
      ]
      @ extra
  in
  check_no_dup_keys counters;
  {
    m_counters = counters;
    m_flags = [ ("converged", r.Verifier.r_converged) ];
    m_kinds = r.Verifier.r_obs.Verifier.os_evals_by_kind;
    m_phases = phases;
  }

let counter m name =
  match List.assoc_opt name m.m_counters with Some v -> v | None -> 0

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %.6f keeps sub-microsecond resolution and never prints the
   exponent notation JSON forbids in some consumers. *)
let json_float x = Printf.sprintf "%.6f" x

let to_json m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": %s" (json_string schema_version));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (Printf.sprintf ",\n  %s: %d" (json_string k) v))
    m.m_counters;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\n  %s: %b" (json_string k) v))
    m.m_flags;
  let obj key pairs render =
    Buffer.add_string buf (Printf.sprintf ",\n  %s: {" (json_string key));
    List.iteri
      (fun i (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s: %s"
             (if i = 0 then "" else ", ")
             (json_string k) (render v)))
      pairs;
    Buffer.add_string buf "}"
  in
  obj "evals_by_kind" m.m_kinds string_of_int;
  obj "phases_s" m.m_phases json_float;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write_file m path =
  let oc = open_out_bin path in
  output_string oc (to_json m);
  close_out oc
