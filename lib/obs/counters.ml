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

let to_json m =
  let ints = List.map (fun (k, v) -> (k, Json.of_int v)) in
  Json.to_lines
    (Json.Obj
       ((("schema", Json.Str schema_version) :: ints m.m_counters)
       @ List.map (fun (k, b) -> (k, Json.Bool b)) m.m_flags
       @ [
           ("evals_by_kind", Json.Obj (ints m.m_kinds));
           ("phases_s", Json.Obj (List.map (fun (k, s) -> (k, Json.Num s)) m.m_phases));
         ]))

let write_file m path =
  let oc = open_out_bin path in
  output_string oc (to_json m);
  close_out oc
