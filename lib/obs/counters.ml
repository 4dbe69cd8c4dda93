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
  let cases = r.Verifier.r_cases in
  let counters =
    Eval.counter_list r.Verifier.r_counters
    @ [
        ("cases", List.length cases);
        ( "cases_diverged",
          List.length (List.filter (fun c -> not c.Verifier.cr_converged) cases) );
        ("jobs", r.Verifier.r_jobs);
        ("violations", List.length r.Verifier.r_violations);
        ("unasserted", List.length r.Verifier.r_unasserted);
      ]
    @ extra
  in
  check_no_dup_keys counters;
  {
    m_counters = counters;
    m_flags = [ ("converged", r.Verifier.r_converged) ];
    m_kinds = Eval.evals_by_kind r.Verifier.r_counters;
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
