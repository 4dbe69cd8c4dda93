type section = { s_name : string; s_netlist : Netlist.t }

type issue =
  | Unasserted_interface of { signal : string; sections : string list }
  | Multiply_driven of { signal : string; sections : string list }
  | Undriven_interface of { signal : string; sections : string list }

let interface_signals sections =
  let uses : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Netlist.iter_nets s.s_netlist (fun n ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt uses n.Netlist.n_name) in
          if not (List.mem s.s_name prev) then
            Hashtbl.replace uses n.Netlist.n_name (s.s_name :: prev)))
    sections;
  Hashtbl.fold
    (fun signal secs acc ->
      match secs with
      | [] | [ _ ] -> acc
      | _ -> (signal, List.rev secs) :: acc)
    uses []
  |> List.sort compare

let check_interfaces sections =
  let shared = interface_signals sections in
  List.concat_map
    (fun (signal, secs) ->
      (* collect per-section facts about this signal *)
      let facts =
        List.filter_map
          (fun s ->
            match Netlist.find s.s_netlist signal with
            | None -> None
            | Some id ->
              let n = Netlist.net s.s_netlist id in
              Some (s.s_name, n.Netlist.n_assertion <> None, n.Netlist.n_driver <> None))
          sections
      in
      let drivers = List.filter_map (fun (s, _, d) -> if d then Some s else None) facts in
      let asserted = List.exists (fun (_, a, _) -> a) facts in
      List.concat
        [
          (if asserted then []
           else [ Unasserted_interface { signal; sections = secs } ]);
          (match drivers with
          | [] -> if asserted then [ Undriven_interface { signal; sections = secs } ] else []
          | [ _ ] -> []
          | _ -> [ Multiply_driven { signal; sections = drivers } ]);
        ])
    shared

type result = {
  m_sections : (string * Verifier.report) list;
  m_issues : issue list;
  m_clean : bool;
}

let blocking = function
  | Unasserted_interface _ | Multiply_driven _ -> true
  | Undriven_interface _ -> false

let verify sections =
  let reports = List.map (fun s -> (s.s_name, Verifier.verify s.s_netlist)) sections in
  let issues = check_interfaces sections in
  let clean =
    List.for_all (fun (_, r) -> Verifier.clean r) reports
    && not (List.exists blocking issues)
  in
  { m_sections = reports; m_issues = issues; m_clean = clean }

let pp_issue ppf = function
  | Unasserted_interface { signal; sections } ->
    Format.fprintf ppf "interface signal %S (%s) carries no assertion" signal
      (String.concat ", " sections)
  | Multiply_driven { signal; sections } ->
    Format.fprintf ppf "interface signal %S is generated by several sections (%s)" signal
      (String.concat ", " sections)
  | Undriven_interface { signal; sections } ->
    Format.fprintf ppf
      "interface signal %S (%s) is not yet generated by any section (assertion \
       stands in for future hardware)"
      signal
      (String.concat ", " sections)

let pp ppf r =
  Format.fprintf ppf "@[<v>MODULAR VERIFICATION@,";
  List.iter
    (fun (name, report) ->
      Format.fprintf ppf "  section %-20s %d violation(s), %d events@," name
        (List.length report.Verifier.r_violations)
        (Eval.counter report.Verifier.r_counters "events"))
    r.m_sections;
  List.iter (fun i -> Format.fprintf ppf "  %a@," pp_issue i) r.m_issues;
  Format.fprintf ppf "  whole design free of timing errors: %b@]" r.m_clean
