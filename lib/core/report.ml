let pp_net_line ev ppf (n : Netlist.net) =
  Format.fprintf ppf "%-28s %a" n.n_name Waveform.pp (Eval.value ev n.n_id)

let pp_summary ppf ev =
  let nl = Eval.netlist ev in
  (* iterate in place: Netlist.nets copies the whole array per call *)
  let all = ref [] in
  Netlist.iter_nets nl (fun n -> all := n :: !all);
  let sorted =
    List.sort (fun (a : Netlist.net) b -> String.compare a.n_name b.n_name) !all
  in
  Format.fprintf ppf "@[<v>TIMING VERIFIER SIGNAL VALUE SUMMARY@,";
  List.iter (fun n -> Format.fprintf ppf "%a@," (pp_net_line ev) n) sorted;
  Format.fprintf ppf "@]"

let pp_signal ppf ev name =
  let nl = Eval.netlist ev in
  match Netlist.find nl name with
  | None -> Format.fprintf ppf "%-28s (unknown signal)" name
  | Some id -> pp_net_line ev ppf (Netlist.net nl id)

let pp_violations ppf vs =
  Format.fprintf ppf "@[<v>SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS@,";
  List.iter (fun v -> Format.fprintf ppf "%a@," Check.pp v) vs;
  if vs = [] then Format.fprintf ppf "(no errors)@,";
  Format.fprintf ppf "@]"

let find_checker_inputs ev (v : Check.t) =
  let nl = Eval.netlist ev in
  let found = ref None in
  Netlist.iter_insts nl (fun i -> if i.i_name = v.v_inst then found := Some i);
  match !found with
  | Some i when Array.length i.i_inputs >= 2 ->
    Some (Eval.input_waveform ev 0 i 0, Eval.input_waveform ev 0 i 1, i)
  | Some _ | None -> None

let pp_violation_with_values ppf ev (v : Check.t) =
  Format.fprintf ppf "@[<v>%a@," Check.pp v;
  (match find_checker_inputs ev v with
  | None -> ()
  | Some (data, ck, i) ->
    let nl = Eval.netlist ev in
    let data_name = (Netlist.net nl i.i_inputs.(0).c_net).n_name in
    let ck_name = (Netlist.net nl i.i_inputs.(1).c_net).n_name in
    Format.fprintf ppf "  DATA INPUT = %-20s %a@," data_name Waveform.pp data;
    Format.fprintf ppf "  CK INPUT   = %-20s %a@," ck_name Waveform.pp ck);
  Format.fprintf ppf "@]"

let pp_cross_reference ppf nl =
  let undriven = Netlist.undriven_unasserted nl in
  Format.fprintf ppf "@[<v>SIGNALS WITH NO ASSERTION AND NO DRIVER (ASSUMED STABLE)@,";
  List.iter (fun (n : Netlist.net) -> Format.fprintf ppf "  %s@," n.n_name) undriven;
  if undriven = [] then Format.fprintf ppf "  (none)@,";
  Format.fprintf ppf "@]"
