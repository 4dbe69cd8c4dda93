let mark = function
  | Tvalue.V0 -> '_'
  | Tvalue.V1 -> '^'
  | Tvalue.Stable -> '='
  | Tvalue.Change -> 'x'
  | Tvalue.Rise -> '/'
  | Tvalue.Fall -> '\\'
  | Tvalue.Unknown -> '?'

let row ~columns wf =
  let m = Waveform.materialize wf in
  let p = Waveform.period m in
  String.init columns (fun i ->
      (* sample the column at several points; a mixed column gets '*' *)
      let t0 = i * p / columns in
      let t1 = max t0 ((((i + 1) * p) / columns) - 1) in
      let v0 = Waveform.value_at m t0 in
      let uniform =
        List.for_all
          (fun t -> Tvalue.equal (Waveform.value_at m t) v0)
          [ t0 + ((t1 - t0) / 4); (t0 + t1) / 2; t1 - ((t1 - t0) / 4); t1 ]
      in
      if uniform then mark v0 else '*')

let pp_waveform ?(columns = 64) ppf wf = Format.pp_print_string ppf (row ~columns wf)

let ruler ~columns period =
  (* ns labels roughly every 16 columns *)
  let buf = Bytes.make columns ' ' in
  let step = max 1 (columns / 4) in
  let rec place i =
    if i < columns then begin
      let ns = Printf.sprintf "%.0f" (Timebase.ns_of_ps (i * period / columns)) in
      String.iteri
        (fun j c -> if i + j < columns then Bytes.set buf (i + j) c)
        ns;
      place (i + step)
    end
  in
  place 0;
  Bytes.to_string buf

let pp ?(columns = 64) ?signals ppf ev =
  let nl = Eval.netlist ev in
  let period = Timebase.period (Netlist.timebase nl) in
  let nets =
    match signals with
    | Some names ->
      List.filter_map
        (fun name -> Option.map (Netlist.net nl) (Netlist.find nl name))
        names
    | None ->
      let all = ref [] in
      Netlist.iter_nets nl (fun n -> all := n :: !all);
      List.sort
        (fun (a : Netlist.net) b -> String.compare a.Netlist.n_name b.Netlist.n_name)
        !all
  in
  Format.fprintf ppf "@[<v>%-28s %s@," "" (ruler ~columns period);
  List.iter
    (fun (n : Netlist.net) ->
      Format.fprintf ppf "%-28s %s@," n.Netlist.n_name
        (row ~columns (Eval.value ev n.Netlist.n_id)))
    nets;
  Format.fprintf ppf "@]"
