let vcd_char = function
  | Tvalue.V0 -> '0'
  | Tvalue.V1 -> '1'
  | Tvalue.Stable -> 'z'
  | Tvalue.Change | Tvalue.Rise | Tvalue.Fall | Tvalue.Unknown -> 'x'

(* short printable identifier codes, as VCD requires *)
let ident i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let acc = String.make 1 (Char.chr (first + (i mod base))) ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let sanitize name =
  String.map (fun c -> if c = ' ' then '_' else c) name

let export ev buf =
  let nl = Eval.netlist ev in
  let period = Timebase.period (Netlist.timebase nl) in
  Buffer.add_string buf "$date exported by scald $end\n";
  Buffer.add_string buf "$version scald timing verifier $end\n";
  Buffer.add_string buf "$timescale 1ps $end\n";
  Buffer.add_string buf "$scope module design $end\n";
  Netlist.iter_nets nl (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire 1 %s %s[%d] $end\n" (ident n.Netlist.n_id)
           (sanitize n.Netlist.n_name) n.Netlist.n_width));
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  (* gather all change times *)
  let events : (int, (string * char) list) Hashtbl.t = Hashtbl.create 64 in
  let add t id c =
    let prev = Option.value ~default:[] (Hashtbl.find_opt events t) in
    Hashtbl.replace events t ((id, c) :: prev)
  in
  Netlist.iter_nets nl (fun n ->
      let m = Waveform.materialize (Eval.value ev n.Netlist.n_id) in
      let id = ident n.Netlist.n_id in
      let rec go at = function
        | [] -> ()
        | (v, width) :: rest ->
          add at id (vcd_char v);
          go (at + width) rest
      in
      go 0 (Waveform.segments m));
  let times = Hashtbl.fold (fun t _ acc -> t :: acc) events [] |> List.sort Int.compare in
  Buffer.add_string buf "$dumpvars\n";
  List.iter
    (fun t ->
      if t > 0 then Buffer.add_string buf (Printf.sprintf "#%d\n" t);
      List.iter
        (fun (id, c) -> Buffer.add_string buf (Printf.sprintf "%c%s\n" c id))
        (List.rev (Hashtbl.find events t));
      if t = 0 then Buffer.add_string buf "$end\n")
    times;
  Buffer.add_string buf (Printf.sprintf "#%d\n" period)

let to_string ev =
  let buf = Buffer.create 4096 in
  export ev buf;
  Buffer.contents buf

let write_file ev path =
  let oc = open_out path in
  output_string oc (to_string ev);
  close_out oc
