type storage = {
  circuit_description : int;
  signal_values : int;
  signal_names : int;
  string_space : int;
  call_list : int;
  miscellaneous : int;
}

let total s =
  s.circuit_description + s.signal_values + s.signal_names + s.string_space + s.call_list
  + s.miscellaneous

(* Field costs of the unpacked-PASCAL model: 4 bytes per field. *)
let field = 4

(* A primitive characterization: type tag, delay pair, name pointer,
   output pointer, flags and evaluation bookkeeping, plus a parameter
   descriptor per connection.  Field counts are calibrated to the
   thesis's unpacked-PASCAL layout (260 bytes per primitive at the
   published 2.2 connections per primitive). *)
let inst_base_fields = 35

let conn_fields = 9

(* Value-list records (§2.8, Figure 2-7): the base record has a free
   storage link, skew, evaluation-string pointer, value pointer and a
   width/flag word; each value record has value, width and link. *)
let value_base_fields = 5

let value_record_fields = 3

let storage_of ev =
  let nl = Eval.netlist ev in
  let circuit = ref 0 in
  let values = ref 0 in
  let names = ref 0 in
  let strings = ref 0 in
  let call_list = ref 0 in
  Netlist.iter_insts nl (fun i ->
      circuit :=
        !circuit
        + (inst_base_fields * field)
        + (conn_fields * field * (Array.length i.i_inputs + 1));
      strings := !strings + String.length i.i_name + 1);
  Netlist.iter_nets nl (fun n ->
      (* One value list is stored per bit of a signal vector (§3.3.2:
         33 152 value lists for the 6 357-chip example).  Segment and
         fanout counts are O(1) on the packed representation; each is
         read once per net. *)
      let n_records = Waveform.n_segments (Eval.value ev n.n_id) in
      let n_fan = Netlist.fanout_count n in
      values :=
        !values
        + (n.n_width
          * ((value_base_fields * field) + (n_records * value_record_fields * field)));
      (* Per-bit pointer to the value definition, plus define/use lists. *)
      names :=
        !names
        + (n.n_width * field)
        + (field * (1 + n_fan))
        + (2 * field);
      strings := !strings + String.length n.n_name + 1;
      (* The call list records, per bit, which primitives to re-evaluate. *)
      call_list := !call_list + (n.n_width * field * n_fan));
  let subtotal = !circuit + !values + !names + !strings + !call_list in
  {
    circuit_description = !circuit;
    signal_values = !values;
    signal_names = !names;
    string_space = !strings;
    call_list = !call_list;
    miscellaneous = subtotal / 100;
  }

let n_value_lists nl =
  let sum = ref 0 in
  Netlist.iter_nets nl (fun n -> sum := !sum + n.n_width);
  !sum

let value_records_per_signal ev =
  let count = ref 0 and nets = ref 0 in
  Netlist.iter_nets (Eval.netlist ev) (fun n ->
      incr nets;
      count := !count + Waveform.n_segments (Eval.value ev n.n_id));
  if !nets = 0 then 0. else float_of_int !count /. float_of_int !nets

let bytes_per_signal_value ev =
  let bytes = ref 0 and nets = ref 0 in
  Netlist.iter_nets (Eval.netlist ev) (fun n ->
      incr nets;
      bytes :=
        !bytes
        + (value_base_fields * field)
        + (Waveform.n_segments (Eval.value ev n.n_id) * value_record_fields * field));
  if !nets = 0 then 0. else float_of_int !bytes /. float_of_int !nets

let bytes_per_primitive s ~n_primitives =
  if n_primitives = 0 then 0. else float_of_int s.circuit_description /. float_of_int n_primitives

type primitive_census = (string * int * float) list

let inst_width nl (i : Netlist.inst) =
  match i.i_output with
  | Some o -> (Netlist.net nl o).n_width
  | None -> if Array.length i.i_inputs > 0 then (Netlist.net nl i.i_inputs.(0).c_net).n_width else 1

let primitive_census nl =
  let tbl : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  Netlist.iter_insts nl (fun i ->
      let key = Primitive.mnemonic i.i_prim in
      let count, width_sum =
        match Hashtbl.find_opt tbl key with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0) in
          Hashtbl.add tbl key cell;
          cell
      in
      incr count;
      width_sum := !width_sum + inst_width nl i);
  Hashtbl.fold
    (fun key (count, width_sum) acc ->
      (key, !count, float_of_int !width_sum /. float_of_int !count) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let total_primitives census = List.fold_left (fun acc (_, n, _) -> acc + n) 0 census

let unvectored_count nl =
  let sum = ref 0 in
  Netlist.iter_insts nl (fun i -> sum := !sum + inst_width nl i);
  !sum

let pp_storage ppf s =
  let t = total s in
  let pct x = 100. *. float_of_int x /. float_of_int (max 1 t) in
  let row name x = Format.fprintf ppf "  %-24s %10d bytes  %5.1f%%@," name x (pct x) in
  Format.fprintf ppf "@[<v>STORAGE REQUIRED FOR TIMING VERIFICATION DATA STRUCTURES@,";
  row "CIRCUIT DESCRIPTION" s.circuit_description;
  row "SIGNAL VALUES" s.signal_values;
  row "SIGNAL NAMES" s.signal_names;
  row "STRING SPACE" s.string_space;
  row "CALL LIST ARRAY" s.call_list;
  row "MISCELLANEOUS" s.miscellaneous;
  Format.fprintf ppf "  %-24s %10d bytes  100.0%%@]" "TOTAL" t

let pp_census ppf census =
  Format.fprintf ppf "@[<v>PRIMITIVE DEFINITIONS GENERATED@,";
  Format.fprintf ppf "  %-28s %8s %12s@," "TYPE" "COUNT" "MEAN WIDTH";
  List.iter
    (fun (name, count, width) ->
      Format.fprintf ppf "  %-28s %8d %12.1f@," name count width)
    census;
  let n = total_primitives census in
  let mean_w =
    if census = [] then 0.
    else
      List.fold_left (fun acc (_, c, w) -> acc +. (float_of_int c *. w)) 0. census
      /. float_of_int (max 1 n)
  in
  Format.fprintf ppf "  %-28s %8d %12.1f@]" "TOTAL" n mean_w
