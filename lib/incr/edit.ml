open Scald_core

type t =
  | Wire_delay of { signal : string; delay : Delay.t option }
  | Element_delay of { inst : string; delay : Delay.t }
  | Assertion of { signal : string; assertion : Assertion.t option }
  | Directive of { inst : string; input : int; directive : Directive.t }
  | Replace_prim of { inst : string; prim : Primitive.t }
  | Cases of Case_analysis.case list
  | Corners of Corner.table

type applied = {
  a_touched_nets : int list;
  a_reinit_nets : int list;
  a_touched_insts : int list;
  a_cases : Case_analysis.case list option;
}

let no_effect = { a_touched_nets = []; a_reinit_nets = []; a_touched_insts = []; a_cases = None }

let net_id nl signal =
  match Netlist.find nl signal with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Edit.apply: unknown signal %s" signal)

let inst_id nl name =
  match Netlist.find_inst nl name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Edit.apply: unknown instance %s" name)

let apply nl = function
  | Wire_delay { signal; delay } ->
    let id = net_id nl signal in
    Netlist.set_wire_delay_opt nl id delay;
    { no_effect with a_touched_nets = [ id ] }
  | Element_delay { inst; delay } ->
    let id = inst_id nl inst in
    Netlist.set_element_delay nl id delay;
    { no_effect with a_touched_insts = [ id ] }
  | Assertion { signal; assertion } ->
    let id = net_id nl signal in
    Netlist.set_assertion nl id assertion;
    { no_effect with a_reinit_nets = [ id ] }
  | Directive { inst; input; directive } ->
    let id = inst_id nl inst in
    Netlist.set_input_directive nl ~inst:id ~input directive;
    let i = Netlist.inst nl id in
    (* bump the connection's driving net: the consumer-side input cache
       is keyed on that net's generation stamp *)
    { no_effect with a_touched_nets = [ i.i_inputs.(input).c_net ]; a_touched_insts = [ id ] }
  | Replace_prim { inst; prim } ->
    let id = inst_id nl inst in
    Netlist.replace_prim nl id prim;
    { no_effect with a_touched_insts = [ id ] }
  | Cases cases -> { no_effect with a_cases = Some cases }
  | Corners tbl ->
    Netlist.set_corners nl tbl;
    (* every scaled delay in the design changes: every net is touched
       (the session also rebuilds its evaluator — the lane count is
       fixed at Eval.create time) *)
    { no_effect with a_touched_nets = List.init (Netlist.n_nets nl) Fun.id }

(* Validate an edit against a netlist without mutating anything, so a
   [delta] request can be rejected atomically — nothing is staged unless
   every edit of the request checks out. *)
let check nl e =
  let net signal =
    match Netlist.find nl signal with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "unknown signal %s" signal)
  in
  let inst name =
    match Netlist.find_inst nl name with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "unknown instance %s" name)
  in
  match e with
  | Wire_delay { signal; _ } | Assertion { signal; assertion = None } ->
    Result.map (fun _ -> ()) (net signal)
  | Assertion { signal; assertion = Some a } ->
    Result.bind (net signal) (fun _ -> Assertion.check (Netlist.timebase nl) a)
  | Element_delay { inst = name; _ } -> (
    match inst name with
    | Error _ as e -> e
    | Ok id -> (
      match (Netlist.inst nl id).i_prim with
      | Primitive.Gate _ | Primitive.Buf _ | Primitive.Mux2 _ | Primitive.Reg _
      | Primitive.Latch _ ->
        Ok ()
      | Primitive.Setup_hold_check _ | Primitive.Setup_rise_hold_fall_check _
      | Primitive.Min_pulse_width _ | Primitive.Const _ ->
        Error (Printf.sprintf "%s has no element delay" name)))
  | Directive { inst = name; input; _ } -> (
    match inst name with
    | Error _ as e -> e
    | Ok id ->
      let i = Netlist.inst nl id in
      if input < 0 || input >= Array.length i.i_inputs then
        Error (Printf.sprintf "%s has no input %d" name input)
      else Ok ())
  | Replace_prim { inst = name; prim } -> (
    match inst name with
    | Error _ as e -> e
    | Ok id ->
      let i = Netlist.inst nl id in
      if Primitive.n_inputs prim <> Array.length i.i_inputs then
        Error (Printf.sprintf "%s: input count mismatch" name)
      else if Primitive.has_output prim <> (i.i_output <> None) then
        Error (Printf.sprintf "%s: output presence mismatch" name)
      else Ok ())
  | Cases cases ->
    (* resolve every case group so unknown control signals surface now *)
    let rec go = function
      | [] -> Ok ()
      | c :: rest -> (
        match Case_analysis.resolve nl c with
        | _ -> go rest
        | exception Invalid_argument m -> Error m)
    in
    go cases
  | Corners tbl -> (
    match Corner.validate_table tbl with
    | () -> Ok ()
    | exception Invalid_argument m -> Error m)

(* ---- parameter diff (session adoption) ----------------------------------- *)

let opt_equal eq a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

let prim_equal (a : Primitive.t) (b : Primitive.t) = a = b

let diff old_nl new_nl =
  if Netlist.n_nets old_nl <> Netlist.n_nets new_nl
     || Netlist.n_insts old_nl <> Netlist.n_insts new_nl
  then invalid_arg "Edit.diff: netlists differ structurally";
  let acc = ref [] in
  Netlist.iter_nets old_nl (fun o ->
      let n = Netlist.net new_nl o.n_id in
      if not (opt_equal Delay.equal o.n_wire_delay n.n_wire_delay) then
        acc := Wire_delay { signal = o.n_name; delay = n.n_wire_delay } :: !acc;
      if not (opt_equal Assertion.equal o.n_assertion n.n_assertion) then
        acc := Assertion { signal = o.n_name; assertion = n.n_assertion } :: !acc);
  Netlist.iter_insts old_nl (fun o ->
      let i = Netlist.inst new_nl o.i_id in
      if not (prim_equal o.i_prim i.i_prim) then
        acc := Replace_prim { inst = o.i_name; prim = i.i_prim } :: !acc;
      Array.iteri
        (fun k (oc : Netlist.conn) ->
          let nc = i.i_inputs.(k) in
          if oc.c_directive <> nc.c_directive then
            acc := Directive { inst = o.i_name; input = k; directive = nc.c_directive } :: !acc)
        o.i_inputs);
  if not (Corner.table_equal (Netlist.corners old_nl) (Netlist.corners new_nl)) then
    acc := Corners (Netlist.corners new_nl) :: !acc;
  List.rev !acc

(* ---- JSON decoding (serve protocol, doc/SERVICE.md) ----------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req_str j key =
  match Option.bind (Json.member key j) Json.str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "edit: missing string field %S" key)

let req_int j key =
  match Option.bind (Json.member key j) Json.int with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "edit: %S must be an integer of magnitude at most 2^53" key)

let delay_of_json j =
  match Json.member "delay" j with
  | Some Json.Null -> Ok None
  | _ -> (
    match
      ( Option.bind (Json.member "min_ns" j) Json.num,
        Option.bind (Json.member "max_ns" j) Json.num )
    with
    | Some mn, Some mx -> (
      match Delay.of_ns mn mx with
      | d -> Ok (Some d)
      | exception Invalid_argument m -> Error m)
    | _ -> Error "edit: expected \"min_ns\"/\"max_ns\" numbers or \"delay\": null")

let of_json j =
  let* kind = req_str j "edit" in
  match kind with
  | "wire_delay" ->
    let* signal = req_str j "signal" in
    let* delay = delay_of_json j in
    Ok (Wire_delay { signal; delay })
  | "element_delay" ->
    let* inst = req_str j "inst" in
    let* delay = delay_of_json j in
    (match delay with
    | Some delay -> Ok (Element_delay { inst; delay })
    | None -> Error "edit: element_delay requires min_ns/max_ns")
  | "assertion" ->
    let* signal = req_str j "signal" in
    (match Json.member "assertion" j with
    | Some Json.Null | None -> Ok (Assertion { signal; assertion = None })
    | Some (Json.Str s) ->
      let* a = Scald_core.Assertion.parse s in
      Ok (Assertion { signal; assertion = Some a })
    | Some _ -> Error "edit: \"assertion\" must be a string or null")
  | "directive" ->
    let* inst = req_str j "inst" in
    let* input = req_int j "input" in
    let* text = req_str j "directive" in
    let* directive = if text = "" then Ok [] else Scald_core.Directive.of_string text in
    Ok (Directive { inst; input; directive })
  | "cases" ->
    let* text = req_str j "text" in
    let* cases = Case_analysis.parse text in
    Ok (Cases cases)
  | "corners" ->
    let* spec = req_str j "spec" in
    (match Corner.of_spec spec with
    | tbl -> Ok (Corners tbl)
    | exception Invalid_argument m -> Error m)
  | k -> Error (Printf.sprintf "edit: unknown kind %S" k)

let pp ppf = function
  | Wire_delay { signal; delay = None } ->
    Format.fprintf ppf "wire_delay %s := default" signal
  | Wire_delay { signal; delay = Some d } ->
    Format.fprintf ppf "wire_delay %s := %a" signal Delay.pp d
  | Element_delay { inst; delay } ->
    Format.fprintf ppf "element_delay %s := %a" inst Delay.pp delay
  | Assertion { signal; assertion = None } -> Format.fprintf ppf "assertion %s := none" signal
  | Assertion { signal; assertion = Some a } ->
    Format.fprintf ppf "assertion %s := .%s" signal (Scald_core.Assertion.to_string a)
  | Directive { inst; input; directive } ->
    Format.fprintf ppf "directive %s/%d := &%s" inst input
      (Scald_core.Directive.to_string directive)
  | Replace_prim { inst; prim } ->
    Format.fprintf ppf "replace_prim %s := %a" inst Primitive.pp prim
  | Cases cases -> Format.fprintf ppf "cases := %d groups" (List.length cases)
  | Corners tbl -> Format.fprintf ppf "corners := %s" (Corner.table_to_string tbl)
