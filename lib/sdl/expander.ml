open Scald_core

type summary = {
  s_macros_expanded : int;
  s_primitives : int;
  s_signals : int;
  s_synonyms : int;
}

type expansion = {
  e_netlist : Netlist.t;
  e_summary : summary;
  e_pass1_s : float;
  e_pass2_s : float;
}

exception Expand_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Expand_error msg)) fmt

(* ---- size expressions in vector subscripts --------------------------------- *)

(* Evaluate an integer expression such as "SIZE-1" or "2*SIZE+1" under an
   environment of macro properties. *)
let eval_size_expr env line expr =
  let n = String.length expr in
  let pos = ref 0 in
  let peek () = if !pos < n then Some expr.[!pos] else None in
  let rec skip () =
    match peek () with
    | Some ' ' ->
      incr pos;
      skip ()
    | Some _ | None -> ()
  in
  let atom () =
    skip ();
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | 'a' .. 'z' | 'A' .. 'Z' | '_') ->
        incr pos;
        go ()
      | Some _ | None -> ()
    in
    go ();
    if !pos = start then fail "line %d: bad subscript expression %S" line expr;
    let word = String.sub expr start (!pos - start) in
    match int_of_string_opt word with
    | Some i -> i
    | None -> (
      match List.assoc_opt (String.uppercase_ascii word) env with
      | Some v -> v
      | None -> fail "line %d: unbound size variable %S in %S" line word expr)
  in
  let rec term acc =
    skip ();
    match peek () with
    | Some '*' ->
      incr pos;
      term (acc * atom ())
    | Some _ | None -> acc
  in
  let rec sum acc =
    skip ();
    match peek () with
    | Some '+' ->
      incr pos;
      sum (acc + term (atom ()))
    | Some '-' ->
      incr pos;
      sum (acc - term (atom ()))
    | Some _ | None -> acc
  in
  let result = sum (term (atom ())) in
  skip ();
  if !pos <> n then fail "line %d: trailing garbage in subscript %S" line expr;
  result

(* Rewrite every <...> group in a name, evaluating its expressions. *)
let substitute_subscripts env line name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if name.[i] = '<' then (
      match String.index_from_opt name i '>' with
      | None -> fail "line %d: unclosed '<' in signal name %S" line name
      | Some j ->
        let inside = String.sub name (i + 1) (j - i - 1) in
        (match String.index_opt inside ':' with
        | None ->
          Buffer.add_string buf
            (Printf.sprintf "<%d>" (eval_size_expr env line inside))
        | Some c ->
          let lo = String.sub inside 0 c in
          let hi = String.sub inside (c + 1) (String.length inside - c - 1) in
          Buffer.add_string buf
            (Printf.sprintf "<%d:%d>" (eval_size_expr env line lo)
               (eval_size_expr env line hi)));
        go (j + 1))
    else begin
      Buffer.add_char buf name.[i];
      go (i + 1)
    end
  in
  go 0

(* Base of a formal parameter name: the words before any subscript or
   assertion, e.g. "I" for "I<0:SIZE-1>". *)
let param_base name =
  let stop =
    let lt = String.index_opt name '<' in
    let dot =
      (* assertion marker " ." *)
      let rec find i =
        if i + 1 >= String.length name then None
        else if name.[i] = ' ' && name.[i + 1] = '.' then Some i
        else find (i + 1)
      in
      find 0
    in
    match lt, dot with
    | None, None -> String.length name
    | Some a, None -> a
    | None, Some b -> b
    | Some a, Some b -> min a b
  in
  String.trim (String.sub name 0 stop)

(* ---- pass 1: declarations ----------------------------------------------------- *)

type settings = {
  mutable period_ns : float option;
  mutable clock_unit_ns : float option;
  mutable default_wire : float * float;
  mutable wire_rule : ((float * float) * (float * float)) option;
  mutable corners : (string * float list) list option;
  macros : (string, Ast.macro_def) Hashtbl.t;
}

(* A CORNERS entry list into a validated table, reusing the CLI codec so
   SDL and [--corners] accept the same names and presets. *)
let corner_table_of entries =
  let part (name, scales) =
    match scales with
    | [] -> name
    | [ d ] -> Printf.sprintf "%s=%g" name d
    | [ d; w ] -> Printf.sprintf "%s=%g/%g" name d w
    | _ -> fail "CORNERS %s: expected dscale[/wscale]" name
  in
  match Corner.of_spec (String.concat "," (List.map part entries)) with
  | tbl -> tbl
  | exception Invalid_argument m -> fail "CORNERS: %s" m

(* Pass 1 reads one statement: the declarations every instance may
   depend on, wherever they stand in the text. *)
let declare s stmt =
  match stmt with
  | Ast.Period p -> s.period_ns <- Some p
  | Ast.Clock_unit u -> s.clock_unit_ns <- Some u
  | Ast.Default_wire (a, b) -> s.default_wire <- (a, b)
  | Ast.Wire_rule (base, per_load) -> s.wire_rule <- Some (base, per_load)
  | Ast.Corners cs -> s.corners <- Some cs
  | Ast.Macro m ->
    if Hashtbl.mem s.macros m.Ast.m_name then
      fail "line %d: macro %S defined twice" m.Ast.m_line m.Ast.m_name;
    Hashtbl.add s.macros m.Ast.m_name m
  | Ast.Wire_delay _ | Ast.Width_decl _ | Ast.Top_instance _ -> ()

(* ---- resolved signal references ------------------------------------------------ *)

type binding = {
  b_name : string;
  b_complement : bool;
  b_directive : string option;
  b_local : bool;  (* a /M macro-local: chip-internal, zero wire delay *)
}

type frame = {
  f_env : (string * int) list;  (** size variables *)
  f_bindings : (string * binding) list;  (** formal base -> actual *)
  f_path : string;  (** unique prefix for /M locals *)
}

let top_frame = { f_env = []; f_bindings = []; f_path = "" }

let resolve_sigref frame line (s : Ast.sigref) =
  let name = substitute_subscripts frame.f_env line s.Ast.name in
  match s.Ast.scope with
  | Ast.Param -> (
    let base = param_base name in
    match List.assoc_opt base frame.f_bindings with
    | None ->
      if frame.f_path = "" then
        (* A /P reference outside any macro is just a global. *)
        { b_name = name; b_complement = s.Ast.complement; b_directive = s.Ast.directive;
          b_local = false }
      else fail "line %d: %S is not a parameter of this macro" line base
    | Some b ->
      {
        b_name = b.b_name;
        b_complement = s.Ast.complement <> b.b_complement;
        b_directive =
          (match s.Ast.directive with Some d -> Some d | None -> b.b_directive);
        b_local = b.b_local;
      })
  | Ast.Local ->
    {
      b_name = (if frame.f_path = "" then name else frame.f_path ^ "$" ^ name);
      b_complement = s.Ast.complement;
      b_directive = s.Ast.directive;
      b_local = frame.f_path <> "";
    }
  | Ast.Global ->
    { b_name = name; b_complement = s.Ast.complement; b_directive = s.Ast.directive;
      b_local = false }

(* ---- primitive heads --------------------------------------------------------------- *)

type head =
  | P of Primitive.t
  | Macro_call of Ast.macro_def

let prop_pair props name =
  List.find_map
    (fun (p : Ast.prop) ->
      if p.Ast.p_name = name then
        match p.Ast.p_values with
        | [ a; b ] -> Some (a, b)
        | [ a ] -> Some (a, a)
        | _ -> None
      else None)
    props

let prop_delay props line =
  match prop_pair props "RISE", prop_pair props "FALL" with
  | Some rise, Some fall -> Delay.of_rise_fall_ns ~rise ~fall
  | Some _, None | None, Some _ ->
    fail "line %d: RISE and FALL must be given together" line
  | None, None -> (
    match prop_pair props "DELAY" with
    | Some (a, b) -> Delay.of_ns a b
    | None -> fail "line %d: primitive needs a DELAY=min/max property" line)

let prop_time props name default =
  match prop_pair props name with Some (a, _) -> Timebase.ps_of_ns a | None -> default

let gate_fn_of_string = function
  | "OR" -> Some (Primitive.Or, false)
  | "NOR" -> Some (Primitive.Or, true)
  | "AND" -> Some (Primitive.And, false)
  | "NAND" -> Some (Primitive.And, true)
  | "XOR" -> Some (Primitive.Xor, false)
  | "XNOR" -> Some (Primitive.Xor, true)
  | "CHG" -> Some (Primitive.Chg, false)
  | _ -> None

let classify_head settings line head props =
  let upper = String.uppercase_ascii head in
  let words = String.split_on_char ' ' upper in
  match words with
  | [ "REG" ] -> P (Primitive.Reg { delay = prop_delay props line; has_set_reset = false })
  | [ "REG"; "RS" ] ->
    P (Primitive.Reg { delay = prop_delay props line; has_set_reset = true })
  | [ "LATCH" ] ->
    P (Primitive.Latch { delay = prop_delay props line; has_set_reset = false })
  | [ "LATCH"; "RS" ] ->
    P (Primitive.Latch { delay = prop_delay props line; has_set_reset = true })
  | [ "ZERO" ] -> P (Primitive.Const Tvalue.V0)
  | [ "ONE" ] -> P (Primitive.Const Tvalue.V1)
  | [ "BUF" ] -> P (Primitive.Buf { invert = false; delay = prop_delay props line })
  | [ "NOT" ] -> P (Primitive.Buf { invert = true; delay = prop_delay props line })
  | [ "2"; "MUX" ] ->
    let select_extra =
      match prop_pair props "SELDELAY" with
      | Some (a, b) -> Delay.of_ns a b
      | None -> Delay.zero
    in
    P (Primitive.Mux2 { delay = prop_delay props line; select_extra })
  | [ "SETUP"; "HOLD"; "CHK" ] ->
    P
      (Primitive.Setup_hold_check
         { setup = prop_time props "SETUP" 0; hold = prop_time props "HOLD" 0 })
  | [ "SETUP"; "RISE"; "HOLD"; "FALL"; "CHK" ] ->
    P
      (Primitive.Setup_rise_hold_fall_check
         { setup = prop_time props "SETUP" 0; hold = prop_time props "HOLD" 0 })
  | [ "MIN"; "PULSE"; "WIDTH" ] ->
    let high, low =
      match prop_pair props "WIDTH" with
      | Some (a, b) -> (Timebase.ps_of_ns a, Timebase.ps_of_ns b)
      | None -> (0, 0)
    in
    P (Primitive.Min_pulse_width { high; low })
  | [ n; g ] when gate_fn_of_string g <> None && int_of_string_opt n <> None -> (
    match gate_fn_of_string g, int_of_string_opt n with
    | Some (fn, invert), Some n_inputs ->
      P (Primitive.Gate { fn; n_inputs; invert; delay = prop_delay props line })
    | _, _ -> assert false)
  | _ -> (
    match Hashtbl.find_opt settings.macros head with
    | Some m -> Macro_call m
    | None -> fail "line %d: unknown primitive or macro %S" line head)

(* ---- pass 2: netlist construction ------------------------------------------------------- *)

type counts = {
  mutable c_macros : int;
  mutable c_synonyms : int;
}

let conn_of_binding nl b =
  let directive =
    match b.b_directive with
    | None -> []
    | Some d -> Directive.of_string_exn d
  in
  let id = Netlist.signal nl b.b_name in
  if b.b_local then Netlist.set_wire_delay nl id Delay.zero;
  Netlist.conn ~invert:b.b_complement ~directive id

let emit nl line head prim args outs =
  let inputs = List.map (conn_of_binding nl) args in
  let output =
    match outs with
    | [] -> None
    | [ o ] ->
      if o.b_complement then fail "line %d: complemented output is not supported" line
      else Some (Netlist.signal nl o.b_name)
    | _ -> fail "line %d: primitives have at most one output" line
  in
  ignore (Netlist.add nl ~name:(Printf.sprintf "%s.%d" head line) prim ~inputs ~output)

let max_depth = 64

(* Expand one instance into [nl]: a primitive is emitted at once, a
   macro call walks its body under a frame that binds each formal to
   its actual.  A library rejection (a bad delay pair, directive or
   signal name) is reported at the instance's own line — for a nested
   instance, its line in the macro body. *)
let rec walk_instance settings nl counts frame depth (inst : Ast.instance) =
  let line = inst.Ast.i_line in
  if depth > max_depth then
    fail "line %d: macro expansion deeper than %d (recursive macro?)" line max_depth;
  let args = List.map (resolve_sigref frame line) inst.Ast.i_args in
  let outs = List.map (resolve_sigref frame line) inst.Ast.i_outs in
  match classify_head settings line inst.Ast.i_head inst.Ast.i_props with
  | exception Invalid_argument msg -> fail "line %d: %s" line msg
  | P prim -> (
    try emit nl line inst.Ast.i_head prim args outs
    with Invalid_argument msg -> fail "line %d: %s" line msg)
  | Macro_call m ->
    counts.c_macros <- counts.c_macros + 1;
    let env =
      List.filter_map
        (fun (p : Ast.prop) ->
          match p.Ast.p_values with
          | [ v ] when Float.is_integer v -> Some (p.Ast.p_name, int_of_float v)
          | _ -> None)
        inst.Ast.i_props
    in
    let actuals = args @ outs in
    if List.length actuals <> List.length m.Ast.m_params then
      fail "line %d: macro %S expects %d connections, got %d" line m.Ast.m_name
        (List.length m.Ast.m_params) (List.length actuals);
    let bindings =
      List.map2
        (fun (formal : Ast.sigref) actual ->
          let fname = substitute_subscripts env m.Ast.m_line formal.Ast.name in
          counts.c_synonyms <- counts.c_synonyms + 1;
          (param_base fname, actual))
        m.Ast.m_params actuals
    in
    let frame' =
      {
        f_env = env;
        f_bindings = bindings;
        f_path = Printf.sprintf "%s$%s.%d" frame.f_path m.Ast.m_name line;
      }
    in
    List.iter (walk_instance settings nl counts frame' (depth + 1)) m.Ast.m_body

(* ---- the two reads ------------------------------------------------------------------------ *)

(* A statement source feeds each statement of a design to a callback, in
   textual order; it is read once per pass. *)
let run ?defaults (source : (Ast.top_stmt -> unit) -> (unit, string) result) =
  let ( let* ) = Result.bind in
  try
    let settings =
      { period_ns = None; clock_unit_ns = None; default_wire = (0.0, 2.0);
        wire_rule = None; corners = None; macros = Hashtbl.create 16 }
    in
    let t0 = Sys.time () in
    let* () = source (declare settings) in
    let pass1_s = Sys.time () -. t0 in
    let period_ns =
      match settings.period_ns with
      | Some p -> p
      | None -> fail "design has no PERIOD statement"
    in
    let clock_unit_ns =
      match settings.clock_unit_ns with Some u -> u | None -> period_ns /. 8.
    in
    let tb = Timebase.make ~period_ns ~clock_unit_ns in
    let wmin, wmax = settings.default_wire in
    let nl = Netlist.create tb ?defaults ~default_wire_delay:(Delay.of_ns wmin wmax) in
    let counts = { c_macros = 0; c_synonyms = 0 } in
    let deferred = ref [] in
    let t0 = Sys.time () in
    let* () =
      source (fun stmt ->
          match stmt with
          | Ast.Top_instance i -> walk_instance settings nl counts top_frame 0 i
          | Ast.Wire_delay _ | Ast.Width_decl _ -> deferred := stmt :: !deferred
          | Ast.Period _ | Ast.Clock_unit _ | Ast.Default_wire _ | Ast.Wire_rule _
          | Ast.Corners _ | Ast.Macro _ ->
            ())
    in
    (* Every primitive connection is a net, and nothing else is one until
       the declarations below run; every primitive is an instance. *)
    let n_signals = Netlist.n_nets nl in
    (* Wire-delay and width declarations apply in textual order, after
       every instance. *)
    List.iter
      (fun stmt ->
        match stmt with
        | Ast.Wire_delay (s, (a, b)) ->
          Netlist.set_wire_delay nl (Netlist.signal nl s.Ast.name) (Delay.of_ns a b)
        | Ast.Width_decl (s, w) -> Netlist.set_width nl (Netlist.signal nl s.Ast.name) w
        | _ -> ())
      (List.rev !deferred);
    (* The refined interconnection rule fills every remaining net from
       its fanout count (explicit WIRE DELAYs, /M locals and de-skewed
       clock runs keep their settings). *)
    (match settings.wire_rule with
    | None -> ()
    | Some ((b1, b2), (p1, p2)) ->
      ignore
        (Wire_rule.apply nl
           (Wire_rule.loaded ~base:(Delay.of_ns b1 b2) ~per_load:(Delay.of_ns p1 p2))));
    (match settings.corners with
    | None -> ()
    | Some entries -> Netlist.set_corners nl (corner_table_of entries));
    Netlist.trim nl;
    Ok
      {
        e_netlist = nl;
        e_pass1_s = pass1_s;
        e_pass2_s = Sys.time () -. t0;
        e_summary =
          {
            s_macros_expanded = counts.c_macros;
            s_primitives = Netlist.n_insts nl;
            s_signals = n_signals;
            s_synonyms = counts.c_synonyms;
          };
      }
  with
  | Expand_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let expand ?defaults design =
  run ?defaults (fun f ->
      List.iter f design;
      Ok ())

let expand_exn ?defaults design =
  match expand ?defaults design with
  | Ok e -> e
  | Error msg -> invalid_arg ("Sdl expand: " ^ msg)

let load ?defaults src = run ?defaults (Parser.iter_stream src)

let pp_summary ppf s =
  Format.fprintf ppf
    "macro expansions: %d  primitives: %d  signals: %d  synonyms resolved: %d"
    s.s_macros_expanded s.s_primitives s.s_signals s.s_synonyms
