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

(* Raised by the single read when the text uses a declaration before it
   states it: the two reads then start over. *)
exception Restart

let fail fmt = Format.kasprintf (fun msg -> raise (Expand_error msg)) fmt

(* ---- size expressions in vector subscripts --------------------------------- *)

(* Every integer up to 2^53 is exact as a float.  The bound holds for each
   value a subscript names or computes, each vector's width and each size
   property, so no subscript arithmetic can wrap. *)
let max_size = 1 lsl 53

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
  let out_of_range () =
    fail "line %d: subscript %S is out of range (a value beyond 2^53 in magnitude)" line expr
  in
  let bounded v = if v < -max_size || v > max_size then out_of_range () else v in
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
    | Some i -> bounded i
    | None -> (
      match List.assoc_opt (String.uppercase_ascii word) env with
      | Some v -> v
      | None when String.for_all (fun c -> c >= '0' && c <= '9') word -> out_of_range ()
      | None -> fail "line %d: unbound size variable %S in %S" line word expr)
  in
  let rec term acc =
    skip ();
    match peek () with
    | Some '*' ->
      incr pos;
      let b = atom () in
      if b <> 0 && abs acc > max_size / abs b then out_of_range ();
      term (acc * b)
    | Some _ | None -> acc
  in
  let rec sum acc =
    skip ();
    match peek () with
    | Some '+' ->
      incr pos;
      sum (bounded (acc + term (atom ())))
    | Some '-' ->
      incr pos;
      sum (bounded (acc - term (atom ())))
    | Some _ | None -> acc
  in
  let result = sum (term (atom ())) in
  skip ();
  if !pos <> n then fail "line %d: trailing garbage in subscript %S" line expr;
  result

(* Whether every <...> group of [name] from [i] on already reads as
   [substitute_subscripts] would print it: one decimal literal, or two
   joined by ':', none with a leading zero ("<3>", "<0:31>").  At most 15
   digits keeps each value, and so each width, below 2^53. *)
let rec literal_subscripts name i =
  i = String.length name
  || if name.[i] = '<' then literal_digits name (i + 1) 0 false else literal_subscripts name (i + 1)

(* Inside a group: [k] digits of its current literal read so far, [colon]
   whether its ':' has been read. *)
and literal_digits name i k colon =
  i < String.length name
  &&
  match name.[i] with
  | '0' .. '9' ->
    k < 15 && (k <> 1 || name.[i - 1] <> '0') && literal_digits name (i + 1) (k + 1) colon
  | ':' -> k > 0 && (not colon) && literal_digits name (i + 1) 0 true
  | '>' -> k > 0 && literal_subscripts name (i + 1)
  | _ -> false

(* Rewrite every <...> group in a name, evaluating its expressions. *)
let substitute_subscripts env line name =
  if literal_subscripts name 0 then name
  else
    let n = String.length name in
    let buf = Buffer.create (n + 8) in
    let rec go i =
      if i >= n then Buffer.contents buf
      else if name.[i] = '<' then (
        match String.index_from_opt name i '>' with
        | None -> fail "line %d: unclosed '<' in signal name %S" line name
        | Some j ->
          let inside = String.sub name (i + 1) (j - i - 1) in
          Buffer.add_char buf '<';
          (match String.index_opt inside ':' with
          | None -> Buffer.add_string buf (string_of_int (eval_size_expr env line inside))
          | Some c ->
            (* the upper bound is evaluated first: of two bad bounds, it
               is the one reported *)
            let hi =
              eval_size_expr env line (String.sub inside (c + 1) (String.length inside - c - 1))
            in
            let lo = eval_size_expr env line (String.sub inside 0 c) in
            if abs (hi - lo) >= max_size then
              fail "line %d: subscript <%s> is wider than 2^53" line inside;
            Buffer.add_string buf (string_of_int lo);
            Buffer.add_char buf ':';
            Buffer.add_string buf (string_of_int hi));
          Buffer.add_char buf '>';
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

(* The first of [bases] from [k] on that is [base], or -1. *)
let rec formal_index bases base k =
  if k = Array.length bases then -1
  else if String.equal bases.(k) base then k
  else formal_index bases base (k + 1)

(* ---- declarations ------------------------------------------------------------- *)

(* The settings also hold the run's caches: a macro's calls share what
   its definition fixes, and a spelling is parsed once. *)
type settings = {
  single : bool;  (* one read: a macro may not be defined yet *)
  mutable period_ns : (float * int) option;  (* and its statement's line *)
  mutable clock_unit_ns : float option;
  mutable default_wire : float * float;
  mutable wire_rule : ((float * float) * (float * float)) option;
  mutable corners : (string * float list) list option;
  macros : (string, macro) Hashtbl.t;
  spellings : (string, int) Hashtbl.t;
      (* each spelling that is not its own net key (one with an
         assertion, say) and its net *)
}

and macro = {
  m_def : Ast.macro_def;
  m_bases : string array;  (* each formal's base *)
  m_body : slot array;
}

(* A body line, or a top-level instance, and what it stands for: filled
   at its first expansion and shared by every later one, so a macro that
   is never called is never classified. *)
and slot = { s_inst : Ast.instance; mutable s_head : head option }

and head =
  | P of Primitive.t * string  (* the primitive and its instance name, head.line *)
  | Macro_call of macro * (string * int) list  (* the macro and the call's size variables *)

let macro_of (m : Ast.macro_def) =
  {
    m_def = m;
    m_bases = Array.of_list (List.map (fun (p : Ast.sigref) -> param_base p.Ast.name) m.Ast.m_params);
    m_body = Array.of_list (List.map (fun i -> { s_inst = i; s_head = None }) m.Ast.m_body);
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

(* Record one declaration: a setting (the last statement of each kind
   wins) or a macro. *)
let declare s stmt =
  match stmt with
  | Ast.Period (p, line) -> s.period_ns <- Some (p, line)
  | Ast.Clock_unit u -> s.clock_unit_ns <- Some u
  | Ast.Default_wire (a, b) -> s.default_wire <- (a, b)
  | Ast.Wire_rule (base, per_load) -> s.wire_rule <- Some (base, per_load)
  | Ast.Corners cs -> s.corners <- Some cs
  | Ast.Macro m ->
    if Hashtbl.mem s.macros m.Ast.m_name then
      fail "line %d: macro %S defined twice" m.Ast.m_line m.Ast.m_name;
    Hashtbl.add s.macros m.Ast.m_name (macro_of m)
  | Ast.Wire_delay _ | Ast.Width_decl _ | Ast.Top_instance _ -> ()

(* ---- resolved signal references ------------------------------------------------ *)

(* The net an actual names.  Its id is looked up at the first use and
   kept, so nets are created in the order of their first use, and every
   later reference through the same binding costs nothing. *)
type actual = {
  a_name : string;
  a_local : bool;  (* a /M macro-local: chip-internal, zero wire delay *)
  mutable a_id : int;  (* -1 until first used *)
}

type binding = {
  b_actual : actual;
  b_complement : bool;
  b_directive : string option;
}

type frame =
  | Top
  | Call of call

and call = {
  c_macro : macro;
  c_line : int;
  c_env : (string * int) list;  (* size variables *)
  c_bindings : binding array;  (* by formal *)
  c_caller : frame;
  mutable c_path : string;  (* the unique prefix of its /M locals; "" until one asks *)
}

let rec path = function
  | Top -> ""
  | Call c ->
    if c.c_path = "" then
      c.c_path <-
        String.concat ""
          [ path c.c_caller; "$"; c.c_macro.m_def.Ast.m_name; "."; string_of_int c.c_line ];
    c.c_path

let fresh name ~local (s : Ast.sigref) =
  {
    b_actual = { a_name = name; a_local = local; a_id = -1 };
    b_complement = s.Ast.complement;
    b_directive = s.Ast.directive;
  }

let resolve_sigref frame line (s : Ast.sigref) =
  let env = match frame with Top -> [] | Call c -> c.c_env in
  let name = substitute_subscripts env line s.Ast.name in
  match s.Ast.scope, frame with
  | Ast.Param, Call c -> (
    let bases = c.c_macro.m_bases in
    (* a name that is itself a formal's base is its own base *)
    let formal =
      match formal_index bases name 0 with
      | -1 -> formal_index bases (param_base name) 0
      | k -> k
    in
    if formal < 0 then fail "line %d: %S is not a parameter of this macro" line (param_base name);
    let b = c.c_bindings.(formal) in
    match s.Ast.complement, s.Ast.directive with
    | false, None -> b
    | complement, directive ->
      {
        b with
        b_complement = complement <> b.b_complement;
        b_directive = (match directive with Some _ -> directive | None -> b.b_directive);
      })
  | Ast.Local, Call _ -> fresh (path frame ^ "$" ^ name) ~local:true s
  (* a /P or /M reference outside any macro is just a global *)
  | (Ast.Param | Ast.Local | Ast.Global), _ -> fresh name ~local:false s

(* ---- primitive heads --------------------------------------------------------------- *)

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

let primitive line head props =
  let upper = String.uppercase_ascii head in
  let words = String.split_on_char ' ' upper in
  match words with
  | [ "REG" ] -> Some (Primitive.Reg { delay = prop_delay props line; has_set_reset = false })
  | [ "REG"; "RS" ] ->
    Some (Primitive.Reg { delay = prop_delay props line; has_set_reset = true })
  | [ "LATCH" ] ->
    Some (Primitive.Latch { delay = prop_delay props line; has_set_reset = false })
  | [ "LATCH"; "RS" ] ->
    Some (Primitive.Latch { delay = prop_delay props line; has_set_reset = true })
  | [ "ZERO" ] -> Some (Primitive.Const Tvalue.V0)
  | [ "ONE" ] -> Some (Primitive.Const Tvalue.V1)
  | [ "BUF" ] -> Some (Primitive.Buf { invert = false; delay = prop_delay props line })
  | [ "NOT" ] -> Some (Primitive.Buf { invert = true; delay = prop_delay props line })
  | [ "2"; "MUX" ] ->
    let select_extra =
      match prop_pair props "SELDELAY" with
      | Some (a, b) -> Delay.of_ns a b
      | None -> Delay.zero
    in
    Some (Primitive.Mux2 { delay = prop_delay props line; select_extra })
  | [ "SETUP"; "HOLD"; "CHK" ] ->
    Some
      (Primitive.Setup_hold_check
         { setup = prop_time props "SETUP" 0; hold = prop_time props "HOLD" 0 })
  | [ "SETUP"; "RISE"; "HOLD"; "FALL"; "CHK" ] ->
    Some
      (Primitive.Setup_rise_hold_fall_check
         { setup = prop_time props "SETUP" 0; hold = prop_time props "HOLD" 0 })
  | [ "MIN"; "PULSE"; "WIDTH" ] ->
    let high, low =
      match prop_pair props "WIDTH" with
      | Some (a, b) -> (Timebase.ps_of_ns a, Timebase.ps_of_ns b)
      | None -> (0, 0)
    in
    Some (Primitive.Min_pulse_width { high; low })
  | [ n; g ] when gate_fn_of_string g <> None && int_of_string_opt n <> None -> (
    match gate_fn_of_string g, int_of_string_opt n with
    | Some (fn, invert), Some n_inputs ->
      Some (Primitive.Gate { fn; n_inputs; invert; delay = prop_delay props line })
    | _, _ -> assert false)
  | _ -> None

(* A macro call's integral properties are its size variables. *)
let size_env line props =
  List.filter_map
    (fun (p : Ast.prop) ->
      match p.Ast.p_values with
      | [ v ] when Float.is_integer v ->
        if Float.abs v > float_of_int max_size then
          fail "line %d: size property %s=%g is beyond 2^53 in magnitude" line p.Ast.p_name v;
        Some (p.Ast.p_name, int_of_float v)
      | _ -> None)
    props

(* What an instance line stands for.  Every check here reads the line
   alone (and the macro table), so it runs at the line's first expansion
   only; a later call of the same body line cannot fail it. *)
let classify settings (inst : Ast.instance) =
  let line = inst.Ast.i_line and head = inst.Ast.i_head in
  match primitive line head inst.Ast.i_props with
  | Some prim -> P (prim, head ^ "." ^ string_of_int line)
  | None -> (
    match Hashtbl.find_opt settings.macros head with
    | None when settings.single -> raise Restart
    | None -> fail "line %d: unknown primitive or macro %S" line head
    | Some m ->
      let def = m.m_def in
      let env = size_env line inst.Ast.i_props in
      let expected = Array.length m.m_bases in
      let got = List.length inst.Ast.i_args + List.length inst.Ast.i_outs in
      if got <> expected then
        fail "line %d: macro %S expects %d connections, got %d" line def.Ast.m_name expected got;
      (* the formals' subscripts must evaluate under the call's sizes *)
      List.iter
        (fun (formal : Ast.sigref) ->
          ignore (substitute_subscripts env def.Ast.m_line formal.Ast.name))
        def.Ast.m_params;
      Macro_call (m, env))

(* ---- netlist construction ---------------------------------------------------------------- *)

type counts = {
  mutable c_macros : int;
  mutable c_synonyms : int;
}

(* The net of a spelling.  A plain name is its own key, which
   {!Netlist.plain_signal} finds without parsing; any other spelling is
   parsed once per run. *)
let net_of_name settings nl name =
  if Signal_name.is_plain name then Netlist.plain_signal nl name
  else
    match Hashtbl.find settings.spellings name with
    | id -> id
    | exception Not_found ->
      let id = Netlist.signal nl name in
      Hashtbl.add settings.spellings name id;
      id

let net settings nl a =
  if a.a_id < 0 then a.a_id <- net_of_name settings nl a.a_name;
  a.a_id

let conn_of_binding settings nl b =
  let directive =
    match b.b_directive with
    | None -> []
    | Some d -> Directive.of_string_exn d
  in
  let id = net settings nl b.b_actual in
  if b.b_actual.a_local then Netlist.set_wire_delay nl id Delay.zero;
  Netlist.conn ~invert:b.b_complement ~directive id

let emit settings nl line name prim args outs =
  let inputs = List.map (conn_of_binding settings nl) args in
  let output =
    match outs with
    | [] -> None
    | [ o ] ->
      if o.b_complement then fail "line %d: complemented output is not supported" line
      else Some (net settings nl o.b_actual)
    | _ -> fail "line %d: primitives have at most one output" line
  in
  ignore (Netlist.add nl ~name prim ~inputs ~output)

let max_depth = 64

(* Expand one instance into [nl]: a primitive is emitted at once, a
   macro call walks its body under a frame that binds each formal to
   its actual.  A library rejection (a bad delay pair, directive or
   signal name) is reported at the instance's own line — for a nested
   instance, its line in the macro body. *)
let rec walk_instance settings nl counts frame depth slot =
  let inst = slot.s_inst in
  let line = inst.Ast.i_line in
  if depth > max_depth then
    fail "line %d: macro expansion deeper than %d (recursive macro?)" line max_depth;
  let args = List.map (resolve_sigref frame line) inst.Ast.i_args in
  let outs = List.map (resolve_sigref frame line) inst.Ast.i_outs in
  let head =
    match slot.s_head with
    | Some h -> h
    | None ->
      let h = try classify settings inst with Invalid_argument msg -> fail "line %d: %s" line msg in
      slot.s_head <- Some h;
      h
  in
  match head with
  | P (prim, name) -> (
    try emit settings nl line name prim args outs
    with Invalid_argument msg -> fail "line %d: %s" line msg)
  | Macro_call (m, env) ->
    counts.c_macros <- counts.c_macros + 1;
    counts.c_synonyms <- counts.c_synonyms + Array.length m.m_bases;
    let call =
      Call
        {
          c_macro = m;
          c_line = line;
          c_env = env;
          c_bindings = Array.of_list (args @ outs);
          c_caller = frame;
          c_path = "";
        }
    in
    for k = 0 to Array.length m.m_body - 1 do
      walk_instance settings nl counts call (depth + 1) m.m_body.(k)
    done

(* ---- the reads ---------------------------------------------------------------------------- *)

(* The netlist the timing settings describe. *)
let create_netlist ?defaults s =
  let period_ns, period_line =
    match s.period_ns with
    | Some p -> p
    | None -> fail "design has no PERIOD statement"
  in
  let clock_unit_ns =
    match s.clock_unit_ns with
    | Some u -> u
    | None when Timebase.ps_of_ns (period_ns /. 8.) < 1 ->
      fail "line %d: the default CLOCK UNIT (PERIOD/8) is below 1 ps" period_line
    | None when not (Timebase.is_whole_ps (period_ns /. 8.)) ->
      fail "line %d: the default CLOCK UNIT (PERIOD/8) is %g ns, not a whole number of ps"
        period_line (period_ns /. 8.)
    | None -> period_ns /. 8.
  in
  let wmin, wmax = s.default_wire in
  Netlist.create (Timebase.make ~period_ns ~clock_unit_ns) ?defaults
    ~default_wire_delay:(Delay.of_ns wmin wmax)

(* A statement source feeds each statement of a design to a callback, in
   textual order.  [single] reads it once, declaring each statement as it
   arrives and creating the netlist at the first top-level instance; it
   raises [Restart] where the text uses a declaration before stating it.
   Otherwise a declaration read precedes the expanding one.  Either way
   each top-level instance is expanded as it arrives, and the first
   instance error is held until the read ends, so a parse or declaration
   error later in the text wins. *)
let read ?defaults ~t0 ~single source =
  let ( let* ) = Result.bind in
  let s =
    { single; period_ns = None; clock_unit_ns = None; default_wire = (0.0, 2.0);
      wire_rule = None; corners = None; macros = Hashtbl.create 16;
      spellings = Hashtbl.create 64 }
  in
  let counts = { c_macros = 0; c_synonyms = 0 } in
  let nl = ref None and t1 = ref t0 and held = ref None and deferred = ref [] in
  let create () =
    let n = create_netlist ?defaults s in
    nl := Some n;
    t1 := Sys.time ();
    n
  in
  let expand nl i =
    if !held = None then
      try walk_instance s nl counts Top 0 { s_inst = i; s_head = None }
      with Expand_error m | Invalid_argument m -> held := Some m
  in
  let* () = if single then Ok () else source (declare s) in
  if not single then ignore (create ());
  let* () =
    source (fun stmt ->
        match stmt, !nl with
        | Ast.Top_instance i, Some nl -> expand nl i
        | Ast.Top_instance i, None ->
          expand (try create () with Expand_error _ | Invalid_argument _ -> raise Restart) i
        | (Ast.Wire_delay _ | Ast.Width_decl _), _ -> deferred := stmt :: !deferred
        | _, _ when not single -> ()
        | (Ast.Period _ | Ast.Clock_unit _ | Ast.Default_wire _), Some _ -> raise Restart
        | _, _ -> declare s stmt)
  in
  match !held with
  | Some m -> Error m
  | None ->
    let nl = match !nl with Some n -> n | None -> create () in
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
    (match s.wire_rule with
    | None -> ()
    | Some ((b1, b2), (p1, p2)) ->
      ignore
        (Wire_rule.apply nl
           (Wire_rule.loaded ~base:(Delay.of_ns b1 b2) ~per_load:(Delay.of_ns p1 p2))));
    (match s.corners with
    | None -> ()
    | Some entries -> Netlist.set_corners nl (corner_table_of entries));
    Netlist.trim nl;
    Ok
      {
        e_netlist = nl;
        e_pass1_s = !t1 -. t0;
        e_pass2_s = Sys.time () -. !t1;
        e_summary =
          {
            s_macros_expanded = counts.c_macros;
            s_primitives = Netlist.n_insts nl;
            s_signals = n_signals;
            s_synonyms = counts.c_synonyms;
          };
      }

let run ?defaults source =
  let t0 = Sys.time () in
  try
    try read ?defaults ~t0 ~single:true source
    with Restart -> read ?defaults ~t0 ~single:false source
  with Expand_error msg | Invalid_argument msg -> Error msg

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
