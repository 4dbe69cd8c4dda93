(* The parser runs over the incremental lexer with a two-lexeme
   lookahead window — the grammar never needs more — so no token
   sequence is ever materialized. *)
type state = { cu : Lexer.cursor; mutable t0 : Lexer.lexeme; mutable t1 : Lexer.lexeme }

exception Parse_error of string

let make_state src =
  let cu = Lexer.cursor src in
  let t0 = Lexer.next cu in
  let t1 = match t0.Lexer.tok with Lexer.Eof -> t0 | _ -> Lexer.next cu in
  { cu; t0; t1 }

let fail_at line fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (Printf.sprintf "line %d: %s" line msg))) fmt

let fail st fmt = fail_at st.t0.Lexer.line fmt

let peek st = st.t0.Lexer.tok

let peek2 st = st.t1.Lexer.tok

let line st = st.t0.Lexer.line

let advance st =
  st.t0 <- st.t1;
  match st.t1.Lexer.tok with
  | Lexer.Eof -> ()
  | _ -> st.t1 <- Lexer.next st.cu

let expect st tok what =
  if peek st = tok then advance st
  else fail st "expected %s, found %a" what Lexer.pp_token (peek st)

let keyword_is w kw = String.uppercase_ascii w = kw

let starts_with_digit w = String.length w > 0 && match w.[0] with '0' .. '9' -> true | _ -> false

let has_assertion name =
  (* a " .P", " .C" or " .S" marker somewhere in the collected name *)
  let n = String.length name in
  let rec go i =
    if i + 2 >= n then false
    else if
      name.[i] = ' ' && name.[i + 1] = '.'
      && (match Char.uppercase_ascii name.[i + 2] with 'P' | 'C' | 'S' -> true | _ -> false)
    then true
    else go (i + 1)
  in
  go 0

(* ---- numbers ------------------------------------------------------------- *)

let parse_floats st w =
  let parts = String.split_on_char '/' w in
  List.map
    (fun p ->
      match float_of_string_opt p with
      | Some f -> f
      | None -> fail st "expected a number, found %S" p)
    parts

let parse_number st =
  match peek st with
  | Lexer.Word w ->
    advance st;
    (match parse_floats st w with
    | [ f ] -> f
    | _ -> fail st "expected a single number, found %S" w)
  | t -> fail st "expected a number, found %a" Lexer.pp_token t

(* A delay range: a single number stands for min = max.  Rejected here,
   where the statement's line is known, unless 0 <= min <= max. *)
let parse_pair st =
  let line = line st in
  let a, b =
    match peek st with
    | Lexer.Word w ->
      advance st;
      (match parse_floats st w with
      | [ a; b ] -> (a, b)
      | [ a ] -> (a, a)
      | _ -> fail st "expected min/max pair, found %S" w)
    | t -> fail st "expected min/max pair, found %a" Lexer.pp_token t
  in
  match Scald_core.Delay.of_ns a b with
  | _ -> (a, b)
  | exception Invalid_argument msg -> fail_at line "%s" msg

(* A PERIOD or CLOCK UNIT: a time the timebase can hold, of at least
   one picosecond — rejected here, where the statement's line is known. *)
let parse_period st what =
  let line = line st in
  let f = parse_number st in
  match Scald_core.Timebase.ps_of_ns f with
  | ps when ps > 0 -> f
  | _ -> fail_at line "%s must be at least 1 ps, found %g ns" what f
  | exception Invalid_argument msg -> fail_at line "%s: %s" what msg

(* Every integer up to 2^53 is exact as a float. *)
let max_width = 1 lsl 53

let parse_width st =
  let line = line st in
  let text = match peek st with Lexer.Word w -> w | _ -> "" in
  let n = parse_number st in
  if Float.is_integer n && n >= 1. && n <= float_of_int max_width then int_of_float n
  else fail_at line "WIDTH must be a whole number from 1 to 2^53, found %s" text

(* ---- signal references ------------------------------------------------------ *)

let parse_sigref st =
  let complement =
    match peek st with
    | Lexer.Minus ->
      advance st;
      true
    | _ -> false
  in
  let buf = Buffer.create 32 in
  let rec words () =
    match peek st with
    | Lexer.Word w ->
      advance st;
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf w;
      words ()
    | Lexer.Comma -> (
      (* A comma directly followed by a digit-initial word continues a
         multi-range assertion such as ".C2-3,5-6". *)
      match peek2 st with
      | Lexer.Word w when starts_with_digit w && has_assertion (Buffer.contents buf) ->
        advance st;
        advance st;
        Buffer.add_char buf ',';
        Buffer.add_string buf w;
        words ()
      | _ -> ())
    | _ -> ()
  in
  words ();
  if Buffer.length buf = 0 then fail st "expected a signal name, found %a" Lexer.pp_token (peek st);
  let scope =
    match peek st with
    | Lexer.Scope_p ->
      advance st;
      Ast.Param
    | Lexer.Scope_m ->
      advance st;
      Ast.Local
    | _ -> Ast.Global
  in
  let directive =
    match peek st with
    | Lexer.Amp d ->
      advance st;
      Some d
    | _ -> None
  in
  { Ast.complement; name = Buffer.contents buf; scope; directive }

let rec parse_sigref_list st acc =
  let s = parse_sigref st in
  match peek st with
  | Lexer.Comma ->
    advance st;
    parse_sigref_list st (s :: acc)
  | _ -> List.rev (s :: acc)

(* ---- properties ---------------------------------------------------------------- *)

let rec parse_props st acc =
  match peek st with
  | Lexer.Word name when peek2 st = Lexer.Equals ->
    advance st;
    advance st;
    let values =
      match peek st with
      | Lexer.Word w ->
        advance st;
        parse_floats st w
      | t -> fail st "expected property value, found %a" Lexer.pp_token t
    in
    let prop = { Ast.p_name = String.uppercase_ascii name; p_values = values } in
    (match peek st with
    | Lexer.Comma ->
      advance st;
      parse_props st (prop :: acc)
    | _ -> List.rev (prop :: acc))
  | t -> fail st "expected NAME=value property, found %a" Lexer.pp_token t

(* ---- instances -------------------------------------------------------------------- *)

let parse_head st =
  let buf = Buffer.create 16 in
  let rec words () =
    match peek st with
    | Lexer.Word w ->
      advance st;
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf w;
      words ()
    | _ -> ()
  in
  words ();
  if Buffer.length buf = 0 then
    fail st "expected a primitive or macro name, found %a" Lexer.pp_token (peek st);
  Buffer.contents buf

let parse_instance st =
  let i_line = line st in
  let head = parse_head st in
  expect st Lexer.Lparen "'('";
  (* Disambiguate a property group from the argument list: properties
     always start with NAME= . *)
  let props =
    match peek st, peek2 st with
    | Lexer.Word _, Lexer.Equals ->
      let props = parse_props st [] in
      expect st Lexer.Rparen "')' after properties";
      expect st Lexer.Lparen "'(' before arguments";
      props
    | _, _ -> []
  in
  let args = if peek st = Lexer.Rparen then [] else parse_sigref_list st [] in
  expect st Lexer.Rparen "')' after arguments";
  let outs =
    match peek st with
    | Lexer.Arrow ->
      advance st;
      parse_sigref_list st []
    | _ -> []
  in
  expect st Lexer.Semi "';'";
  { Ast.i_head = head; i_props = props; i_args = args; i_outs = outs; i_line }

(* ---- macro definitions --------------------------------------------------------------- *)

let parse_macro st =
  let m_line = line st in
  advance st;
  (* MACRO *)
  let name = parse_head st in
  expect st Lexer.Semi "';' after macro name";
  let params =
    match peek st with
    | Lexer.Word w when keyword_is w "PARAMETER" ->
      advance st;
      let ps = parse_sigref_list st [] in
      expect st Lexer.Semi "';' after parameters";
      ps
    | _ -> []
  in
  (match peek st with
  | Lexer.Word w when keyword_is w "BODY" -> advance st
  | t -> fail st "expected BODY, found %a" Lexer.pp_token t);
  let rec body acc =
    match peek st with
    | Lexer.Word w when keyword_is w "END" ->
      advance st;
      expect st Lexer.Semi "';' after END";
      List.rev acc
    | Lexer.Eof -> fail st "unterminated macro %s (missing END)" name
    | _ -> body (parse_instance st :: acc)
  in
  let m_body = body [] in
  { Ast.m_name = name; m_params = params; m_body; m_line }

(* ---- top level --------------------------------------------------------------------------- *)

let parse_paren_sigref st =
  expect st Lexer.Lparen "'('";
  let s = parse_sigref st in
  expect st Lexer.Rparen "')'";
  s

let parse_top st =
  match peek st with
  | Lexer.Word w when keyword_is w "MACRO" -> Ast.Macro (parse_macro st)
  | Lexer.Word w when keyword_is w "PERIOD" ->
    advance st;
    let f = parse_period st "PERIOD" in
    expect st Lexer.Semi "';'";
    Ast.Period f
  | Lexer.Word w
    when keyword_is w "CLOCK"
         && match peek2 st with Lexer.Word u -> keyword_is u "UNIT" | _ -> false ->
    advance st;
    advance st;
    let f = parse_period st "CLOCK UNIT" in
    expect st Lexer.Semi "';'";
    Ast.Clock_unit f
  | Lexer.Word w
    when keyword_is w "DEFAULT"
         && match peek2 st with Lexer.Word u -> keyword_is u "WIRE" | _ -> false ->
    advance st;
    advance st;
    (match peek st with
    | Lexer.Word d when keyword_is d "DELAY" -> advance st
    | t -> fail st "expected DELAY, found %a" Lexer.pp_token t);
    let a, b = parse_pair st in
    expect st Lexer.Semi "';'";
    Ast.Default_wire (a, b)
  | Lexer.Word w
    when keyword_is w "WIRE"
         && match peek2 st with Lexer.Word u -> keyword_is u "DELAY" | _ -> false ->
    advance st;
    advance st;
    let s = parse_paren_sigref st in
    expect st Lexer.Equals "'='";
    let a, b = parse_pair st in
    expect st Lexer.Semi "';'";
    Ast.Wire_delay (s, (a, b))
  | Lexer.Word w
    when keyword_is w "WIRE"
         && match peek2 st with Lexer.Word u -> keyword_is u "RULE" | _ -> false ->
    advance st;
    advance st;
    let base = parse_pair st in
    (match peek st, peek2 st with
    | Lexer.Word p1, Lexer.Word p2 when keyword_is p1 "PER" && keyword_is p2 "LOAD" ->
      advance st;
      advance st
    | _, _ -> fail st "expected PER LOAD after the base range");
    let per_load = parse_pair st in
    expect st Lexer.Semi "';'";
    Ast.Wire_rule (base, per_load)
  | Lexer.Word w when keyword_is w "CORNERS" ->
    advance st;
    let rec entries acc =
      match peek st with
      | Lexer.Word name ->
        let line = line st in
        advance st;
        let scales =
          match peek st with
          | Lexer.Equals -> (
            advance st;
            match peek st with
            | Lexer.Word v ->
              advance st;
              parse_floats st v
            | t -> fail st "expected corner scales, found %a" Lexer.pp_token t)
          | _ -> []
        in
        (* the factors' bounds are checked here, where the line is known *)
        (match
           match scales with
           | [ d ] -> Some (Scald_core.Corner.make ~name d)
           | [ d; w ] -> Some (Scald_core.Corner.make ~name d ~wire_scale:w)
           | _ -> None
         with
        | _ -> ()
        | exception Invalid_argument msg -> fail_at line "%s" msg);
        let e = (name, scales) in
        (match peek st with
        | Lexer.Comma ->
          advance st;
          entries (e :: acc)
        | _ -> List.rev (e :: acc))
      | t -> fail st "expected a corner name, found %a" Lexer.pp_token t
    in
    let es = entries [] in
    expect st Lexer.Semi "';'";
    Ast.Corners es
  | Lexer.Word w
    when keyword_is w "WIDTH" && peek2 st = Lexer.Lparen ->
    advance st;
    let s = parse_paren_sigref st in
    expect st Lexer.Equals "'='";
    let n = parse_width st in
    expect st Lexer.Semi "';'";
    Ast.Width_decl (s, n)
  | _ -> Ast.Top_instance (parse_instance st)

let iter_stream src f =
  try
    let st = make_state src in
    let rec go () =
      match peek st with
      | Lexer.Eof -> Ok ()
      | _ ->
        f (parse_top st);
        go ()
    in
    go ()
  with
  | Parse_error msg -> Error msg
  | Lexer.Lex_error msg -> Error msg

let parse src =
  let acc = ref [] in
  match iter_stream src (fun stmt -> acc := stmt :: !acc) with
  | Ok () -> Ok (List.rev !acc)
  | Error e -> Error e

let parse_exn src =
  match parse src with Ok d -> d | Error e -> invalid_arg ("Sdl parse: " ^ e)
