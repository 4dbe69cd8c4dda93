(* A deliberately small JSON codec.  The repo takes no third-party
   dependencies, and nothing it reads or writes needs more than objects,
   arrays, strings and numbers — so this is a plain recursive-descent
   parser over a string and a compact printer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at %d: %s" pos msg))

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected %c" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Encode a Unicode scalar as UTF-8; surrogate pairs are not recombined
   (each half is encoded separately) — good enough for the ASCII-heavy
   protocol, and never wrong for the strings we emit ourselves. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
          let u = ref 0 in
          for _ = 1 to 4 do
            let d = hex_digit st.s.[st.pos] in
            if d < 0 then fail st.pos "bad \\u escape";
            u := (!u * 16) + d;
            advance st
          done;
          add_utf8 buf !u
        | _ -> fail (st.pos - 1) "bad escape"));
      go ()
    | Some c when Char.code c < 0x20 -> fail st.pos "control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while pred =
    let rec go () =
      match peek st with
      | Some c when pred c ->
        advance st;
        go ()
      | _ -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (fun c -> c >= '0' && c <= '9');
  (match peek st with
  | Some '.' ->
    advance st;
    consume_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_while (fun c -> c >= '0' && c <= '9')
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail start "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st.pos "expected , or }"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st.pos "expected , or ]"
      in
      List (elements [])
    end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Parse_error msg -> Error msg

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s -> escape buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

let to_lines v =
  let block opening closing = function
    | [] -> Printf.sprintf "%c%c\n" opening closing
    | lines -> Printf.sprintf "%c\n  %s\n%c\n" opening (String.concat ",\n  " lines) closing
  in
  match v with
  | Obj kvs -> block '{' '}' (List.map (fun (k, v) -> to_string (Str k) ^ ":" ^ to_string v) kvs)
  | List vs -> block '[' ']' (List.map to_string vs)
  | v -> to_string v ^ "\n"

(* ---- accessors ----------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

(* 2^53: beyond it a float no longer holds every integer, and beyond
   2^62 [int_of_float] wraps.  Every accepted number round-trips. *)
let max_exact_int = 9007199254740992.

let int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact_int -> Some (int_of_float f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
let list = function List vs -> Some vs | _ -> None

let of_int i = Num (float_of_int i)
