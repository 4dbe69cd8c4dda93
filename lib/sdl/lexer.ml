type token =
  | Word of string
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Arrow
  | Equals
  | Minus
  | Scope_p
  | Scope_m
  | Amp of string
  | Eof

type lexeme = { tok : token; line : int }

let pp_token ppf = function
  | Word w -> Format.fprintf ppf "%S" w
  | Lparen -> Format.pp_print_string ppf "("
  | Rparen -> Format.pp_print_string ppf ")"
  | Comma -> Format.pp_print_string ppf ","
  | Semi -> Format.pp_print_string ppf ";"
  | Arrow -> Format.pp_print_string ppf "->"
  | Equals -> Format.pp_print_string ppf "="
  | Minus -> Format.pp_print_string ppf "-"
  | Scope_p -> Format.pp_print_string ppf "/P"
  | Scope_m -> Format.pp_print_string ppf "/M"
  | Amp d -> Format.fprintf ppf "&%s" d
  | Eof -> Format.pp_print_string ppf "<eof>"

(* '+' and '*' (with '-', below) spell the sums and products of vector
   subscripts such as "I<0:2*SIZE-1>". *)
let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '<' | '>' | ':' | '+' | '*' | '_' | '$' | '#' ->
    true
  | _ -> false

let is_letter c = match c with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false

(* ---- incremental cursor ------------------------------------------------ *)

(* One token at a time over the source string: nothing but the source
   itself is retained, so a streaming consumer never materializes the
   token sequence (a million-primitive design has tens of millions of
   tokens — the old list-then-array pipeline dominated peak RSS). *)

type cursor = { src : string; len : int; mutable pos : int; mutable line : int }

let cursor src = { src; len = String.length src; pos = 0; line = 1 }

exception Lex_error of string

let word_end cu i =
  let src = cu.src and n = cu.len in
  let rec go i =
    if i >= n then i
    else
      let c = src.[i] in
      if is_word_char c then go (i + 1)
      else if
        (* '-' continues a word when glued between word characters:
           "P2-3", "SIZE-1", "-1.0" after the leading digit context. *)
        c = '-' && i + 1 < n && is_word_char src.[i + 1] && src.[i + 1] <> '>'
      then go (i + 1)
      else if
        (* '/' continues a word when it separates two numbers:
           "1.0/3.8"; "/P" and "/M" are scope tokens instead. *)
        c = '/' && i + 1 < n
        && (match src.[i + 1] with '0' .. '9' | '-' | '.' -> true | _ -> false)
      then go (i + 1)
      else i
  in
  go i

(* Raises [Lex_error]; returns [Eof] lexemes forever once exhausted. *)
let next cu =
  let src = cu.src and n = cu.len in
  let rec go i =
    if i >= n then begin
      cu.pos <- i;
      { tok = Eof; line = cu.line }
    end
    else
      let emit tok j =
        cu.pos <- j;
        { tok; line = cu.line }
      in
      let c = src.[i] in
      match c with
      | '\n' ->
        cu.line <- cu.line + 1;
        go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
        (* comment to end of line *)
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '-' when i + 1 < n && src.[i + 1] = '>' -> emit Arrow (i + 2)
      | '-' when i + 1 < n && is_word_char src.[i + 1] ->
        (* a glued "-1.0" negative number or "-WE" complement-as-word;
           lex as one word, the parser splits complements. *)
        let j = word_end cu (i + 1) in
        emit (Word (String.sub src i (j - i))) j
      | '-' -> emit Minus (i + 1)
      | '(' -> emit Lparen (i + 1)
      | ')' -> emit Rparen (i + 1)
      | ',' -> emit Comma (i + 1)
      | ';' -> emit Semi (i + 1)
      | '=' -> emit Equals (i + 1)
      | '/' when i + 1 < n && (src.[i + 1] = 'P' || src.[i + 1] = 'p') ->
        emit Scope_p (i + 2)
      | '/' when i + 1 < n && (src.[i + 1] = 'M' || src.[i + 1] = 'm') ->
        emit Scope_m (i + 2)
      | '&' ->
        let rec dend j = if j < n && is_letter src.[j] then dend (j + 1) else j in
        let j = dend (i + 1) in
        if j = i + 1 then
          raise (Lex_error (Printf.sprintf "line %d: '&' with no directive letters" cu.line))
        else emit (Amp (String.sub src (i + 1) (j - i - 1))) j
      | c when is_word_char c ->
        let j = word_end cu i in
        emit (Word (String.sub src i (j - i))) j
      | c ->
        raise (Lex_error (Printf.sprintf "line %d: unexpected character %C" cu.line c))
  in
  go cu.pos

let tokenize src =
  let cu = cursor src in
  let out = ref [] in
  try
    let rec go () =
      let lx = next cu in
      out := lx :: !out;
      match lx.tok with Eof -> Ok (List.rev !out) | _ -> go ()
    in
    go ()
  with Lex_error msg -> Error msg
