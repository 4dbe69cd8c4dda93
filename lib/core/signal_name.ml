type t = {
  base : string;
  vector : (int * int) option;
  assertion : Assertion.t option;
  complemented : bool;
}

let trim = String.trim

(* Find the start of an assertion suffix: the last '.' that is followed
   by P, C or S and then a character that can begin an assertion spec
   (digit, space, or '(').  This allows periods inside names and decimal
   points inside the spec itself. *)
let split_assertion s =
  let n = String.length s in
  let is_kind c = match Char.uppercase_ascii c with 'P' | 'C' | 'S' -> true | _ -> false in
  let can_start c =
    match c with '0' .. '9' | ' ' | '(' -> true | _ -> false
  in
  let rec find i best =
    if i >= n - 1 then best
    else if
      s.[i] = '.' && is_kind s.[i + 1]
      && (i + 2 >= n || can_start s.[i + 2])
      && (i = 0 || s.[i - 1] = ' ')
    then find (i + 1) (Some i)
    else find (i + 1) best
  in
  match find 0 None with
  | None -> (s, None)
  | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (n - i - 1)))

let split_vector base =
  let n = String.length base in
  if n = 0 || base.[n - 1] <> '>' then (base, None)
  else
    match String.rindex_opt base '<' with
    | None -> (base, None)
    | Some lt ->
      let inside = String.sub base (lt + 1) (n - lt - 2) in
      (match String.index_opt inside ':' with
      | None -> (
        match int_of_string_opt (trim inside) with
        | Some b -> (base, Some (b, b))
        | None -> (base, None))
      | Some colon ->
        let lo = trim (String.sub inside 0 colon) in
        let hi = trim (String.sub inside (colon + 1) (String.length inside - colon - 1)) in
        (match int_of_string_opt lo, int_of_string_opt hi with
        | Some a, Some b -> (base, Some (a, b))
        | _, _ -> (base, None)))

let parse s =
  let s = trim s in
  if s = "" then Error "empty signal name"
  else
    let complemented, s =
      if String.length s >= 1 && s.[0] = '-' then
        (true, trim (String.sub s 1 (String.length s - 1)))
      else (false, s)
    in
    let body, assertion_text = split_assertion s in
    let body = trim body in
    if body = "" then Error "signal name has no base"
    else
      let base, vector = split_vector body in
      match assertion_text with
      | None -> Ok { base; vector; assertion = None; complemented }
      | Some spec -> (
        match Assertion.parse spec with
        | Ok a -> Ok { base; vector; assertion = Some a; complemented }
        | Error e -> Error (Printf.sprintf "%s: bad assertion: %s" base e))

let parse_exn s =
  match parse s with Ok t -> t | Error e -> invalid_arg ("Signal_name.parse: " ^ e)

let width t =
  match t.vector with
  | None -> 1
  | Some (a, b) -> abs (b - a) + 1

let to_string t =
  let buf = Buffer.create 32 in
  if t.complemented then Buffer.add_string buf "- ";
  Buffer.add_string buf t.base;
  (match t.assertion with
  | None -> ()
  | Some a ->
    Buffer.add_string buf " .";
    Buffer.add_string buf (Assertion.to_string a));
  Buffer.contents buf

let key t =
  match t.assertion with
  | None -> t.base
  | Some a -> t.base ^ " ." ^ Assertion.to_string a

(* No leading '-' (a complement), no '.' that [split_assertion] could
   take (one at the start or after a blank), and nothing [trim] removes. *)
let rec no_marker s i =
  i + 1 >= String.length s || ((s.[i] <> ' ' || s.[i + 1] <> '.') && no_marker s (i + 1))

let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_plain s =
  let n = String.length s in
  n > 0 && s.[0] <> '-' && s.[0] <> '.' && (not (is_blank s.[0])) && (not (is_blank s.[n - 1]))
  && no_marker s 0

let pp ppf t = Format.pp_print_string ppf (to_string t)
