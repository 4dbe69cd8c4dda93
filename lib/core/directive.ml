type letter = E | W | Z | A | H

type t = letter list

let letter_of_char c =
  match Char.uppercase_ascii c with
  | 'E' -> Some E
  | 'W' -> Some W
  | 'Z' -> Some Z
  | 'A' -> Some A
  | 'H' -> Some H
  | _ -> None

let char_of_letter = function E -> 'E' | W -> 'W' | Z -> 'Z' | A -> 'A' | H -> 'H'

let of_string s =
  let s =
    if String.length s > 0 && s.[0] = '&' then String.sub s 1 (String.length s - 1) else s
  in
  let rec go i acc =
    if i >= String.length s then Ok (List.rev acc)
    else
      match letter_of_char s.[i] with
      | Some l -> go (i + 1) (l :: acc)
      | None -> Error (Printf.sprintf "bad directive letter '%c'" s.[i])
  in
  go 0 []

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg ("Directive.of_string: " ^ e)

let to_string t =
  let b = Bytes.create (List.length t) in
  List.iteri (fun i l -> Bytes.unsafe_set b i (char_of_letter l)) t;
  Bytes.unsafe_to_string b

let head = function [] -> E | l :: _ -> l

let zero_wire = function W | Z | H -> true | E | A -> false

let zero_gate = function Z | H -> true | E | W | A -> false

let check_hazard = function A | H -> true | E | W | Z -> false

let pp ppf t = Format.fprintf ppf "&%s" (to_string t)
