type case = (string * Tvalue.t) list

let parse text =
  (* An error names the line of the assignment it is about: the first
     non-blank character of [piece], which starts at offset [pos]. *)
  let error pos piece msg =
    let rec blanks i =
      if i < String.length piece && String.contains " \t\r\n" piece.[i] then blanks (i + 1)
      else i
    in
    let line = ref 1 in
    for i = 0 to pos + blanks 0 - 1 do
      if text.[i] = '\n' then incr line
    done;
    Error (Printf.sprintf "line %d: %s" !line msg)
  in
  let parse_assignment s =
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "case assignment missing '=': %S" s)
    | Some i ->
      let name = String.trim (String.sub s 0 i) in
      let value = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if name = "" then Error "case assignment with empty signal name"
      else (
        match value with
        | "0" -> Ok (name, Tvalue.V0)
        | "1" -> Ok (name, Tvalue.V1)
        | v -> Error (Printf.sprintf "case value must be 0 or 1, got %S" v))
  in
  (* [pos] is the offset of group [g] in the text. *)
  let parse_group pos g =
    (* A signal assigned twice within one case is a specification error:
       the evaluator would silently let the last write win. *)
    let rec go acc pos = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        let next = pos + String.length p + 1 in
        let s = String.trim p in
        if s = "" then go acc next rest
        else
          match parse_assignment s with
          | Error e -> error pos p e
          | Ok ((name, _) as a) ->
            if List.mem_assoc name acc then
              error pos p
                (Printf.sprintf "duplicate assignment for signal %S within one case" name)
            else go (a :: acc) next rest)
    in
    go [] pos (String.split_on_char ',' g)
  in
  let rec go acc pos = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
      let next = pos + String.length g + 1 in
      match parse_group pos g with
      | Ok [] -> go acc next rest
      | Ok c -> go (c :: acc) next rest
      | Error e -> Error e)
  in
  go [] 0 (String.split_on_char ';' text)

let parse_exn text =
  match parse text with Ok cs -> cs | Error e -> invalid_arg ("Case_analysis.parse: " ^ e)

let resolve nl case =
  let unknown =
    List.filter_map
      (fun (name, _) ->
        match Netlist.find nl name with Some _ -> None | None -> Some name)
      case
  in
  (match unknown with
  | [] -> ()
  | names ->
    (* Report every unknown name at once: a designer fixing a case file
       should not have to re-run once per typo. *)
    invalid_arg
      (Printf.sprintf "Case_analysis.resolve: unknown signal%s %s"
         (if List.length names = 1 then "" else "s")
         (String.concat ", " (List.map (Printf.sprintf "%S") names))));
  List.map
    (fun (name, v) ->
      match Netlist.find nl name with
      | Some id -> (id, v)
      | None -> assert false)
    case

let max_controls = 16

let dedup_names names =
  let rec go seen = function
    | [] -> []
    | n :: rest -> if List.mem n seen then go seen rest else n :: go (n :: seen) rest
  in
  go [] names

let complete names =
  (* A repeated control would otherwise yield contradictory assignments
     of both 0 and 1 to the same signal within one case. *)
  let names = dedup_names names in
  let n = List.length names in
  if n > max_controls then
    Error
      (Printf.sprintf
         "Case_analysis.complete: %d control signals expand to 2^%d cases; the limit is \
          %d controls"
         n n max_controls)
  else
    Ok
      (List.init (1 lsl n) (fun bits ->
           List.mapi
             (fun i name ->
               (name, if bits land (1 lsl i) <> 0 then Tvalue.V1 else Tvalue.V0))
             names))

let complete_exn names =
  match complete names with Ok cs -> cs | Error e -> invalid_arg e

let pp ppf case =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (name, v) -> Format.fprintf ppf "%s = %a" name Tvalue.pp v)
    ppf case
