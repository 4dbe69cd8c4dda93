type t = { name : string; delay_scale : float; wire_scale : float }

type table = t array

let typ = { name = "typ"; delay_scale = 1.0; wire_scale = 1.0 }

let default : table = [| typ |]

let max_scale = 1000.

let check_scale name what f =
  if not (f > 0.0 && f <= max_scale) then
    invalid_arg
      (Printf.sprintf "Corner.make: corner %s needs a %s scale in (0, %g], got %g" name
         what max_scale f)

let make ?(wire_scale = nan) ~name delay_scale =
  if name = "" then invalid_arg "Corner.make: empty name";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> ()
      | _ -> invalid_arg (Printf.sprintf "Corner.make: bad character in name %S" name))
    name;
  check_scale name "delay" delay_scale;
  let wire_scale = if Float.is_nan wire_scale then delay_scale else wire_scale in
  check_scale name "wire" wire_scale;
  { name; delay_scale; wire_scale }

let is_reference c = c.delay_scale = 1.0 && c.wire_scale = 1.0

let equal a b =
  a.name = b.name && a.delay_scale = b.delay_scale && a.wire_scale = b.wire_scale

let table_equal a b = Array.length a = Array.length b && Array.for_all2 equal a b

let validate_table (tbl : table) =
  if Array.length tbl = 0 then invalid_arg "Corner: a corner table cannot be empty";
  let seen = Hashtbl.create 7 in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c.name then
        invalid_arg (Printf.sprintf "Corner: duplicate corner name %s" c.name);
      Hashtbl.add seen c.name ())
    tbl

let scale_delay c d = Delay.scale c.delay_scale d

(* the presets a bare name on the CLI expands to *)
let presets = [ ("slow", 1.25); ("typ", 1.0); ("fast", 0.8) ]

let parse_spec spec =
  let corner_of_part part =
    match String.index_opt part '=' with
    | None -> (
      let name = String.trim part in
      match List.assoc_opt (String.lowercase_ascii name) presets with
      | Some s -> make ~name s
      | None ->
        invalid_arg
          (Printf.sprintf
             "Corner.of_spec: unknown corner %S (known presets: slow, typ, fast; \
              or give scales as name=dscale[/wscale])"
             name))
    | Some i -> (
      let name = String.trim (String.sub part 0 i) in
      let scales = String.sub part (i + 1) (String.length part - i - 1) in
      let parse s =
        match float_of_string_opt (String.trim s) with
        | Some f -> f
        | None -> invalid_arg (Printf.sprintf "Corner.of_spec: bad scale %S in %S" s part)
      in
      match String.split_on_char '/' scales with
      | [ d ] -> make ~name (parse d)
      | [ d; w ] -> make ~name (parse d) ~wire_scale:(parse w)
      | _ -> invalid_arg (Printf.sprintf "Corner.of_spec: expected dscale[/wscale] in %S" part))
  in
  let parts =
    String.split_on_char ',' spec |> List.filter (fun p -> String.trim p <> "")
  in
  if parts = [] then invalid_arg "Corner.of_spec: empty corner list";
  let tbl = Array.of_list (List.map corner_of_part parts) in
  validate_table tbl;
  tbl

(* Every rejection quotes the whole spec, so a CLI or service user sees
   which text was at fault. *)
let of_spec spec =
  try parse_spec spec
  with Invalid_argument m -> invalid_arg (Printf.sprintf "%s (corner spec %S)" m spec)

let to_string c =
  if is_reference c && c.name = "typ" then c.name
  else Printf.sprintf "%s=%g/%g" c.name c.delay_scale c.wire_scale

let table_to_string tbl = String.concat "," (Array.to_list (Array.map to_string tbl))

let pp ppf c =
  if c.wire_scale = c.delay_scale then
    Format.fprintf ppf "%s (x%g)" c.name c.delay_scale
  else Format.fprintf ppf "%s (x%g, wire x%g)" c.name c.delay_scale c.wire_scale

let pp_table ppf tbl =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp ppf
    (Array.to_list tbl)
