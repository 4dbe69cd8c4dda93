(* Prometheus text-format exposition (version 0.0.4), written whole
   and atomically: serialize to a temp file in the target directory,
   then rename over the destination so a scraper never reads a torn
   file.  No client-library dependency — the format is three line
   shapes.  A sample value is spelled as the JSON codec spells a
   number, so every file the service writes prints one reading one
   way. *)

type sample = { s_labels : (string * string) list; s_value : float }

type family = {
  f_name : string;
  f_help : string;
  f_type : [ `Counter | `Gauge ];
  f_samples : sample list;
}

let sample ?(labels = []) v = { s_labels = labels; s_value = v }

let family ~name ~help ~typ samples =
  { f_name = name; f_help = help; f_type = typ; f_samples = samples }

(* Label values escape backslash, double-quote and newline
   (exposition-format rules). *)
let escape_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_family buf f =
  Printf.bprintf buf "# HELP %s %s\n" f.f_name f.f_help;
  Printf.bprintf buf "# TYPE %s %s\n" f.f_name
    (match f.f_type with `Counter -> "counter" | `Gauge -> "gauge");
  List.iter
    (fun s ->
      Buffer.add_string buf f.f_name;
      (match s.s_labels with
      | [] -> ()
      | labels ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char buf ',';
              Printf.bprintf buf "%s=\"%s\"" k (escape_label_value v))
            labels;
          Buffer.add_char buf '}');
      Printf.bprintf buf " %s\n" (Scald_core.Json.number s.s_value))
    f.f_samples

let to_text families =
  let buf = Buffer.create 1024 in
  List.iter (add_family buf) families;
  Buffer.contents buf

let write_file path families =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (to_text families)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path
