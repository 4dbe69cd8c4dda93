type severity = Error | Warning | Info

type locus = Net of string | Inst of string | Design

type finding = {
  f_rule : string;
  f_severity : severity;
  f_locus : locus;
  f_message : string;
  f_hint : string;
}

type t = { findings : finding list; nets_audited : int; insts_audited : int }

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let locus_name = function Net n -> n | Inst i -> i | Design -> "(design)"

let locus_kind = function Net _ -> "net" | Inst _ -> "inst" | Design -> "design"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let count sev t =
  List.length (List.filter (fun f -> f.f_severity = sev) t.findings)

let clean t = not (List.exists (fun f -> f.f_severity = Error) t.findings)

let rule_ids t =
  List.sort_uniq String.compare (List.map (fun f -> f.f_rule) t.findings)

let by_rule id t = List.filter (fun f -> f.f_rule = id) t.findings

let compare_finding a b =
  let c = String.compare a.f_rule b.f_rule in
  if c <> 0 then c
  else
    let c = String.compare (locus_name a.f_locus) (locus_name b.f_locus) in
    if c <> 0 then c
    else
      let c = compare (severity_rank a.f_severity) (severity_rank b.f_severity) in
      if c <> 0 then c else String.compare a.f_message b.f_message

let severity_tag = function
  | Error -> "**ERROR**"
  | Warning -> "*WARNING*"
  | Info -> "   INFO  "

let pp_finding ppf f =
  Format.fprintf ppf "@[<v>%s [%s] %s: %s@,           fix: %s@]"
    (severity_tag f.f_severity) f.f_rule (locus_name f.f_locus) f.f_message f.f_hint

let pp ppf t =
  Format.fprintf ppf "@[<v>CONSTRAINT LINT LISTING@,";
  Format.fprintf ppf "%d ERRORS   %d WARNINGS   %d INFOS   (%d nets, %d instances audited)@,"
    (count Error t) (count Warning t) (count Info t) t.nets_audited t.insts_audited;
  List.iter (fun f -> Format.fprintf ppf "%a@," pp_finding f) t.findings;
  if t.findings = [] then Format.fprintf ppf "(no findings)@,";
  Format.fprintf ppf "@]"

(* ---- JSON lines ---------------------------------------------------------- *)

let finding_to_json f =
  let open Scald_core.Json in
  to_string
    (Obj
       [
         ("rule", Str f.f_rule);
         ("severity", Str (severity_name f.f_severity));
         ("locus_kind", Str (locus_kind f.f_locus));
         ("locus", Str (locus_name f.f_locus));
         ("message", Str f.f_message);
         ("hint", Str f.f_hint);
       ])

let pp_jsonl ppf t =
  List.iter (fun f -> Format.fprintf ppf "%s@." (finding_to_json f)) t.findings
