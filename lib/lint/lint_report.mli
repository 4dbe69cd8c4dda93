(** Findings of the static design-rule audit (lint).

    Each finding carries the rule id that produced it, a severity, the
    net or instance it is anchored to, a message saying what is wrong
    and a hint saying how to fix it.  Findings render both as a
    Figure-3-11-style text listing and as JSON lines for tooling. *)

type severity = Error | Warning | Info

type locus =
  | Net of string   (** a signal, by its full net name *)
  | Inst of string  (** a primitive instance, e.g. ["REG.22"] *)
  | Design          (** a whole-design property *)

type finding = {
  f_rule : string;  (** rule id, e.g. ["C1"] or ["K4"] — see {!Rules.all} *)
  f_severity : severity;
  f_locus : locus;
  f_message : string;  (** what is wrong *)
  f_hint : string;     (** how to fix it *)
}

type t = {
  findings : finding list;
      (** sorted by rule id then locus name (see {!compare_finding}) *)
  nets_audited : int;
  insts_audited : int;
}

val severity_name : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val locus_name : locus -> string
(** The net or instance name; ["(design)"] for {!Design}. *)

val count : severity -> t -> int

val clean : t -> bool
(** No [Error]-severity findings. *)

val rule_ids : t -> string list
(** The distinct rule ids that fired, sorted. *)

val by_rule : string -> t -> finding list

val compare_finding : finding -> finding -> int
(** Rule id first, then locus name, then severity and message.  Keyed on
    stable identifiers only, so golden listings survive changes to how
    individual rules enumerate the netlist (memoized analyses, iteration
    order). *)

val pp_finding : Format.formatter -> finding -> unit
(** One finding as two lines: the message line and the fix hint. *)

val pp : Format.formatter -> t -> unit
(** The full listing, in the style of the thesis's error listings
    (Figure 3-11): a header with severity totals, then every finding. *)

val finding_to_json : finding -> string
(** One finding as a single-line JSON object with keys [rule],
    [severity], [locus_kind], [locus], [message], [hint], printed by
    {!Scald_core.Json.to_string}. *)

val pp_jsonl : Format.formatter -> t -> unit
(** Every finding as one JSON line (JSONL). *)
