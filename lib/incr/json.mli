(** Minimal JSON codec for the serve protocol (doc/SERVICE.md).

    The repo carries no third-party dependencies, so this is a small
    hand-written parser/printer covering exactly what JSONL requests and
    responses need: objects, arrays, strings, numbers, booleans, null.
    Strings decode the standard escapes (including [\uXXXX], emitted as
    UTF-8); the printer is compact (single line, no spaces), which is
    what a line-oriented protocol wants. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an
    error. *)

val to_string : t -> string
(** Compact single-line rendering.  Integral numbers print without a
    decimal point. *)

(** {2 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option

val int : t -> int option
(** Integral {!Num} of magnitude at most 2{^53} only: the integers a
    float holds exactly, so every accepted number round-trips. *)

val bool : t -> bool option
val list : t -> t list option

val of_int : int -> t
