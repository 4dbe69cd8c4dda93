(** The one JSON codec of the program: every file and line it writes
    in JSON — serve responses and [--log] lines (doc/SERVICE.md), the
    [--metrics] file, the [--profile]/[--trace] Chrome trace and the
    [--lint-json] lines — is printed here, and every JSON it reads,
    serve requests first, is parsed here.

    The repo carries no third-party dependencies, so this is a small
    hand-written parser/printer: objects, arrays, strings, numbers,
    booleans, null.  Strings decode the standard escapes (including
    [\uXXXX], emitted as UTF-8).  Integral numbers print with no
    decimal point, every other number with [%.12g]. *)

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
(** Compact single-line rendering, no spaces: one JSONL line. *)

val number : float -> string
(** How {!to_string} spells a [Num]: integers below 10{^15} whole, the rest [%.12g]. *)

val to_lines : t -> string
(** A top-level object or array with one member or element per line,
    each line compact and indented two spaces, ending in a newline:
    the diff-friendly layout of the metrics and trace files.  Any
    other value is its {!to_string} line. *)

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
