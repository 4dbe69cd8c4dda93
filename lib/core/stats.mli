(** Execution and storage statistics (§3.3.2, Tables 3-1 … 3-3).

    The storage model mirrors the thesis's unpacked-PASCAL accounting:
    every record field takes four bytes except characters, which take
    one.  The value-list sizes reproduce the published averages (a base
    record of five fields plus one three-field record per value node,
    giving the 56-byte average at 2.97 value records per signal). *)

type storage = {
  circuit_description : int;
      (** per-primitive characterization + parameter bindings *)
  signal_values : int;  (** value-list base records and value records *)
  signal_names : int;   (** per-bit value pointers and define/use lists *)
  string_space : int;   (** text of all signal and instance names *)
  call_list : int;      (** which primitives to re-evaluate per signal *)
  miscellaneous : int;
}

val total : storage -> int

val storage_of : Eval.t -> storage
(** Account for the data structures of the evaluator's netlist in its
    current state — value-record counts are taken from the evaluator's
    reference-corner waveforms.  For an unevaluated design pass
    [Eval.create nl]: every net then holds one all-Unknown record. *)

val n_value_lists : Netlist.t -> int
(** Total signal value lists stored: one per bit of every signal vector
    (thesis: 33 152). *)

val value_records_per_signal : Eval.t -> float
(** Mean number of value records per signal value list (the thesis
    measured 2.97 for the 6357-chip example). *)

val bytes_per_signal_value : Eval.t -> float
(** Mean bytes used to store one signal's value (thesis: 56). *)

val bytes_per_primitive : storage -> n_primitives:int -> float
(** Circuit-description bytes per primitive (thesis: 260). *)

type primitive_census = (string * int * float) list
(** Rows of Table 3-2: primitive type, instance count, mean bit width. *)

val primitive_census : Netlist.t -> primitive_census

val total_primitives : primitive_census -> int

val unvectored_count : Netlist.t -> int
(** Number of primitives that would be needed without exploiting vector
    symmetry: the sum over instances of their output (or checked-input)
    widths — the thesis's 53 833 vs 8 282 comparison. *)

val pp_storage : Format.formatter -> storage -> unit
(** Render in the layout of Table 3-3, with percentages. *)

val pp_census : Format.formatter -> primitive_census -> unit
(** Render in the layout of Table 3-2. *)
