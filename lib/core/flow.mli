(** Static signal-class dataflow analysis (§2.1, §2.5).

    The thesis's central observation is that most signals carry only
    stable / possibly-changing information.  This module proves a large
    share of that {e statically}: one forward abstract interpretation
    over the {!Sched} condensation (widening on feedback components)
    assigns every net a class before any evaluation happens.

    The classes, ordered from most to least informative:

    - [Const v] — tied to one value for the whole period (a {!Primitive.Const}
      source, possibly buffered/inverted);
    - [Stable] — provably STABLE for the whole period under the asserted
      inputs: full-period [.S] assertions, undriven unasserted nets (the
      verifier assumes them stable, §2.5), and outputs computed only from
      such signals;
    - [Clock {domains; gated}] — the cone of a [.P]/[.C] assertion:
      [domains] are the asserted root nets (ids), unioned through gating,
      and [gated] is false exactly on the asserted roots themselves;
    - [Data domains] — a changing signal, tagged with the set of clock
      domains whose registers (or gated clocks) can reach it; the set is
      empty for changing primary inputs (partial [.S] windows);
    - [Unknown] — the analysis gave up (e.g. a feedback component that
      did not stabilize within its widening budget).

    Two consumers share one analysis: the lint rules C1/C4/C6/C7/K7
    (clock-cone and clock-domain evidence) and the [--classes] CLI
    listing.  Verification never runs it (doc/FLOW.md says why).  The
    analysis is purely structural — it never calls {!Eval} — and the
    resulting table is immutable. *)

type cls =
  | Const of Tvalue.t
  | Stable
  | Clock of { domains : int list; gated : bool }
      (** [domains]: sorted ids of the asserted clock roots reaching this
          net; [gated = false] only on an asserted root itself *)
  | Data of int list  (** sorted ids of the clock-domain roots reaching it *)
  | Unknown

type t

val analyse : ?sched:Sched.t -> ?case_nets:int list -> Netlist.t -> t
(** Classify every net of the netlist.  O(nets + connections) plus the
    bounded relaxation of feedback components.  [sched] reuses an
    existing condensation instead of recomputing one.

    [case_nets] are nets that case analysis may substitute (§2.7): they
    and their cones are demoted from [Const]/[Stable] to [Data []],
    since a case could change them.  The class listing and the lint
    rules use the default (empty) for a case-independent static view. *)

val cls : t -> int -> cls
(** [cls t net_id] — the inferred class of a net. *)

val domains : t -> int -> int list
(** Clock-domain roots of a net: the [domains] of a [Clock]/[Data]
    class, [[]] otherwise. *)

val reaches_clock : t -> int -> bool
(** [reaches_clock t net_id] — does the backward driver cone of the net
    (the net itself included) contain a [.P]/[.C]-asserted signal?
    Exactly the question lint rule C1 asks of edge-sensitive inputs. *)

val class_counts : t -> int * int * int * int * int
(** [(const, stable, clock, data, unknown)] net counts. *)

val pp_classes : Format.formatter -> t -> unit
(** The [--classes] listing: one line per net, in net-id order, with the
    inferred class, its clock domains, and the witness (the assertion,
    or the structural reason) that produced it. *)
