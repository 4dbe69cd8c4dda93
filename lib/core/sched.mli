(** Structural evaluation schedule (levelization).

    The instance graph has an edge [a -> b] whenever the output net of
    [a] is an input of [b].  This module condenses that graph into its
    strongly connected components (iterative Tarjan — deep pipelines
    must not overflow the OCaml stack) and assigns every component a
    topological {e level}: a component's level is strictly greater than
    the level of every distinct component feeding it.

    The evaluator uses the per-instance level as a bucket index for its
    ready queue: sweeping the buckets in level order evaluates each
    acyclic instance at most once per settled wavefront, while instances
    inside a feedback component share a level and relax in FIFO order
    (see [doc/SCHEDULER.md]).

    A schedule only reads the netlist structure (drivers and fanout),
    which is immutable after construction, so one schedule can be shared
    read-only across domains — including with the {!Netlist.copy}s used
    by parallel case evaluation, whose ids are identical. *)

type t

val compute : Netlist.t -> t
(** Condense the instance graph and levelize it.  O(instances +
    connections); purely structural — never reads evaluation state. *)

val flat : Netlist.t -> t
(** The degenerate schedule: every instance in one level and one cyclic
    component.  The evaluator then takes ready instances in plain FIFO
    order under one budget of [max 10_000 (200 * instances)]
    evaluations — exactly the historical FIFO relaxation, kept as the
    reference the levelized schedule is tested against (same fixpoint,
    more evaluations). *)

val level : t -> int -> int
(** [level t inst_id] — topological level of the instance's component,
    [0 .. n_levels - 1]. *)

val members : t -> int -> int list
(** [members t scc] — the instance ids of a component, in ascending
    order.  Component ids run [0 .. n_sccs - 1] in reverse topological
    order (a component's successors have smaller ids), a property of
    Tarjan's algorithm.  Built once by {!compute}; the static analyses
    walk the condensation through it. *)

val cyclic_slot : t -> int -> int
(** [cyclic_slot t inst_id] — dense index of the instance's component
    among the {e cyclic} components (size > 1, or a single instance
    feeding itself), or [-1] when the instance is acyclic.  The
    evaluator sizes its per-component relaxation budgets by these
    slots, so acyclic components cost nothing per run. *)

val n_cyclic : t -> int
(** Number of cyclic components. *)

val cyclic_size : t -> int -> int
(** [cyclic_size t slot] — member count of the cyclic component with
    the given slot. *)

val cyclic_region : t -> int -> Netlist.t -> string
(** [cyclic_region t slot nl] — human-readable description of a cyclic
    component for the [No_convergence] verdict: the member instance
    names (truncated past the first few) and the member count. *)

val n_levels : t -> int
val n_sccs : t -> int

val max_scc_size : t -> int
(** Size of the largest component; 1 for an acyclic circuit. *)
