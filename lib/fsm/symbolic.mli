(** Symbolic (BDD) encoding of a netlist.

    Variable order: current- and next-state variables interleaved
    (latch [j] gets current variable [2j] and next variable [2j + 1]),
    primary inputs after all state variables — reached-set and frontier
    BDDs then live in the top of the order, where minimization acts. *)

(** Static variable-ordering strategy (the order is fixed for the
    manager's lifetime, as the paper assumes; choosing it well is a
    separate concern from minimization). *)
type ordering =
  | Interleaved
  (** latch declaration order, current/next interleaved, inputs last
      (the default) *)
  | Topological
  (** latches in first-visit order of a DFS through the next-state
      logic, so structurally related latches sit near each other;
      interleaved, inputs last *)
  | Inputs_first  (** primary inputs above all state variables *)

type t = {
  man : Bdd.man;
  netlist : Netlist.t;
  state_vars : int array;  (** current-state variable of each latch *)
  next_vars : int array;  (** next-state variable of each latch *)
  input_vars : (string * int) list;
  next_fns : Bdd.t array;  (** [δ_j (x, i)] *)
  output_fns : (string * Bdd.t) list;  (** [λ (x, i)] *)
  init : Bdd.t;  (** characteristic function of the initial state *)
  mutable rel_parts : Bdd.t array option;
  (** memoized {!partitioned_relation} (rooted); don't touch directly *)
  mutable rel_mono : Bdd.t option;
  (** memoized {!transition_relation} (rooted); don't touch directly *)
  mutable qsched : (int * Qsched.t) option;
  (** memoized {!schedule} with the cluster bound it was built under;
      don't touch directly *)
}

val of_netlist : ?ordering:ordering -> Bdd.man -> Netlist.t -> t

val latch_rank : Netlist.t -> ordering -> int array
(** The latch permutation a strategy induces: entry [j] is the rank of
    the [j]-th declared latch (identity for {!Interleaved} and
    {!Inputs_first}). *)

val state_support : t -> int list
val input_support : t -> int list

val transition_relation : t -> Bdd.t
(** Monolithic [T(x, i, x') = ∏_j (x'_j ⟺ δ_j(x, i))].  Built on first
    use, rooted against GC and memoized in the record — repeated calls
    (one per image, formerly) are free. *)

val partitioned_relation : t -> Bdd.t array
(** The per-latch conjuncts of {!transition_relation}; memoized and
    rooted like it.  Callers must not mutate the returned array. *)

val schedule : ?cluster_bound:int -> t -> Qsched.t
(** The machine's quantification schedule (see {!Qsched}), built once
    per cluster bound (default {!Qsched.default_cluster_bound}) and
    memoized; asking for a different bound rebuilds and replaces the
    memo. *)

val next_to_current : t -> (int * int) list
(** Renaming pairs [x'_j → x_j]. *)

val current_to_next : t -> (int * int) list

val eval_outputs : t -> state:Bdd.t -> (string * Bdd.t) list
(** Outputs with state variables constrained to the given state set
    (existentially abstracted over states satisfying it is left to the
    caller; this just conjoins). *)

val num_state_vars : t -> int

val restrict_to_care_states :
  t ->
  care:Bdd.t ->
  minimize:(Bdd.man -> Minimize.Ispec.t -> Bdd.t) ->
  t
(** The paper's second application (§1): re-encode every next-state and
    output function with the states outside [care] (typically the
    reachable set) as don't cares, shrinking the machine's BDDs while
    preserving its behaviour on [care].  Each function [g] is replaced by
    [minimize man [g; care]]. *)

val shared_node_count : t -> int
(** Size of the shared BDD DAG of all next-state and output functions —
    the natural measure of a machine's symbolic representation size. *)

val state_cube_of_ints : t -> bool array -> Bdd.t
(** Characteristic function of one concrete state (per-latch values in
    latch order). *)
