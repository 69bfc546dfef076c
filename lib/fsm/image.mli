(** Image and preimage computation.

    Four implementations are provided:
    - {!image_monolithic}: [∃x,i. T(x,i,x')·S(x)] against the (memoized)
      monolithic transition relation;
    - {!image_partitioned}: conjoin-and-quantify over the per-latch
      conjuncts with each variable quantified at its last occurrence —
      the machine's precomputed {!Qsched} schedule at cluster bound 1;
    - {!image_clustered}: the same walk over IWLS95-style clusters merged
      under a node bound and greedily ordered for early quantification;
    - {!image_by_range}: Coudert–Madre output splitting over the
      next-state functions constrained by the state set — the technique
      (footnote 1 of the paper) whose correctness rests on the special
      property of [constrain].

    All four return the {e same} successor set (images are exact under
    any schedule), over {e current}-state variables. *)

type strategy = Monolithic | Partitioned | Clustered | Range

val strategy_name : strategy -> string
(** ["monolithic"], ["partitioned"], ["clustered"] or ["range"] (CLI and
    trace labels). *)

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} (CLI parsing). *)

val image :
  ?strategy:strategy ->
  ?cluster_bound:int ->
  ?on_constrain:(Minimize.Ispec.t -> unit) ->
  Symbolic.t ->
  Bdd.t ->
  Bdd.t
(** Successors of the given state set (default {!Partitioned}).
    [cluster_bound] only affects {!Clustered} (default
    {!Qsched.default_cluster_bound}).  [on_constrain] observes the
    generalized-cofactor calls of the {!Range} strategy (it is ignored by
    the other strategies) — these are the incompletely specified
    functions the paper's instrumented [verify_fsm] intercepts besides
    the frontier minimizations. *)

val image_monolithic : Symbolic.t -> Bdd.t -> Bdd.t
val image_partitioned : Symbolic.t -> Bdd.t -> Bdd.t

val image_clustered : ?cluster_bound:int -> Symbolic.t -> Bdd.t -> Bdd.t
(** Walk the machine's quantification schedule (computing it on first
    use), conjoining each cluster with the fused [and_exists] kernel. *)

val image_by_range :
  ?on_constrain:(Minimize.Ispec.t -> unit) -> Symbolic.t -> Bdd.t -> Bdd.t
(** [on_constrain] sees each [[δ_j; S]] vector-cofactor instance (one per
    next-state function per call), before the range recursion. *)

val preimage : Symbolic.t -> Bdd.t -> Bdd.t
(** Predecessors of the given state set: [∃x',i. T(x,i,x')·S(x')]. *)
