(** Variable reordering.

    The paper's problem statement fixes the variable order, but choosing
    that order well is the complementary lever on BDD size, so the package
    provides it.  Nodes here are immutable and hash-consed, so reordering
    is {e rebuild-based}: functions are reconstructed in a fresh manager
    whose levels correspond to a permuted variable order, rather than by
    in-place level swaps.

    Terminology: a {e placement} maps each original variable [v] to its
    new level [placement.(v)].  The rebuilt function over the new manager
    satisfies [new_f(y_{placement.(v)} := b_v) = old_f(x_v := b_v)]. *)

val rebuild :
  Core_dd.man -> placement:int array -> Core_dd.t list ->
  Core_dd.man * Core_dd.t list
(** Rebuild the functions into a fresh manager under the placement.
    [placement] must be injective on the union support (checked).  The
    originals are untouched.  The rebuilt results are left rooted in the
    target manager (see {!Core_dd.ref_}), and intermediate results are
    rooted for the duration of the rebuild, so target-manager garbage
    collections are safe throughout. *)

val shared_size_under :
  Core_dd.man -> placement:int array -> Core_dd.t list -> int
(** Shared node count the functions would have under the placement
    (computed in a scratch manager). *)

val sift :
  ?max_rounds:int ->
  Core_dd.man ->
  Core_dd.t list ->
  int array * int
(** Greedy sifting: repeatedly take each variable (most populous level
    first) and move it to the position in the current order that
    minimizes the shared node count, until a round yields no improvement
    or [max_rounds] (default 2) rounds are done.  Candidate orders are
    memoized, and the no-op insertion (putting a variable back where it
    is) is skipped, so each distinct order costs at most one rebuild.
    Returns the best placement found (never worse than the identity) and
    its shared size. *)

val sift_apply :
  ?max_rounds:int ->
  Core_dd.man ->
  Core_dd.t list ->
  int array * Core_dd.man * Core_dd.t list
(** {!sift} followed by {!rebuild} under the winning placement. *)

val remap_cube : placement:int array -> int list -> int list
(** Rename a quantification-cube variable set under a placement.

    A rebuild renames variable [v] to [placement.(v)], but interned
    cubes ({!Core_dd.cube_id}) are variable-{e name} sets interned in
    the {e source} manager: their ids are meaningless against the
    rebuilt manager, and even the raw variable lists point at the old
    names.  Any cube carried across {!rebuild}/{!sift_apply} (or a
    {!Policy.check} swap) must be passed through this function and
    re-interned in the target manager.
    @raise Invalid_argument when a variable falls outside the
    placement. *)

(** Event-driven dynamic reordering.

    A policy installed on a manager watches
    {!Core_dd.engine_event.Table_grown} events (emitted when the
    private unique table doubles) and latches a {e pending} flag once
    the table has grown by the configured factor over its size at
    installation.  Listeners fire mid-kernel, so the sift itself never
    runs from the event: callers invoke {!check} at clean operation
    boundaries, where a pending flag triggers one sifting pass. *)
module Policy : sig
  type t =
    | Manual  (** never reorder automatically (the default) *)
    | On_growth of { factor : int; max_passes : int }
    (** arm a sift once the unique table grows [factor]x beyond its
        capacity at installation, at most [max_passes] times over the
        manager's lifetime (counted across rebuilds) *)

  val install : Core_dd.man -> t -> unit
  (** Install the policy (replacing any previous one; [Manual] clears).
      @raise Invalid_argument on [factor < 2] or [max_passes < 1]. *)

  val installed : Core_dd.man -> t
  (** The currently installed policy. *)

  val pending : Core_dd.man -> bool
  (** Whether a growth event has armed a reordering pass. *)

  val check :
    ?max_rounds:int ->
    Core_dd.man ->
    Core_dd.t list ->
    (int array * Core_dd.man * Core_dd.t list) option
  (** Run the armed pass, if any: [None] when nothing is pending, when
      the pass allowance is spent, or when the installed budget is
      already exhausted
      ({!Core_dd.Budget_exhausted} is trapped and reported as [None],
      with the pending flag consumed).  On success, behaves like
      {!sift_apply}; the rebuilt manager inherits the representation,
      the policy (with one more pass spent) and the source's budget.
      Remember {!remap_cube} for any interned cubes. *)
end
