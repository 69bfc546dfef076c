(** Minimization at a level (§3.3): match as many subfunctions as possible
    among those pointed to from a given level or above.

    The procedure: gather the incompletely specified subfunctions
    [[fj; cj]] below level [i] that are pointed to from level [i] or above
    (lock-step DFS of [f] and [c] stopping when both nodes lie below the
    level); build the matching graph of the chosen criterion; solve FMM
    ({!Graph}); replace each matched function by its i-cover, rebuilding
    the superstructure. *)

type params = {
  set_limit : int option;
  (** §3.3.1 method 1: process the gathered set in chunks of this size
      ([None] = unbounded, the paper's configuration). *)
  only_rooted_at_next : bool;
  (** §3.3.1 method 2: keep only subfunctions whose [f] part is rooted at
      level [i+1], minimizing the node count of that level. *)
  order_by_degree : bool;
  (** First clique-cover optimization of §3.3.2. *)
  use_distance_weights : bool;
  (** Second clique-cover optimization of §3.3.2: prefer matches of nearby
      functions, weighting edges by the paper's path-distance measure. *)
}

val default_params : params
(** Unbounded set, all subfunctions, both clique optimizations on. *)

val gather :
  Bdd.man -> level:int -> only_rooted_at_next:bool -> Ispec.t ->
  (Ispec.t * (int * bool) list) list
(** The gathered subfunction pairs with the first DFS path reaching each
    (variable, branch taken), for inspection and distance weighting. *)

val max_level : Bdd.man -> Ispec.t -> int
(** Deepest level occurring in the union support of the instance
    ([-1] for constants). *)

val minimize_at_level :
  Bdd.man -> ?params:params -> Matching.criterion -> level:int -> Ispec.t ->
  Ispec.t
(** One application of level matching.  The result is an i-cover of the
    argument (care set only grows).  With criterion [Osm], the optimum
    below the level is preserved (Theorem 12). *)

val minimize_all_levels :
  Bdd.man -> ?params:params -> Matching.criterion -> Ispec.t -> Ispec.t
(** Apply {!minimize_at_level} at every level in increasing order. *)

val opt_lv : Bdd.man -> ?params:params -> Ispec.t -> Bdd.t
(** The paper's [opt_lv] heuristic: [tsm] level matching at every level in
    increasing order; the final [f] part is returned (a valid cover, since
    each step yields an i-cover and [f' ] covers [[f'; c']]).  Requires a
    non-empty care set. *)

val distance : level:int -> (int * bool) list -> (int * bool) list -> float
(** The §3.3.2 path distance between two functions rooted below [level],
    given their access paths: [Σ |xg_i − xh_i|·2^(level−i)] over variables
    assigned on both paths (siblings are at distance 1). *)
