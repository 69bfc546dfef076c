(** Heuristic minimization of BDDs using don't cares — the paper's
    contribution.

    Entry points: {!Ispec} for problem instances, {!Sibling} and {!Level}
    for the two heuristic classes, {!Schedule} for the combined schedule,
    {!Exact} and {!Lower_bound} for ground truth and bounds, and
    {!Registry} for the named catalogue used by the experiments. *)

module Ispec = Ispec
module Ctx = Ctx
module Matching = Matching
module Sibling = Sibling
module Graph = Graph
module Level = Level
module Schedule = Schedule
module Vector = Vector
module Isop = Isop
module Exact = Exact
module Lower_bound = Lower_bound
module Registry = Registry
