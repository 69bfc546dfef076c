type strategy = Monolithic | Partitioned | Clustered | Range

let strategy_name = function
  | Monolithic -> "monolithic"
  | Partitioned -> "partitioned"
  | Clustered -> "clustered"
  | Range -> "range"

let strategy_of_name = function
  | "monolithic" -> Some Monolithic
  | "partitioned" -> Some Partitioned
  | "clustered" -> Some Clustered
  | "range" -> Some Range
  | _ -> None

let image_monolithic (sym : Symbolic.t) s =
  let man = sym.man in
  let t = Symbolic.transition_relation sym in
  let quantified = Symbolic.state_support sym @ Symbolic.input_support sym in
  let img_next = Bdd.and_exists man quantified t s in
  Bdd.rename man img_next (Symbolic.next_to_current sym)

(* Conjoin clusters into the accumulated product in schedule order,
   existentially quantifying each current-state/input variable at its
   last occurrence via the fused [and_exists] kernel.  The schedule —
   clusters, supports, per-cluster quantification lists — is memoized in
   the machine, so a call does no support recomputation at all. *)
let image_scheduled ?cluster_bound (sym : Symbolic.t) s =
  let man = sym.man in
  let sched = Symbolic.schedule ?cluster_bound sym in
  let acc =
    match sched.Qsched.pre_quantify with
    | [] -> s
    | vars -> Bdd.exists man vars s
  in
  let img_next =
    Array.fold_left
      (fun acc (c : Qsched.cluster) ->
         Bdd.and_exists man c.Qsched.quantify acc c.Qsched.rel)
      acc sched.Qsched.clusters
  in
  Bdd.rename man img_next (Symbolic.next_to_current sym)

(* A cluster bound of 1 keeps every per-latch conjunct separate: the
   historical partitioned strategy, now driven by the same schedule. *)
let image_partitioned sym s = image_scheduled ~cluster_bound:1 sym s
let image_clustered ?cluster_bound sym s = image_scheduled ?cluster_bound sym s

(* Coudert–Madre range computation: the image of S under the function
   vector δ is the range of the vector (δ_j constrained by S).  Recursive
   output splitting; sound precisely because [constrain] distributes over
   vector composition. *)
let image_by_range ?(on_constrain = fun _ -> ()) (sym : Symbolic.t) s =
  let man = sym.man in
  if Bdd.is_zero s then Bdd.zero man
  else begin
    let constrained =
      Array.to_list
        (Array.map
           (fun d ->
              on_constrain (Minimize.Ispec.make ~f:d ~c:s);
              Bdd.constrain man d s)
           sym.next_fns)
    in
    let vars = Array.to_list sym.state_vars in
    let rec range fns vars =
      match (fns, vars) with
      | ([], _) -> Bdd.one man
      | (f :: rest, v :: vrest) ->
        let var = Bdd.ithvar man v in
        if Bdd.is_one f then Bdd.dand man var (range rest vrest)
        else if Bdd.is_zero f then
          Bdd.dand man (Bdd.compl var) (range rest vrest)
        else begin
          let on = List.map (fun g -> Bdd.constrain man g f) rest in
          let off =
            List.map (fun g -> Bdd.constrain man g (Bdd.compl f)) rest
          in
          Bdd.dor man
            (Bdd.dand man var (range on vrest))
            (Bdd.dand man (Bdd.compl var) (range off vrest))
        end
      | (_ :: _, []) -> assert false
    in
    range constrained vars
  end

let image ?(strategy = Partitioned) ?cluster_bound ?on_constrain sym s =
  Obs.Trace.with_span "fsm.image"
    ~attrs:[ ("strategy", Obs.Trace.Str (strategy_name strategy)) ]
  @@ fun sp ->
  let r =
    match strategy with
    | Monolithic -> image_monolithic sym s
    | Partitioned -> image_partitioned sym s
    | Clustered -> image_clustered ?cluster_bound sym s
    | Range -> image_by_range ?on_constrain sym s
  in
  if Obs.Trace.enabled () then begin
    Obs.Trace.add sp "source_nodes"
      (Obs.Trace.Int (Bdd.size sym.Symbolic.man s));
    Obs.Trace.add sp "image_nodes"
      (Obs.Trace.Int (Bdd.size sym.Symbolic.man r))
  end;
  r

let preimage (sym : Symbolic.t) s =
  let man = sym.man in
  let t = Symbolic.transition_relation sym in
  let s_next = Bdd.rename man s (Symbolic.current_to_next sym) in
  let next_and_inputs =
    Array.to_list sym.next_vars @ Symbolic.input_support sym
  in
  Bdd.and_exists man next_and_inputs t s_next
