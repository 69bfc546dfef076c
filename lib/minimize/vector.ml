type result = {
  covers : Bdd.t list;
  shared_before : int;
  shared_after : int;
}

let bits_needed n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let selector_cube man ~bits j =
  let rec go v acc =
    if v < 0 then acc
    else
      let lit = Bdd.ithvar man v in
      let lit = if (j lsr v) land 1 = 1 then lit else Bdd.compl lit in
      go (v - 1) (Bdd.dand man lit acc)
  in
  go (bits - 1) (Bdd.one man)

let minimize man ~minimizer instances =
  (match instances with
   | [] -> invalid_arg "Vector.minimize: empty vector"
   | _ -> ());
  List.iter
    (fun (s : Ispec.t) ->
       if Bdd.is_zero s.c then
         invalid_arg "Vector.minimize: empty care set")
    instances;
  let n = List.length instances in
  let bits = bits_needed n in
  let min_support =
    List.fold_left
      (fun acc (s : Ispec.t) ->
         List.fold_left min acc (Bdd.support man s.f @ Bdd.support man s.c))
      max_int instances
  in
  if bits > 0 && min_support < bits then
    invalid_arg
      (Printf.sprintf
         "Vector.minimize: instance supports must start at variable %d \
          (selector variables need the top of the order); use \
          minimize_renamed"
         bits);
  let shared_before =
    Bdd.shared_size man (List.map (fun (s : Ispec.t) -> s.Ispec.f) instances)
  in
  let combined =
    List.fold_left
      (fun (j, acc_f, acc_c) (s : Ispec.t) ->
         let sel = selector_cube man ~bits j in
         ( j + 1,
           Bdd.dor man acc_f (Bdd.dand man sel s.f),
           Bdd.dor man acc_c (Bdd.dand man sel s.c) ))
      (0, Bdd.zero man, Bdd.zero man)
      instances
  in
  let _, big_f, big_c = combined in
  let cover = minimizer man (Ispec.make ~f:big_f ~c:big_c) in
  let extract j =
    let rec go v g =
      if v >= bits then g else go (v + 1) (Bdd.cofactor man g ~var:v ((j lsr v) land 1 = 1))
    in
    go 0 cover
  in
  let covers = List.mapi (fun j _ -> extract j) instances in
  {
    covers;
    shared_before;
    shared_after = Bdd.shared_size man covers;
  }

let minimize_renamed man ~minimizer instances =
  (match instances with
   | [] -> invalid_arg "Vector.minimize_renamed: empty vector"
   | _ -> ());
  let n = List.length instances in
  let bits = bits_needed n in
  if bits = 0 then minimize man ~minimizer instances
  else begin
    let union_support (s : Ispec.t) =
      List.sort_uniq compare (Bdd.support man s.f @ Bdd.support man s.c)
    in
    let vars =
      List.sort_uniq compare (List.concat_map union_support instances)
    in
    let up = List.map (fun v -> (v, v + bits)) vars in
    let down = List.map (fun (a, b) -> (b, a)) up in
    let shift mapping g = Bdd.rename man g mapping in
    let shifted =
      List.map
        (fun (s : Ispec.t) ->
           Ispec.make ~f:(shift up s.f) ~c:(shift up s.c))
        instances
    in
    let r = minimize man ~minimizer shifted in
    let covers = List.map (shift down) r.covers in
    {
      covers;
      shared_before =
        Bdd.shared_size man (List.map (fun (s : Ispec.t) -> s.Ispec.f) instances);
      shared_after = Bdd.shared_size man covers;
    }
  end
