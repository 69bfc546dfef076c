(* Shared test helpers: deterministic random generators for functions and
   instances, oracles, and Alcotest/QCheck glue. *)

module Tt = Logic.Truth_table
module I = Minimize.Ispec

let check = Alcotest.check
let checkb msg b = Alcotest.check Alcotest.bool msg true b
let checki = Alcotest.check Alcotest.int

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A fresh manager per suite keeps node counts meaningful. *)
let man = Bdd.create ()

(* Structural audit of a manager ([Failure] on any violation). *)
let audit man = ignore (Bdd.audit man)

let rng = Random.State.make [| 0xbdd; 0xd0c |]

(* Random truth table over [n] vars with onset density [p] (percent). *)
let random_tt ?(p = 50) n =
  Tt.create n (fun _ -> Random.State.int rng 100 < p)

let random_bdd ?p n = Tt.to_bdd man (random_tt ?p n)

(* Random instance: f arbitrary, care with density [care_p]. *)
let random_ispec ?(care_p = 75) n =
  I.make ~f:(random_bdd n) ~c:(random_bdd ~p:care_p n)

(* Nonempty-care random instance. *)
let rec random_ispec_nonzero ?care_p n =
  let s = random_ispec ?care_p n in
  if Bdd.is_zero s.I.c then random_ispec_nonzero ?care_p n else s

let tt_of man ~nvars f = Tt.of_bdd man ~nvars f

(* Truth-table cover oracle. *)
let tt_is_cover ~nvars (s : I.t) g =
  let f = tt_of man ~nvars s.I.f
  and c = tt_of man ~nvars s.I.c
  and g = tt_of man ~nvars g in
  Tt.leq (Tt.band f c) g && Tt.leq g (Tt.bor f (Tt.bnot c))

(* QCheck generator producing a random instance description: variable
   count plus seeds, rebuilt deterministically inside the property. *)
let gen_instance =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* fseed = int_bound 0xFFFFFF in
    let* cseed = int_bound 0xFFFFFF in
    return (n, fseed, cseed))

let build_instance (n, fseed, cseed) =
  let st = Random.State.make [| fseed; cseed; n |] in
  let f = Tt.create n (fun _ -> Random.State.bool st) in
  let c = Tt.create n (fun _ -> Random.State.int st 4 > 0) in
  (Tt.to_bdd man f, Tt.to_bdd man c)

let build_ispec_nonzero desc =
  let f, c = build_instance desc in
  let c = if Bdd.is_zero c then Bdd.one man else c in
  I.make ~f ~c
