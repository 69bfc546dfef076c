(* PLA reader/writer and the espresso-lite minimization flow. *)

module Pla = Logic.Pla
module I = Minimize.Ispec

let man = Util.man

let seven_seg_e = {|
# segment e of a BCD 7-segment decoder
.i 4
.o 1
.ilb b3 b2 b1 b0
.ob e
.type fd
0000 1
0100 1
0110 1
0001 1
1010 -
1100 -
1110 -
1001 -
1011 -
1111 -
.e
|}

(* In our leaf-of-strings convention above, the first .ilb label is BDD
   variable 0.  Digits are written MSB-first in the rows: 2 = 0100 means
   b3=0 b2=1 b1=0 b0=0. *)

let parse_seven_seg () =
  match Pla.parse seven_seg_e with
  | Error e -> Alcotest.fail e
  | Ok pla ->
    Util.checki "inputs" 4 pla.Pla.num_inputs;
    Util.checki "outputs" 1 pla.Pla.num_outputs;
    Alcotest.(check (list string)) "labels" [ "b3"; "b2"; "b1"; "b0" ]
      pla.Pla.input_labels;
    Util.checki "rows" 10 (List.length pla.Pla.rows);
    let fns = Pla.functions man pla in
    (match fns with
     | [ ("e", (f, c)) ] ->
       (* 6 DC points (10..15) *)
       Util.checkb "care has 10 points"
         (Bdd.sat_count man c ~nvars:4 = 10.0);
       Util.checkb "onset has 4 points"
         (Bdd.sat_count man (Bdd.dand man f c) ~nvars:4 = 4.0)
     | _ -> Alcotest.fail "expected one output")

let minimization_flow () =
  match Pla.parse seven_seg_e with
  | Error e -> Alcotest.fail e
  | Ok pla ->
    let fns = Pla.functions man pla in
    let covers =
      List.map
        (fun (name, (f, c)) ->
           let inst = I.make ~f ~c in
           let isop = Minimize.Isop.compute man inst in
           Util.checkb (name ^ " covers") (I.is_cover man inst isop.Minimize.Isop.cover);
           (name, isop.Minimize.Isop.cubes))
        fns
    in
    let out = Pla.of_covers ~num_inputs:pla.Pla.num_inputs covers in
    (* fewer product terms than the original specification *)
    Util.checkb "fewer rows"
      (List.length out.Pla.rows < List.length pla.Pla.rows);
    (* round trip: reparse and compare onsets on the care set *)
    (match Pla.parse (Pla.print out) with
     | Error e -> Alcotest.fail e
     | Ok out' ->
       let orig = List.assoc "e" fns in
       (match Pla.functions man out' with
        | [ (_, (f', _)) ] ->
          let f, c = orig in
          Util.checkb "agrees on care"
            (Bdd.is_zero (Bdd.conj man [ Bdd.dxor man f f'; c ]))
        | _ -> Alcotest.fail "bad round trip"))

let combined_row_format () =
  (* rows may glue input and output planes together *)
  let text = ".i 2\n.o 1\n11 1\n001\n.e\n" in
  match Pla.parse text with
  | Ok pla -> Util.checki "two rows" 2 (List.length pla.Pla.rows)
  | Error e -> Alcotest.fail e

let type_f_and_fr () =
  let base typ second =
    ".i 2\n.o 1\n" ^ typ ^ "11 1\n10 " ^ second ^ "\n.e\n"
  in
  (* type f: only the onset is specified; everything else is offset *)
  (match Pla.parse (base ".type f\n" "1") with
   | Ok pla -> (
       match Pla.functions man pla with
       | [ (_, (f, c)) ] ->
         Util.checkb "full care" (Bdd.is_one c);
         Util.checkb "onset = 2 points" (Bdd.sat_count man f ~nvars:2 = 2.0)
       | _ -> Alcotest.fail "one output")
   | Error e -> Alcotest.fail e);
  (* type fr: care = on + off *)
  (match Pla.parse (base ".type fr\n" "4") with
   | Ok pla -> (
       match Pla.functions man pla with
       | [ (_, (f, c)) ] ->
         Util.checkb "care = 2 points" (Bdd.sat_count man c ~nvars:2 = 2.0);
         Util.checkb "onset in care" (Bdd.leq man (Bdd.dand man f c) c)
       | _ -> Alcotest.fail "one output")
   | Error e -> Alcotest.fail e)

let inconsistent_rejected () =
  let text = ".i 1\n.o 1\n.type fr\n1 1\n1 4\n.e\n" in
  match Pla.parse text with
  | Ok pla ->
    Util.checkb "raises"
      (match Pla.functions man pla with
       | exception Invalid_argument _ -> true
       | _ -> false)
  | Error e -> Alcotest.fail e

let malformed_rejected () =
  List.iter
    (fun (what, text) ->
       Util.checkb what (Result.is_error (Pla.parse text)))
    [
      ("no .i", ".o 1\n1 1\n.e\n");
      ("bad width", ".i 2\n.o 1\n111 1\n.e\n");
      ("bad char", ".i 2\n.o 1\n1x 1\n.e\n");
      ("bad type", ".i 1\n.o 1\n.type zz\n1 1\n.e\n");
      ("ilb arity", ".i 2\n.o 1\n.ilb a\n11 1\n.e\n");
      (* a one-token row before .o once raised Invalid_argument *)
      ("combined row before .o", ".i 3\neo 1\n.type fd\n1-0 1\n01- -\n2e\n");
    ]

let random_roundtrip =
  Util.qtest ~count:80 "ISOP -> PLA -> functions round trip"
    Util.gen_instance
    (fun desc ->
       let s = Util.build_ispec_nonzero desc in
       let isop = Minimize.Isop.compute man s in
       let pla =
         Pla.of_covers ~num_inputs:5 [ ("f", isop.Minimize.Isop.cubes) ]
       in
       match Pla.parse (Pla.print pla) with
       | Error _ -> false
       | Ok pla' -> (
           match Pla.functions man pla' with
           | [ (_, (f', _)) ] -> Bdd.equal f' isop.Minimize.Isop.cover
           | _ -> false))

let suite =
  [
    Alcotest.test_case "parse 7-segment PLA" `Quick parse_seven_seg;
    Alcotest.test_case "espresso-lite flow" `Quick minimization_flow;
    Alcotest.test_case "combined row format" `Quick combined_row_format;
    Alcotest.test_case "types f and fr" `Quick type_f_and_fr;
    Alcotest.test_case "inconsistent fr rejected" `Quick inconsistent_rejected;
    Alcotest.test_case "malformed rejected" `Quick malformed_rejected;
    random_roundtrip;
  ]
