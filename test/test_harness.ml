(* Experiment harness: capture invariants, aggregation, and renderers. *)

let config =
  Harness.Capture.(
    default_config |> with_lower_bound_cubes 200 |> with_max_calls 60)

let names = Harness.Capture.minimizer_names config

(* One capture shared across the tests (a small but non-trivial bench). *)
let calls =
  lazy
    (Harness.Capture.run_suite ~config
       (List.filter_map Circuits.Registry.find [ "tlc"; "gray6"; "rnd344" ]))

let capture_nonempty () =
  Util.checkb "captured calls" (List.length (Lazy.force calls) > 10)

let per_call_invariants () =
  List.iter
    (fun (c : Harness.Capture.call) ->
       Util.checkb "min matches sizes"
         (List.exists (fun (_, s) -> s = c.min_size) c.sizes);
       List.iter
         (fun (n, s) ->
            Util.checkb (n ^ " >= min") (s >= c.min_size);
            Util.checkb (n ^ " >= low_bd or reference")
              (s >= c.low_bd
               || List.mem n [ "f_and_c"; "f_or_nc" ]))
         c.sizes;
       Util.checkb "onset fraction in range"
         (c.c_onset_fraction >= 0.0 && c.c_onset_fraction <= 1.0);
       Util.checkb "not a filtered (trivial) call"
         (c.c_onset_fraction > 0.0))
    (Lazy.force calls)

let buckets_partition () =
  let calls = Lazy.force calls in
  let count b =
    List.length (List.filter (Harness.Stats.in_bucket b) calls)
  in
  Util.checki "low+mid+high = all"
    (count Harness.Stats.All)
    (count Harness.Stats.Low + count Harness.Stats.Mid
     + count Harness.Stats.High)

let aggregate_consistent () =
  let calls = Lazy.force calls in
  let t = Harness.Stats.aggregate ~names Harness.Stats.All calls in
  Util.checki "ncalls" (List.length calls) t.Harness.Stats.ncalls;
  (* totals really are sums *)
  List.iter
    (fun (r : Harness.Stats.row) ->
       let expect =
         List.fold_left
           (fun acc c -> acc + Harness.Stats.size_of c r.Harness.Stats.name)
           0 calls
       in
       Util.checki ("total " ^ r.Harness.Stats.name) expect
         r.Harness.Stats.total_size;
       Util.checkb "pct >= 100"
         (r.Harness.Stats.pct_of_min >= 100.0 -. 1e-6))
    t.Harness.Stats.rows;
  (* rows sorted by total, ranks consistent *)
  let totals = List.map (fun r -> r.Harness.Stats.total_size) t.Harness.Stats.rows in
  Util.checkb "sorted" (List.sort compare totals = totals);
  let min_total_of_rows = List.fold_left min max_int totals in
  Util.checkb "min row has rank 1"
    (List.exists
       (fun (r : Harness.Stats.row) ->
          r.Harness.Stats.total_size = min_total_of_rows
          && r.Harness.Stats.rank = 1)
       t.Harness.Stats.rows)

let head_to_head_properties () =
  let calls = Lazy.force calls in
  let hnames = [ "f_orig"; "const"; "restr"; "min" ] in
  let m = Harness.Stats.head_to_head ~names:hnames calls in
  let n = List.length hnames in
  for i = 0 to n - 1 do
    Util.checkb "diagonal zero" (m.(i).(i) = 0.0);
    for j = 0 to n - 1 do
      Util.checkb "wins+losses <= 100" (m.(i).(j) +. m.(j).(i) <= 100.0 +. 1e-6)
    done
  done;
  (* nothing ever strictly beats min *)
  for i = 0 to n - 2 do
    Util.checkb "min unbeaten" (m.(i).(n - 1) = 0.0)
  done

let within_curve_properties () =
  let calls = Lazy.force calls in
  let series =
    Harness.Stats.within_curve ~name:"const"
      ~percents:[ 0; 10; 50; 100 ] calls
  in
  let values = List.map snd series in
  Util.checkb "monotone"
    (List.sort compare values = values);
  Util.checkb "bounded" (List.for_all (fun v -> v >= 0.0 && v <= 100.0) values);
  (* min's curve is pegged at 100 *)
  let min_series =
    Harness.Stats.within_curve ~name:"min" ~percents:[ 0 ] calls
  in
  Util.checkb "min at 100" (List.for_all (fun (_, v) -> v = 100.0) min_series)

let renderers_do_not_crash () =
  let calls = Lazy.force calls in
  List.iter
    (fun s -> Util.checkb "nonempty" (String.length s > 50))
    [
      Harness.Tables.render_table1 ();
      Harness.Tables.render_table2 ();
      Harness.Tables.render_table3 ~names calls;
      Harness.Tables.render_table4 calls;
      Harness.Tables.render_figure3 calls;
      Harness.Tables.render_lower_bound_summary ~names calls;
      Harness.Tables.calls_to_csv ~names calls;
      Harness.Tables.curve_to_csv ~names:[ "const"; "restr" ] calls;
    ]

let csv_shape () =
  let calls = Lazy.force calls in
  let csv = Harness.Tables.calls_to_csv ~names calls in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Util.checki "header + one row per call" (List.length calls + 1)
    (List.length lines);
  let cols s = List.length (String.split_on_char ',' s) in
  match lines with
  | header :: rows ->
    List.iter
      (fun r -> Util.checki "column count" (cols header) (cols r))
      rows
  | [] -> Alcotest.fail "empty csv"

let max_calls_respected () =
  let tight = Harness.Capture.with_max_calls 5 config in
  let calls =
    Harness.Capture.run_bench ~config:tight
      (Option.get (Circuits.Registry.find "gray6"))
  in
  Util.checkb "capped" (List.length calls <= 5)

let table2_mentions_all_heuristics () =
  let t = Harness.Tables.render_table2 () in
  List.iter
    (fun n -> Util.checkb ("mentions " ^ n) (Util.contains t n))
    [ "constrain"; "restrict"; "osm_td"; "osm_nv"; "osm_cp"; "osm_bt";
      "tsm_td"; "tsm_cp" ]

(* Worker domains run independent private-manager captures through
   [Exec.map] and collect results in submission order, so the CSV is
   byte-identical at any -j. *)
let suite_csv_jobs_differential () =
  let base =
    Harness.Capture.(
      default_config |> with_max_calls 4 |> with_lower_bound_cubes 30)
  in
  let benches = [ Option.get (Circuits.Registry.find "tlc") ] in
  let names = Harness.Capture.minimizer_names base in
  let run jobs =
    let calls =
      Harness.Capture.run_suite
        ~config:(Harness.Capture.with_jobs jobs base)
        benches
    in
    Harness.Tables.calls_to_csv ~names calls
  in
  let csv1 = run 1 in
  Util.checkb "captured something" (String.length csv1 > 0);
  Util.check Alcotest.string "CSV identical at -j 2" csv1 (run 2);
  Util.check Alcotest.string "CSV identical at -j 4" csv1 (run 4)

let suite =
  [
    Alcotest.test_case "capture nonempty" `Quick capture_nonempty;
    Alcotest.test_case "per-call invariants" `Quick per_call_invariants;
    Alcotest.test_case "buckets partition" `Quick buckets_partition;
    Alcotest.test_case "aggregation consistent" `Quick aggregate_consistent;
    Alcotest.test_case "head-to-head properties" `Quick head_to_head_properties;
    Alcotest.test_case "robustness curves" `Quick within_curve_properties;
    Alcotest.test_case "renderers" `Quick renderers_do_not_crash;
    Alcotest.test_case "csv shape" `Quick csv_shape;
    Alcotest.test_case "max_calls respected" `Quick max_calls_respected;
    Alcotest.test_case "table 2 complete" `Quick table2_mentions_all_heuristics;
    Alcotest.test_case "suite CSV identical at -j 1/2/4" `Quick
      suite_csv_jobs_differential;
  ]
