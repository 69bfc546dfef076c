(* Benchmark harness: regenerates every exhibit of the paper's evaluation
   (§4: Tables 1-4 and Figure 3) and times the building blocks with
   Bechamel (one Test.make group per exhibit, plus ablations).

   Command line:
     -j N / --jobs N        run the capture suite on N worker domains
                            (default 1; the result tables are
                            byte-identical at any N)
     --image S              image strategy for the capture suite:
                            monolithic, partitioned, clustered or range
                            (default partitioned; images are exact, so
                            the tables are identical under any strategy)
     --cluster-bound N      node bound for the clustered schedule
     --repr R               node representation for the capture suite:
                            bdd (plain, default) or cbdd (chain-reduced;
                            verdicts are identical, and the tables gain
                            the dual size columns)

   Environment knobs:
     BDDMIN_BENCH_QUICK=1   use the small benchmark sub-suite
     BDDMIN_BENCH_CALLS=N   per-benchmark cap on measured calls (default 250)
     BDDMIN_BENCH_SKIP_MICRO=1  skip the Bechamel microbenchmarks
     BDDMIN_BENCH_JOBS=N    like -j N
     BDDMIN_BENCH_IMAGE=S   like --image S
     BDDMIN_BENCH_CLUSTER_BOUND=N  like --cluster-bound N
     BDDMIN_BENCH_NODE_BUDGET=N   live-node budget for the capture suite
     BDDMIN_BENCH_STEP_BUDGET=N   recursion-step budget per minimizer run
     BDDMIN_BENCH_TIME_BUDGET=S   wall-clock budget in seconds
     BDDMIN_BENCH_FAIL_FAST=1     cancel the suite on the first DNF
     BDDMIN_BENCH_SERVE=0   skip the serve load-generation phase
     BDDMIN_BENCH_REPR=R    like --repr R
     BDDMIN_BENCH_CBDD=0    skip the CBDD ablation phase
     BDDMIN_BENCH_SERVE_CLIENTS=N   concurrent loadgen clients (default 4)
     BDDMIN_BENCH_SERVE_REQUESTS=N  requests per client (default 150)
     BDDMIN_BENCH_JSON=PATH where to write the machine-readable baseline
                            (default BENCH_engine.json in the cwd) *)

let () = Obs.Logging.setup ~default:Logs.Info ()

let quick = Sys.getenv_opt "BDDMIN_BENCH_QUICK" = Some "1"
let skip_micro = Sys.getenv_opt "BDDMIN_BENCH_SKIP_MICRO" = Some "1"

let max_calls =
  match Sys.getenv_opt "BDDMIN_BENCH_CALLS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 250)
  | None -> 250

let jobs =
  let from_env =
    match Sys.getenv_opt "BDDMIN_BENCH_JOBS" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  let rec from_argv = function
    | ("-j" | "--jobs") :: n :: _ -> int_of_string_opt n
    | _ :: rest -> from_argv rest
    | [] -> None
  in
  match from_argv (Array.to_list Sys.argv) with
  | Some n when n >= 1 -> n
  | _ -> ( match from_env with Some n when n >= 1 -> n | _ -> 1)

let image_strategy =
  let from_env = Sys.getenv_opt "BDDMIN_BENCH_IMAGE" in
  let rec from_argv = function
    | "--image" :: s :: _ -> Some s
    | _ :: rest -> from_argv rest
    | [] -> None
  in
  let name =
    match from_argv (Array.to_list Sys.argv) with
    | Some s -> Some s
    | None -> from_env
  in
  match name with
  | None -> Fsm.Image.Partitioned
  | Some s -> (
      match Fsm.Image.strategy_of_name s with
      | Some strategy -> strategy
      | None ->
        Printf.eprintf
          "unknown image strategy %s (expected monolithic, partitioned, \
           clustered or range)\n"
          s;
        exit 2)

let cluster_bound =
  let from_env =
    match Sys.getenv_opt "BDDMIN_BENCH_CLUSTER_BOUND" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  let rec from_argv = function
    | "--cluster-bound" :: n :: _ -> int_of_string_opt n
    | _ :: rest -> from_argv rest
    | [] -> None
  in
  match from_argv (Array.to_list Sys.argv) with
  | Some n when n >= 1 -> Some n
  | _ -> ( match from_env with Some n when n >= 1 -> Some n | _ -> None)

let env_pos_int name =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None)
  | None -> None

let node_budget = env_pos_int "BDDMIN_BENCH_NODE_BUDGET"
let step_budget = env_pos_int "BDDMIN_BENCH_STEP_BUDGET"

let time_budget =
  match Sys.getenv_opt "BDDMIN_BENCH_TIME_BUDGET" with
  | Some s -> (
      match float_of_string_opt s with
      | Some t when t > 0.0 -> Some t
      | _ -> None)
  | None -> None

let fail_fast = Sys.getenv_opt "BDDMIN_BENCH_FAIL_FAST" = Some "1"

let repr =
  let from_env = Sys.getenv_opt "BDDMIN_BENCH_REPR" in
  let rec from_argv = function
    | "--repr" :: s :: _ -> Some s
    | _ :: rest -> from_argv rest
    | [] -> None
  in
  let name =
    match from_argv (Array.to_list Sys.argv) with
    | Some s -> Some s
    | None -> from_env
  in
  match name with
  | None -> `Bdd
  | Some s -> (
      match Bdd.repr_of_string s with
      | Some r -> r
      | None ->
        Printf.eprintf "unknown representation %s (expected bdd or cbdd)\n" s;
        exit 2)

let json_path =
  Option.value
    (Sys.getenv_opt "BDDMIN_BENCH_JSON")
    ~default:"BENCH_engine.json"

(* Per-phase wall times, in execution order, for the JSON baseline. *)
let phase_times : (string * float) list ref = ref []

let timed_phase name f =
  let r, dt = Obs.Clock.timed f in
  phase_times := !phase_times @ [ (name, dt) ];
  r

(* ----- the experiment: capture all minimization calls ----- *)

let config =
  Harness.Capture.(
    default_config |> with_max_calls max_calls
    |> with_image_strategy image_strategy
    |> with_cluster_bound cluster_bound
    |> with_jobs jobs |> with_node_budget node_budget
    |> with_step_budget step_budget |> with_time_budget time_budget
    |> with_fail_fast fail_fast |> with_repr repr)

let names = Harness.Capture.minimizer_names config

let benches =
  if quick then Circuits.Registry.quick else Circuits.Registry.all

let capture_seconds = ref 0.0

let calls, suite_stats, suite_dnf =
  Printf.printf
    "== Capturing EBM instances from FSM self-equivalence (%d machines, <=%d calls each, %d job%s) ==\n%!"
    (List.length benches) max_calls jobs
    (if jobs = 1 then "" else "s");
  (* progress goes through the default Logs route of [run_suite_stats] *)
  let suite, dt =
    Obs.Clock.timed (fun () ->
        Harness.Capture.run_suite_stats ~config benches)
  in
  let calls = suite.Harness.Capture.suite_calls in
  Printf.printf "   captured %d calls in %.1fs\n\n%!" (List.length calls) dt;
  capture_seconds := dt;
  phase_times := !phase_times @ [ ("capture", dt) ];
  (calls, suite.Harness.Capture.engine, suite.Harness.Capture.suite_dnf)

(* ----- a standard instance pool for the microbenchmarks ----- *)

(* Re-capture a small pool of live instances (manager kept alive).  The
   kept instances are rooted so the manager's automatic garbage collection
   can reclaim everything else between microbenchmark runs. *)
let pool =
  let man = Bdd.create () in
  let pool = ref [] in
  let keep inst =
    if not (Minimize.Ispec.trivial man inst) && List.length !pool < 60 then begin
      Bdd.ref_ man inst.Minimize.Ispec.f;
      Bdd.ref_ man inst.Minimize.Ispec.c;
      pool := inst :: !pool
    end
  in
  List.iter
    (fun name ->
       let b = Option.get (Circuits.Registry.find name) in
       match
         Fsm.Equiv.check_self man
           ~on_instance:(fun ~iteration:_ i -> keep i)
           ~on_image_constrain:(fun ~iteration:_ i -> keep i)
           (b.Circuits.Registry.build ())
       with
       | Fsm.Equiv.Equivalent _ -> ()
       | Fsm.Equiv.Not_equivalent _ -> assert false)
    [ "tlc"; "gray6"; "rnd344" ];
  (man, !pool)

(* ----- Bechamel plumbing ----- *)

open Bechamel
open Toolkit

let run_benchmarks group tests =
  if skip_micro then ()
  else begin
    Printf.printf "-- microbenchmarks: %s --\n%!" group;
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw =
      Benchmark.all cfg instances (Test.make_grouped ~name:group tests)
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
    List.iter
      (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> Printf.printf "   %-44s %12.0f ns/run\n" name est
         | _ -> Printf.printf "   %-44s (no estimate)\n" name)
      (List.sort compare rows);
    print_newline ()
  end

let staged = Staged.stage

(* ----- Table 1: matching criteria ----- *)

let table1 () =
  print_endline (Harness.Tables.render_table1 ());
  let man, instances = pool in
  let pairs =
    match instances with
    | a :: b :: rest -> List.combine (a :: b :: rest) (rest @ [ a; b ])
    | _ -> []
  in
  let bench crit =
    Test.make
      ~name:("match_" ^ Minimize.Matching.name crit)
      (staged (fun () ->
           List.iter
             (fun (s1, s2) ->
                ignore (Minimize.Matching.matches man crit s1 s2))
             pairs))
  in
  run_benchmarks "table1-criteria" (List.map bench Minimize.Matching.all)

(* ----- Table 2: sibling heuristics ----- *)

let table2 () =
  print_endline (Harness.Tables.render_table2 ());
  let man, instances = pool in
  let bench h =
    Test.make
      ~name:(Minimize.Sibling.heuristic_name h)
      (staged (fun () ->
           List.iter
             (fun s ->
                (* §4.1.1 fairness: flush the computed cache AND sweep
                   the unique table down to the rooted instances, so no
                   heuristic inherits warm caches or interned
                   intermediates from the one timed before it. *)
                Bdd.clear_caches man;
                ignore (Bdd.gc man);
                ignore (Minimize.Sibling.run_heuristic man h s))
             instances))
  in
  run_benchmarks "table2-sibling-heuristics"
    (List.map bench Minimize.Sibling.all_heuristics)

(* ----- Table 3: the main comparison ----- *)

let table3 () =
  print_endline (Harness.Tables.render_table3 ~names calls);
  print_endline (Harness.Tables.render_per_bench ~dnf:suite_dnf calls);
  print_endline (Harness.Tables.render_lower_bound_summary ~names calls);
  (* dual size columns for chain-reduced captures only, keeping the
     plain exhibits byte-identical *)
  (match repr with
   | `Bdd -> ()
   | `Cbdd -> print_endline (Harness.Tables.render_chain_summary ~names calls));
  let man, instances = pool in
  let bench (e : Minimize.Registry.entry) =
    Test.make ~name:e.name
      (staged (fun () ->
           List.iter
             (fun s ->
                (* §4.1.1 fairness, as in table 2: cold caches and a
                   swept unique table for every timed heuristic. *)
                Bdd.clear_caches man;
                ignore (Bdd.gc man);
                ignore (e.run (Minimize.Ctx.of_man man) s))
             instances))
  in
  run_benchmarks "table3-all-minimizers"
    (List.map bench Minimize.Registry.all)

(* ----- Table 4: head-to-head ----- *)

let table4 () =
  print_endline (Harness.Tables.render_table4 calls);
  run_benchmarks "table4-analysis"
    [
      Test.make ~name:"head_to_head_matrix"
        (staged (fun () ->
             ignore
               (Harness.Stats.head_to_head
                  ~names:
                    [ "f_orig"; "const"; "restr"; "osm_bt"; "tsm_td";
                      "opt_lv"; "min" ]
                  calls)));
    ]

(* ----- Figure 3: robustness curves ----- *)

let figure3 () =
  print_endline (Harness.Tables.render_figure3 calls);
  run_benchmarks "figure3-analysis"
    [
      Test.make ~name:"within_curves"
        (staged (fun () ->
             List.iter
               (fun n ->
                  ignore
                    (Harness.Stats.within_curve ~name:n
                       ~percents:[ 0; 20; 40; 60; 80; 100 ]
                       calls))
               [ "f_orig"; "const"; "restr"; "tsm_td"; "opt_lv" ]));
    ]

(* ----- Ablations beyond the paper's exhibits ----- *)

let ablations () =
  let man, instances = pool in
  print_endline "== Ablations ==\n";
  (* Schedule parameters (the experiment §3.4 leaves open). *)
  let total name run =
    let sum =
      List.fold_left (fun acc s -> acc + Bdd.size man (run s)) 0 instances
    in
    Printf.printf "   %-40s total size %6d\n%!" name sum
  in
  total "constrain" (fun s ->
      Bdd.constrain man s.Minimize.Ispec.f s.Minimize.Ispec.c);
  List.iter
    (fun (w, stop, levels) ->
       let params =
         {
           Minimize.Schedule.default_params with
           Minimize.Schedule.window_size = w;
           stop_top_down = stop;
           use_level_matching = levels;
         }
       in
       total
         (Printf.sprintf "schedule w=%d stop=%d levels=%b" w stop levels)
         (fun s -> Minimize.Schedule.run man ~params s))
    [ (2, 4, false); (4, 6, false); (8, 8, false); (4, 6, true) ];
  (* Clique-cover optimizations of §3.3.2. *)
  List.iter
    (fun (degree, dist) ->
       let params =
         {
           Minimize.Level.default_params with
           Minimize.Level.order_by_degree = degree;
           use_distance_weights = dist;
           set_limit = Some 512;
         }
       in
       total
         (Printf.sprintf "opt_lv degree_order=%b dist_weights=%b" degree dist)
         (fun s -> Minimize.Level.opt_lv man ~params s))
    [ (true, true); (false, true); (true, false); (false, false) ];
  print_newline ();
  (* Static variable orderings (Symbolic.ordering). *)
  List.iter
    (fun bench_name ->
       let b = Option.get (Circuits.Registry.find bench_name) in
       let nl = b.Circuits.Registry.build () in
       let size ordering =
         let m = Bdd.create () in
         Fsm.Symbolic.shared_node_count (Fsm.Symbolic.of_netlist ~ordering m nl)
       in
       Printf.printf
         "   ordering %-10s interleaved=%-6d topological=%-6d inputs_first=%d\n%!"
         bench_name
         (size Fsm.Symbolic.Interleaved)
         (size Fsm.Symbolic.Topological)
         (size Fsm.Symbolic.Inputs_first))
    [ "tlc"; "minmax4"; "rnd344"; "mult4b" ];
  print_newline ();
  (* The §1 resynthesis flow: symbolic size before/after exploiting the
     unreachable-state don't cares. *)
  List.iter
    (fun bench_name ->
       let b = Option.get (Circuits.Registry.find bench_name) in
       let nl = b.Circuits.Registry.build () in
       let man = Bdd.create () in
       let nl2, _ = Fsm.Synth.resynthesize man nl in
       let size nl =
         let m = Bdd.create () in
         Fsm.Symbolic.shared_node_count (Fsm.Symbolic.of_netlist m nl)
       in
       Printf.printf "   resynthesis %-10s %d -> %d nodes\n%!" bench_name
         (size nl) (size nl2))
    [ "bcd2"; "tlc"; "johnson8"; "rnd344" ];
  print_newline ();
  (* Sifting (variable reordering) on the machines' symbolic functions. *)
  List.iter
    (fun bench_name ->
       let b = Option.get (Circuits.Registry.find bench_name) in
       let nl = b.Circuits.Registry.build () in
       let m = Bdd.create () in
       let sym = Fsm.Symbolic.of_netlist m nl in
       let fns =
         Array.to_list sym.Fsm.Symbolic.next_fns
         @ List.map snd sym.Fsm.Symbolic.output_fns
       in
       let before = Bdd.shared_size m fns in
       let _, after = Bdd.Reorder.sift m fns in
       Printf.printf "   sifting %-10s %6d -> %6d nodes\n%!" bench_name before
         after)
    [ "tlc"; "bcd2"; "rnd344"; "minmax4" ];
  print_newline ();
  (* Image strategies. *)
  let bench_image strategy name =
    Test.make ~name
      (staged (fun () ->
           let man = Bdd.create () in
           let sym =
             Fsm.Symbolic.of_netlist man (Circuits.Gray.make ~width:5)
           in
           ignore (Fsm.Reach.reachable ~strategy sym)))
  in
  run_benchmarks "ablation-image-strategies"
    [
      bench_image Fsm.Image.Monolithic "reach_monolithic";
      bench_image Fsm.Image.Partitioned "reach_partitioned";
      bench_image Fsm.Image.Clustered "reach_clustered";
      bench_image Fsm.Image.Range "reach_range";
    ]

(* ----- Per-phase time breakdown ----- *)

(* A separate, small traced run: tracing adds per-window size traversals,
   so the main capture above stays untraced and its timings honest. *)
let phase_breakdown () =
  print_endline "== Per-phase time breakdown (traced capture of tlc) ==\n";
  let b = Option.get (Circuits.Registry.find "tlc") in
  let sink = Obs.Trace.memory () in
  let config =
    Harness.Capture.(default_config |> with_max_calls (min max_calls 50))
  in
  ignore
    (Obs.Trace.with_sink sink (fun () -> Harness.Capture.run_bench ~config b));
  Format.printf "%a@." Obs.Report.pp
    (Obs.Report.of_events (Obs.Trace.events sink));
  Format.printf "@.%a@." Obs.Probe.pp ()

(* ----- Engine statistics of the shared pool manager ----- *)

let engine_stats () =
  let man, _ = pool in
  print_endline "== Engine statistics (instance pool manager) ==\n";
  Format.printf "%a@.@." Bdd.Stats.pp (Bdd.snapshot man);
  let reclaimed = Bdd.gc man in
  let s = Bdd.snapshot man in
  Printf.printf
    "   explicit gc: reclaimed %d dead nodes (%d live remain, %d rooted \
     instances)\n\n"
    reclaimed s.Bdd.Stats.live_nodes s.Bdd.Stats.external_refs

(* ----- Serve phase: in-process daemon load generation ----- *)

let serve_enabled = Sys.getenv_opt "BDDMIN_BENCH_SERVE" <> Some "0"

let serve_clients =
  Option.value (env_pos_int "BDDMIN_BENCH_SERVE_CLIENTS") ~default:4

let serve_requests =
  Option.value (env_pos_int "BDDMIN_BENCH_SERVE_REQUESTS") ~default:150

let serve_stats : Harness.Bench_json.serve_stats option ref = ref None

let serve_phase () =
  Printf.printf
    "== Serve load generation (%d clients x %d requests, in-process daemon) \
     ==\n%!"
    serve_clients serve_requests;
  let stats =
    Serve.Loadgen.run ~clients:serve_clients ~requests:serve_requests
      ~explain:true ()
  in
  Format.printf "%a@.@." Serve.Loadgen.pp stats;
  serve_stats :=
    Some
      {
        Harness.Bench_json.serve_clients = stats.Serve.Loadgen.clients;
        serve_requests = stats.Serve.Loadgen.requests;
        serve_workers = stats.Serve.Loadgen.workers;
        serve_seconds = stats.Serve.Loadgen.seconds;
        serve_rps = stats.Serve.Loadgen.rps;
        serve_p50_ms = stats.Serve.Loadgen.p50_ms;
        serve_p95_ms = stats.Serve.Loadgen.p95_ms;
        serve_p99_ms = stats.Serve.Loadgen.p99_ms;
        serve_mean_ms = stats.Serve.Loadgen.mean_ms;
        serve_ok = stats.Serve.Loadgen.ok;
        serve_dnf = stats.Serve.Loadgen.dnf;
        serve_partial = stats.Serve.Loadgen.partial;
        serve_busy = stats.Serve.Loadgen.busy;
        serve_errors = stats.Serve.Loadgen.errors;
        serve_telemetry =
          Option.map
            (fun (t : Serve.Loadgen.telemetry) ->
               {
                 Harness.Bench_json.serve_explained = t.explained;
                 serve_queue_us_mean = t.queue_us_mean;
                 serve_exec_us_mean = t.exec_us_mean;
                 serve_write_us_mean = t.write_us_mean;
               })
            stats.Serve.Loadgen.telemetry;
        serve_server =
          Option.map
            (fun (c : Serve.Loadgen.server_counters) ->
               {
                 Harness.Bench_json.serve_cache_hits = c.cache_hits;
                 serve_cache_canonical_hits = c.cache_canonical_hits;
                 serve_cache_misses = c.cache_misses;
                 serve_cache_collapsed = c.cache_collapsed;
                 serve_cache_evicted = c.cache_evicted;
                 serve_sessions_opened = c.sessions_opened;
                 serve_sessions_evicted = c.sessions_evicted;
                 serve_batches = c.batches;
                 serve_batched_requests = c.batched_requests;
                 serve_busy_replies = c.busy_replies;
               })
            stats.Serve.Loadgen.server;
      }

(* ----- CBDD ablation: the quick suite under chain reduction -----

   The quick sub-suite is re-captured with every benchmark manager in
   the chain-reduced representation and compared, call by call, against
   the main capture: the minimization verdicts (winning heuristic and
   every plain-equivalent size) must be identical, while the physical
   node counts shrink wherever OR chains compress.  Captures are
   deterministic, so the calls of a shared benchmark line up
   positionally. *)

let cbdd_enabled = Sys.getenv_opt "BDDMIN_BENCH_CBDD" <> Some "0"

let cbdd_stats : Harness.Bench_json.cbdd_stats option ref = ref None

let cbdd_phase () =
  Printf.printf
    "== CBDD ablation (quick suite re-captured under chain reduction) ==\n%!";
  let (suite : Harness.Capture.suite), dt =
    Obs.Clock.timed (fun () ->
        Harness.Capture.run_suite_stats
          ~config:(Harness.Capture.with_repr `Cbdd config)
          Circuits.Registry.quick)
  in
  let ccalls = suite.Harness.Capture.suite_calls in
  let by_bench cs b =
    List.filter (fun (c : Harness.Capture.call) -> c.bench = b) cs
  in
  let verdicts_identical =
    List.for_all
      (fun (b : Circuits.Registry.bench) ->
         let name = b.Circuits.Registry.name in
         let plain = by_bench calls name and chain = by_bench ccalls name in
         List.length plain = List.length chain
         && List.for_all2
              (fun (p : Harness.Capture.call) (c : Harness.Capture.call) ->
                 p.min_size = c.min_size && p.min_name = c.min_name
                 && p.sizes = c.sizes)
              plain chain)
      Circuits.Registry.quick
  in
  let plain_total =
    List.fold_left
      (fun acc (c : Harness.Capture.call) -> acc + c.min_size)
      0 ccalls
  in
  let chain_total =
    List.fold_left
      (fun acc (c : Harness.Capture.call) ->
         acc
         + Option.value ~default:c.min_size
             (List.assoc_opt c.min_name c.chain_sizes))
      0 ccalls
  in
  Printf.printf
    "   %d calls in %.1fs  min total: plain %d, chain-aware %d (%.2fx)  \
     verdicts %s\n\n%!"
    (List.length ccalls) dt plain_total chain_total
    (if chain_total > 0 then
       float_of_int plain_total /. float_of_int chain_total
     else 1.0)
    (if verdicts_identical then "identical" else "DIVERGED");
  cbdd_stats :=
    Some
      {
        Harness.Bench_json.cbdd_calls = List.length ccalls;
        cbdd_plain_total = plain_total;
        cbdd_chain_total = chain_total;
        cbdd_seconds = dt;
        cbdd_verdicts_identical = verdicts_identical;
      }

(* ----- machine-readable baseline: BENCH_engine.json -----

   Schema and field meanings are documented in [Harness.Bench_json]; the
   [engine] section sums the capture suite's per-benchmark manager
   statistics.  Committed snapshots of this file are the perf
   trajectory: every PR regenerates it (make bench-json) and diffs
   against the predecessor. *)

let emit_bench_json path =
  Harness.Bench_json.write ?serve:!serve_stats ?cbdd:!cbdd_stats ~repr ~path ~jobs ~quick ~max_calls
    ~image:(Fsm.Image.strategy_name image_strategy)
    ~limits:config.Harness.Capture.limits
    ~benches:(List.length benches) ~capture_seconds:!capture_seconds
    ~phases:!phase_times ~names ~engine:suite_stats ~dnf:suite_dnf calls;
  Printf.printf "wrote %s\n" path

let () =
  Printf.printf
    "bddmin benchmark harness — reproduction of Shiple et al., DAC 1994\n\
     ===================================================================\n\n";
  timed_phase "table1" table1;
  timed_phase "table2" table2;
  timed_phase "table3" table3;
  timed_phase "table4" table4;
  timed_phase "figure3" figure3;
  timed_phase "ablations" ablations;
  timed_phase "phase_breakdown" phase_breakdown;
  timed_phase "engine_stats" engine_stats;
  if cbdd_enabled then timed_phase "cbdd" cbdd_phase;
  if serve_enabled then timed_phase "serve" serve_phase;
  emit_bench_json json_path;
  print_endline "done."
