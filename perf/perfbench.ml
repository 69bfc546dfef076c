(* The repository benchmark: one workload per run, selected by name and
   seeded.  With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] it prints the per-layer metrics of a traced run, whose
   spans it records itself (see [Span]).  Every run checks the outputs
   it measured and exits 1 when a check fails.  The result is the last
   line of stdout; progress goes to stderr.

   Usage (normally through perf/run.py, which builds this program and
   the daemon first):
     perfbench.exe --workload capture|serve --seed N --seconds S
                   --trace 0|1 [--daemon PATH] [--workdir DIR] *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("p50_ms", "ms"); ("p95_ms", "ms");
    ("cpu_ms_per_req", "ms"); ("peak_mem_mb", "MB"); ("min_nodes_ratio", "ratio") ]

let per_layer =
  let entries = Capture_wl.entry_names in
  List.concat_map
    (fun e ->
       [ ("minimize." ^ e ^ ".s", "s"); ("minimize." ^ e ^ ".minor_mw", "Mw");
         ("minimize." ^ e ^ ".nodes", "count") ])
    entries
  @ [ ("minimize.lower_bound.s", "s"); ("minimize.ispec.s", "s");
      ("minimize.cache_hit_rate", "ratio"); ("minimize.cache_lookups", "count");
      ("fsm.driver.s", "s"); ("fsm.iterations", "count");
      ("fsm.image_cofactors", "count") ]
  @ [ ("bdd.cache_lookups", "count"); ("bdd.cache_hit_rate", "ratio");
      ("bdd.cache_evictions", "count"); ("bdd.interned_total", "count");
      ("bdd.peak_live_nodes", "count"); ("bdd.gc_runs", "count");
      ("bdd.gc_reclaimed", "count"); ("bdd.and_recursions", "count");
      ("bdd.and_exists_recursions", "count");
      ("bdd.constrain_recursions", "count"); ("bdd.ite_recursions", "count");
      ("bdd.clear_caches.s", "s");
      ("ocaml.minor_mw", "Mw"); ("ocaml.promoted_mw", "Mw");
      ("ocaml.minor_gcs", "count"); ("ocaml.major_gcs", "count");
      ("ocaml.top_heap_mb", "MB") ]
  @ Serve_wl.per_layer
  @ [ ("trace.overhead_s", "s"); ("self.bench.s", "s"); ("self.fsm.s", "s");
      ("self.minimize.s", "s"); ("self.bdd.s", "s"); ("self.serve.s", "s");
      ("self.wire.s", "s") ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload capture|serve --seed N --seconds S \
     --trace 0|1 [--daemon PATH] [--workdir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref false and daemon = ref "" and workdir = ref ".perfbench" in
  let list_metrics = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--daemon" :: v :: rest -> daemon := v; parse rest
    | "--workdir" :: v :: rest -> workdir := v; parse rest
    | "--list-metrics" :: rest -> list_metrics := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !list_metrics then begin
    List.iter (fun (n, u) -> Printf.printf "%s %s\n" n u) per_layer;
    exit 0
  end;
  if !seed < 0 then usage ();
  let seed = !seed and seconds = !seconds and trace = !trace in
  let attempted, failed =
    match !workload with
    | "capture" -> Capture_wl.run ~seed ~seconds ~trace
    | "serve" -> Serve_wl.run ~seed ~seconds ~trace ~daemon:!daemon ~workdir:!workdir
    | _ -> usage ()
  in
  if trace then begin
    (try Unix.mkdir !workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.dump (Filename.concat !workdir (!workload ^ "-spans.jsonl"))
  end;
  let correct = !problems = [] in
  List.iter (fun p -> log "CHECK FAILED: %s" p) (List.rev !problems);
  print_result ~correct ~attempted ~failed
    ~names:(if trace then per_layer else end_to_end);
  if not correct then exit 1
