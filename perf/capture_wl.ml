(* Workload [capture]: [Harness.Capture.run_suite_stats], which is what
   [bddmin tables] runs, with one job and at most [max_calls] measured
   calls per machine, on every registry machine except the two whose
   fixpoints dwarf their minimization calls (rnd953, mult4b).
   Minimization dominates this workload. *)

open Common

let max_calls = 40
let excluded = [ "rnd953"; "mult4b" ]

let benches =
  List.filter
    (fun (b : Circuits.Registry.bench) -> not (List.mem b.name excluded))
    Circuits.Registry.all

let config =
  Harness.Capture.(default_config |> with_jobs 1 |> with_max_calls max_calls)

let entries = config.Harness.Capture.engine.entries
let entry_names = Minimize.Registry.names entries

type pass = {
  suite : Harness.Capture.suite;
  wall : float;
  machine_ms : float list;  (** time to capture each machine *)
  cpu : float;
  setup : float list;  (** set-up samples taken between machines *)
  gc0 : gc_mark;
  gc1 : gc_mark;
}

(* With [setup], the heap is compacted and a set-up sample taken as each
   machine starts; their time is left out of the pass's wall, CPU and
   machine times. *)
let untraced_pass ?setup benches =
  Gc.compact ();
  let gc0 = gc_mark () in
  let c0 = cpu_s () in
  (* with one job the harness reports each machine's name as it starts
     on it, which marks the machine boundaries *)
  let starts = ref [] and samples = ref [] and sample_cpu = ref 0.0 in
  let progress msg =
    if List.exists (fun (b : Circuits.Registry.bench) -> b.name = msg) benches
    then begin
      let t0 = now_ns () and c = cpu_s () in
      Option.iter
        (fun f ->
           Gc.compact ();
           samples := setup_sample f :: !samples)
        setup;
      sample_cpu := !sample_cpu +. (cpu_s () -. c);
      starts := (t0, now_ns ()) :: !starts
    end
  in
  let t_start = now_ns () in
  let suite = Harness.Capture.run_suite_stats ~config ~progress benches in
  let t_end = now_ns () in
  let cpu = cpu_s () -. c0 -. !sample_cpu in
  (* a machine runs from the end of its sample to the start of the next
     machine's sample *)
  let rec gaps acc next = function
    | (t0, t1) :: rest -> gaps (ms_of_ns (Int64.sub next t1) :: acc) t0 rest
    | [] -> acc
  in
  let machine_ms = gaps [] t_end !starts in
  let sampled = List.fold_left (fun a (t0, t1) -> Int64.add a (Int64.sub t1 t0)) 0L !starts in
  let wall = Int64.to_float (Int64.sub (Int64.sub t_end t_start) sampled) /. 1e9 in
  { suite; wall; machine_ms; cpu; setup = !samples; gc0; gc1 = gc_mark () }

let calls p = p.suite.Harness.Capture.suite_calls

let entry_totals calls =
  List.map
    (fun n ->
       ( n,
         List.fold_left
           (fun acc (c : Harness.Capture.call) ->
              acc + Option.value ~default:0 (List.assoc_opt n c.sizes))
           0 calls ))
    entry_names

let min_total calls =
  List.fold_left (fun acc (c : Harness.Capture.call) -> acc + c.min_size) 0 calls

(* Checks every pass can make from the harness's own rows. *)
let check_pass p =
  let cs = calls p in
  check (p.suite.suite_dnf = []) "capture: a machine did not finish";
  check (cs <> []) "capture: no calls captured";
  List.iter
    (fun (c : Harness.Capture.call) ->
       check (c.dnf = []) "capture: %s call %d did not finish" c.bench c.iteration;
       check (c.low_bd <= c.min_size)
         "capture: %s iteration %d: lower bound %d > min %d" c.bench
         c.iteration c.low_bd c.min_size;
       check
         (List.length c.sizes = List.length entry_names)
         "capture: %s iteration %d: missing entries" c.bench c.iteration)
    cs

(* ----- the traced replica -----

   The same capture loop as [Harness.Capture.measure_call], driven from
   here so that every call into a layer can be timed from outside: the
   fixpoint ([Fsm.Equiv.check_self]), the §4.1.2 filter and instance
   statistics ([Minimize.Ispec]), each registry entry, the lower bound,
   and the cache flushes ([Bdd.clear_caches]).  It also keeps every cover,
   so the interval check [f·c ≤ g ≤ f+¬c] can run on each of them. *)

type traced = {
  totals : (string * int) list;
  ncalls : int;
  t_wall : float;  (** wall time minus the time spent checking *)
  entry_minor_w : (string, float) Hashtbl.t;
  lookups : int;
  hits : int;
  iterations : int;
  image_cofactors : int;
}

let traced_pass benches =
  Span.reset ();
  Gc.full_major ();
  let totals = Hashtbl.create 16 in
  let minor_w = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let ncalls_all = ref 0 and lookups = ref 0 and hits = ref 0 in
  let iterations = ref 0 and image_cofactors = ref 0 in
  let run_bench (b : Circuits.Registry.bench) =
    let man = Bdd.create () in
    let nl = b.build () in
    let ncalls = ref 0 in
    let measure (inst : Minimize.Ispec.t) =
      let covers, low_bd =
        Span.with_span "minimize.call" @@ fun () ->
        let covers =
          List.map
            (fun (e : Minimize.Registry.entry) ->
               Span.with_span "bdd.clear_caches" (fun () -> Bdd.clear_caches man);
               let s0 = Bdd.snapshot man in
               let w0 = Gc.minor_words () in
               let g =
                 Span.with_span ("minimize." ^ e.name) (fun () ->
                     Minimize.Registry.run e (Minimize.Ctx.of_man man) inst)
               in
               add minor_w e.name (Gc.minor_words () -. w0);
               let s1 = Bdd.snapshot man in
               lookups := !lookups + s1.cache_lookups - s0.cache_lookups;
               hits := !hits + s1.cache_hits - s0.cache_hits;
               let size = Bdd.Metric.plain_equivalent man g in
               add totals e.name (float_of_int size);
               (e.name, g, size))
            entries
        in
        let low_bd =
          Span.with_span "minimize.lower_bound" (fun () ->
              Minimize.Lower_bound.compute man
                ~cube_limit:config.engine.lower_bound_cubes inst)
        in
        Span.with_span "minimize.ispec" (fun () ->
            ignore (Bdd.Metric.plain_equivalent man inst.f);
            ignore (Minimize.Ispec.c_onset_fraction man inst));
        (covers, low_bd)
      in
      (* the benchmark's own checks, in a span of their own so that no
         minimize span counts their time *)
      Span.with_span "bench.check" @@ fun () ->
      let min_size = List.fold_left (fun m (_, _, s) -> min m s) max_int covers in
      check (low_bd <= min_size) "capture: %s: lower bound %d > min %d" b.name
        low_bd min_size;
      List.iter
        (fun (name, g, _) ->
           check
             (Minimize.Ispec.is_cover man inst g)
             "capture: %s: %s returned a function outside [f·c, f+¬c]" b.name name)
        covers
    in
    let consider inst =
      if
        !ncalls < config.limits.max_calls
        && not
             (Span.with_span "minimize.ispec" (fun () ->
                  Minimize.Ispec.trivial man inst))
      then begin
        incr ncalls;
        measure inst
      end
    in
    let on_instance ~iteration:_ inst =
      incr iterations;
      consider inst
    in
    let on_image_constrain ~iteration:_ inst =
      incr image_cofactors;
      consider inst
    in
    (Span.with_span "fsm.check_self" @@ fun () ->
     match
       Fsm.Equiv.check_self man ~strategy:config.image.strategy
         ~max_iterations:config.limits.max_iterations ~on_instance
         ~on_image_constrain nl
     with
     | Fsm.Equiv.Equivalent _ -> ()
     | Fsm.Equiv.Not_equivalent _ ->
       check false "capture: %s is not equivalent to itself" b.name);
    ignore (Span.with_span "bdd.gc" (fun () -> Bdd.gc man));
    ncalls_all := !ncalls_all + !ncalls
  in
  let (), wall =
    timed (fun () ->
        Span.with_span "bench.capture" (fun () -> List.iter run_bench benches))
  in
  {
    totals =
      List.map
        (fun n ->
           (n, int_of_float (Option.value ~default:0.0 (Hashtbl.find_opt totals n))))
        entry_names;
    ncalls = !ncalls_all;
    t_wall = wall -. Span.total_s "bench.check";
    entry_minor_w = minor_w;
    lookups = !lookups;
    hits = !hits;
    iterations = !iterations;
    image_cofactors = !image_cofactors;
  }

(* The seeded random machines, through the traced replica so that every
   cover is checked. *)
let check_seeded seed =
  let t = traced_pass (List.map (seeded seed) (List.filter is_random benches)) in
  log "capture: seed %d: %d calls on the random machines checked" seed t.ncalls;
  check (t.ncalls > 0) "capture: seed %d: no calls on the random machines" seed

(* Returns (attempted, failed). *)
let run ~seed ~seconds ~trace =
  if not trace then begin
    (* the first elaboration in a process runs cold *)
    elaborate benches;
    (* the peak after the first pass, as one [bddmin tables] run has it;
       later passes run on the heap the first one grew *)
    let peak = ref 0.0 in
    let passes =
      repeat_for seconds (fun () ->
          let p = untraced_pass ~setup:(fun () -> elaborate benches) benches in
          if !peak = 0.0 then peak := vm_hwm_mb "self";
          log "capture: pass: wall %.3f s, cpu %.3f s" p.wall p.cpu;
          check_pass p;
          p)
    in
    let first = List.hd passes in
    List.iter
      (fun p ->
         check (min_total (calls p) = min_total (calls first))
           "capture: min totals differ between passes")
      passes;
    let ncalls = List.length (calls first) in
    let npasses = List.length passes in
    (* A request is one machine's capture, as [bddmin tables] runs it
       per machine.  Its p50 and p95 fall inside the 7th and the 13th
       machine's cluster of repetitions, whatever the number of passes.
       Latencies of single calls (0.5 ms at p50) spread by up to 30%
       between runs with the host's speed, against 7-14% for whole
       machines. *)
    let machine_ms = List.concat_map (fun p -> p.machine_ms) passes in
    let over_passes f = median (List.map f passes) in
    put_setup (List.map (fun p -> p.setup) passes);
    put "wall_s" "s" (over_passes (fun p -> p.wall));
    put "p50_ms" "ms" (percentile machine_ms 50.0);
    put "p95_ms" "ms" (percentile machine_ms 95.0);
    put "cpu_ms_per_req" "ms"
      (over_passes (fun p -> 1000.0 *. p.cpu /. float_of_int (List.length benches)));
    put "peak_mem_mb" "MB" !peak;
    let f_total =
      List.fold_left (fun a (c : Harness.Capture.call) -> a + c.f_size) 0 (calls first)
    in
    put "min_nodes_ratio" "ratio" (ratio (min_total (calls first)) f_total);
    log "capture: %d passes, %d calls each, %s" npasses ncalls
      (String.concat " "
         (List.map (fun (n, t) -> Printf.sprintf "%s=%d" n t)
            (entry_totals (calls first))));
    (* after the timing, so that its seed-dependent garbage cannot slow
       the timed passes *)
    check_seeded seed;
    (ncalls * npasses, 0)
  end
  else begin
    (* first, because the traced pass keeps only its own spans *)
    check_seeded seed;
    let p = untraced_pass benches in
    check_pass p;
    let t = traced_pass benches in
    (* the overhead compares the traced pass with an untraced pass that
       also runs on a grown heap, not with the first pass *)
    let p2 = untraced_pass benches in
    check_pass p2;
    let untraced_totals = entry_totals (calls p) in
    check (t.ncalls = List.length (calls p))
      "capture: traced run captured %d calls, untraced %d" t.ncalls
      (List.length (calls p));
    List.iter2
      (fun (n, a) (_, b) ->
         check (a = b) "capture: %s totals %d traced vs %d untraced" n a b)
      t.totals untraced_totals;
    List.iter
      (fun (n, nodes) ->
         put ("minimize." ^ n ^ ".s") "s" (Span.total_s ("minimize." ^ n));
         put ("minimize." ^ n ^ ".minor_mw") "Mw"
           (Option.value ~default:0.0 (Hashtbl.find_opt t.entry_minor_w n) /. 1e6);
         puti ("minimize." ^ n ^ ".nodes") "count" nodes)
      t.totals;
    put "minimize.lower_bound.s" "s" (Span.total_s "minimize.lower_bound");
    put "minimize.ispec.s" "s" (Span.total_s "minimize.ispec");
    put "minimize.cache_hit_rate" "ratio" (ratio t.hits t.lookups);
    puti "minimize.cache_lookups" "count" t.lookups;
    put "fsm.driver.s" "s"
      (List.assoc_opt "fsm" (Span.self_by_layer ()) |> Option.value ~default:0.0);
    puti "fsm.iterations" "count" t.iterations;
    puti "fsm.image_cofactors" "count" t.image_cofactors;
    put "bdd.clear_caches.s" "s" (Span.total_s "bdd.clear_caches");
    put_engine p.suite.engine;
    put_gc p.gc0 p.gc1;
    put "trace.overhead_s" "s" (t.t_wall -. p2.wall);
    put_self ();
    (t.ncalls, 0)
  end
