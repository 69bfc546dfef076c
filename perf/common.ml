(* Measurement helpers shared by the workloads: clocks, process
   counters, order statistics and the result line. *)

let now_ns = Obs.Clock.now_ns
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
let ms_of_ns ns = Int64.to_float ns /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* CPU seconds (user + system) of this process. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile over unsorted samples. *)
let percentile xs p =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* ----- /proc readers ----- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    Some (Buffer.contents buf)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some text ->
    List.fold_left
      (fun acc line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> (
             match
               List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v))
             with
             | kb :: _ -> (
                 match float_of_string_opt kb with
                 | Some kb -> kb /. 1024.0
                 | None -> acc)
             | [] -> acc)
         | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in clock ticks of 1/100 s on Linux). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some text -> (
      (* the command name (field 2) may hold spaces: split after ')' *)
      match String.rindex_opt text ')' with
      | None -> 0.0
      | Some i -> (
          let rest = String.sub text (i + 2) (String.length text - i - 2) in
          match String.split_on_char ' ' rest with
          | _state :: fields -> (
              (* [fields] starts at field 4 *)
              match (List.nth_opt fields 10, List.nth_opt fields 11) with
              | Some u, Some s ->
                float_of_string u /. 100.0 +. float_of_string s /. 100.0
              | _ -> 0.0)
          | [] -> 0.0))

(* ----- OCaml runtime ----- *)

type gc_mark = { minor_w : float; promoted_w : float; minor_n : int; major_n : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_w = s.Gc.minor_words;
    promoted_w = s.Gc.promoted_words;
    minor_n = s.Gc.minor_collections;
    major_n = s.Gc.major_collections;
  }

(* ----- the result line ----- *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let put name unit_ value = metrics := { name; value; unit_ } :: !metrics
let puti name unit_ n = put name unit_ (float_of_int n)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print the result as the last line of stdout.  [names] fixes the
   order and the set: a metric a workload did not exercise reads 0. *)
let print_result ~correct ~attempted ~failed ~names =
  let find n = List.find_opt (fun m -> m.name = n) !metrics in
  let fields =
    List.map
      (fun (n, u) ->
         let v = match find n with Some m -> m.value | None -> 0.0 in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      names
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)

(* ----- per-layer figures shared by the workloads ----- *)

(* Engine counters summed over several managers; the peak is the
   largest manager's. *)
let sum_stats = function
  | [] -> None
  | (first : Bdd.Stats.t) :: rest ->
    Some
      (List.fold_left
         (fun (acc : Bdd.Stats.t) (s : Bdd.Stats.t) ->
            {
              acc with
              cache_lookups = acc.cache_lookups + s.cache_lookups;
              cache_hits = acc.cache_hits + s.cache_hits;
              cache_evictions = acc.cache_evictions + s.cache_evictions;
              interned_total = acc.interned_total + s.interned_total;
              peak_live_nodes = max acc.peak_live_nodes s.peak_live_nodes;
              gc_runs = acc.gc_runs + s.gc_runs;
              gc_reclaimed = acc.gc_reclaimed + s.gc_reclaimed;
              and_recursions = acc.and_recursions + s.and_recursions;
              and_exists_recursions =
                acc.and_exists_recursions + s.and_exists_recursions;
              constrain_recursions =
                acc.constrain_recursions + s.constrain_recursions;
              ite_recursions = acc.ite_recursions + s.ite_recursions;
            })
         first rest)

let put_engine (st : Bdd.Stats.t) =
  puti "bdd.cache_lookups" "count" st.cache_lookups;
  put "bdd.cache_hit_rate" "ratio" (Bdd.Stats.hit_rate st);
  puti "bdd.cache_evictions" "count" st.cache_evictions;
  puti "bdd.interned_total" "count" st.interned_total;
  puti "bdd.peak_live_nodes" "count" st.peak_live_nodes;
  puti "bdd.gc_runs" "count" st.gc_runs;
  puti "bdd.gc_reclaimed" "count" st.gc_reclaimed;
  puti "bdd.and_recursions" "count" st.and_recursions;
  puti "bdd.and_exists_recursions" "count" st.and_exists_recursions;
  puti "bdd.constrain_recursions" "count" st.constrain_recursions;
  puti "bdd.ite_recursions" "count" st.ite_recursions

let put_gc g0 g1 =
  put "ocaml.minor_mw" "Mw" ((g1.minor_w -. g0.minor_w) /. 1e6);
  put "ocaml.promoted_mw" "Mw" ((g1.promoted_w -. g0.promoted_w) /. 1e6);
  puti "ocaml.minor_gcs" "count" (g1.minor_n - g0.minor_n);
  puti "ocaml.major_gcs" "count" (g1.major_n - g0.major_n);
  put "ocaml.top_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
     /. 1048576.0)

let put_self () =
  List.iter
    (fun (layer, s) -> put ("self." ^ layer ^ ".s") "s" s)
    (Span.self_by_layer ())

(* ----- correctness ----- *)

let problems : string list ref = ref []

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then problems := msg :: !problems) fmt

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ----- seeded machines ----- *)

(* Shapes of the registry's random machines (Circuits.Registry.all).
   Seed 0 keeps the registry's own machines; any other seed replaces
   each random machine's seed and keeps its shape.

   The timed figures of [capture] come from the registry's machines
   alone: a random machine's cost varies so much between seeds that
   seeded machines spread wall_s by 17% between seeds.  Each run instead
   checks the seeded variants once, outside the timing, so every seed
   still brings new inputs to the correctness checks. *)
let random_shapes =
  [ ("rnd344", (9, 4, 3, 344)); ("rnd1488", (8, 5, 3, 1488));
    ("rndstyr", (7, 5, 4, 977)); ("rndtbk", (12, 3, 4, 1066)) ]

let seeded seed (b : Circuits.Registry.bench) =
  match List.assoc_opt b.name random_shapes with
  | Some (latches, inputs, depth, base) when seed <> 0 ->
    let params =
      { Circuits.Random_fsm.latches; inputs; depth; seed = base + (7919 * seed) }
    in
    { b with build = (fun () -> Circuits.Random_fsm.make ~name:b.name params) }
  | _ -> b

let is_random (b : Circuits.Registry.bench) = List.mem_assoc b.name random_shapes

(* A workload's set-up for FSM machines: build each netlist and
   elaborate it symbolically (variables, next-state functions and
   outputs as BDDs) in a fresh manager.  It takes a few milliseconds. *)
let elaborate (benches : Circuits.Registry.bench list) =
  List.iter
    (fun (b : Circuits.Registry.bench) ->
       let man = Bdd.create () in
       ignore (Fsm.Symbolic.of_netlist man (b.build ())))
    benches

(* The host's speed switches between a fast and a slow state every few
   hundred milliseconds, and set-up runs in 5-8 ms.  All repetitions
   taken back to back therefore share one state, and their median read
   either state's figure: two sets of ten runs differed by 37%.  So the
   set-up is sampled between the timed machines of every pass, outside
   their timing.  A sample is the median of three back-to-back
   repetitions (one stray slow repetition does not count), a pass's
   figure is the mean of its samples (it follows the share of slow
   time smoothly), and [setup_s] is the median over passes. *)
let setup_sample f =
  median (List.init 3 (fun _ -> snd (timed f)))

let put_setup per_pass =
  put "setup_s" "s" (median (List.map mean per_pass))

(* Run [pass] repeatedly for about [seconds]: another pass starts only
   if it is expected to end in time, and there is at least one. *)
let repeat_for seconds pass =
  let t0 = now_ns () in
  let rec go acc last =
    let elapsed = secs_since t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else begin
      let p, dt = timed pass in
      go (p :: acc) dt
    end
  in
  go [] 0.0
