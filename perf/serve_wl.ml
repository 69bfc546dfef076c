(* Workload [serve]: a seeded open loop at a fixed arrival rate against a
   [bddmin serve --workers 2] process on a unix socket.  The daemon runs
   as its own process because an OCaml 5 minor collection stops every
   domain of a process: in-process, the generator's allocation would
   stall the daemon's workers.  One generator process drives at most two
   connections (the second owns the session), pipelining requests, and
   times each request from the moment it was due, so a stall also
   charges the requests queued behind it.

   Traffic classes (see [pattern] for their order):
   - miss: unique 12-variable payloads (~21 KB), a fresh-manager [sched];
   - hit: a hot set sent once during set-up, so the result cache answers;
   - small: unique 8-variable payloads (~1.8 KB), below the daemon's
     batch threshold, so they take the batch path;
   - session: minimizes against a session opened on its own connection;
   - canonical: a hot function re-serialized from a differently built
     manager, so only the canonical cache key matches.
   Payloads are [Serve.Loadgen.build_payload]'s dense random truth
   tables. *)

open Common
module J = Serve.Json
module P = Serve.Protocol

let classes = [ "miss"; "hit"; "small"; "session"; "canonical" ]

(* One cycle of the schedule, one slot per 1/[rate] s.  The mix is
   synthetic: the repository records no served traffic (the committed
   engine baseline's serve phase cycles eight payloads, so 128 of its
   150 requests are cache hits).  The shares are chosen for steadiness.
   Hits and small payloads make up 44% of the requests and canonical
   hits the next 24%, so p50 falls inside the canonical class and p95
   inside the miss class rather than on a boundary between classes.  A
   hit or a small request takes 1-2 ms, mostly the host's thread
   wake-up time, and with p50 among them it spread by 23% between runs;
   a canonical hit parses and re-serializes its payload, about 5 ms of
   computation.  The order is fixed and the slow classes are spaced
   apart: with a shuffled order, how often two misses happened to
   coincide varied between seeds and spread p50 and p95 by about 20%.
   With 60% heavy requests, the two workers overlapped often and p95
   spread by a third.

   So only the canonical and miss paths are gated end to end.  A
   regression on the hit, small or session path shows in its per-layer
   figures ([serve.<class>.*]), and in p50 only once it makes those
   requests slower than a canonical hit. *)
let pattern =
  [| "miss"; "hit"; "canonical"; "small"; "miss"; "hit"; "session"; "small";
     "miss"; "hit"; "canonical"; "hit"; "miss"; "canonical"; "small"; "hit";
     "miss"; "canonical"; "session"; "hit"; "miss"; "canonical"; "small";
     "hit"; "canonical" |]

let cycle_len = Array.length pattern

(* The first 250 requests (5 s) warm the fresh daemon up (its heap
   grows, its caches fill) and are left out of the latency figures: over
   its first five seconds the daemon answered 20-50% slower than
   afterwards.  Runs too short for twice as many keep every request. *)
let warm_up = 10 * cycle_len

let measured all =
  if Array.length all >= 2 * warm_up then
    Array.sub all warm_up (Array.length all - warm_up)
  else all
let rate = 50.0 (* requests per second *)
let hot_set = 4
let setups_before = 3
let setups_after = 3
let workers = 2

let per_layer =
  List.concat_map
    (fun c ->
       [ ("serve." ^ c ^ ".p50_ms", "ms"); ("serve." ^ c ^ ".p95_ms", "ms");
         ("serve." ^ c ^ ".exec_us", "us"); ("serve." ^ c ^ ".write_us", "us") ])
    classes
  @ [ ("serve.encode_us", "us"); ("serve.decode_us", "us");
      ("serve.cache.hits", "count"); ("serve.cache.misses", "count");
      ("serve.cache.collapsed", "count"); ("serve.cache.canonical_hits", "count");
      ("serve.cache.evicted", "count"); ("serve.cache.hit_ratio", "ratio");
      ("serve.batches", "count"); ("serve.batch_items", "count");
      ("serve.batch_mean_size", "count"); ("serve.sessions_opened", "count");
      ("serve.sessions_evicted", "count"); ("serve.busy_replies", "count");
      ("serve.loadgen.late_ms", "ms"); ("exec.queue_us.p50", "us");
      ("exec.queue_us.p95", "us"); ("bdd.create_ms", "ms");
      ("bdd.store.load_ms", "ms"); ("bdd.store.canon_ms", "ms");
      ("minimize.sched_ms", "ms"); ("bdd.store.save_ms", "ms");
      ("serve.exec_gap_ms", "ms") ]

(* ----- inputs ----- *)

type req = {
  id : int;
  cls : string;
  due_ns : int64;  (** offset from the start of the loop *)
  payload : string;  (** Store text of f and c; the session's for session *)
}

(* The same function as [text], serialized from a manager whose node ids
   were shifted by [shift] unrelated nodes first. *)
let reserialize text shift =
  let man = Bdd.create () in
  for i = 0 to shift - 1 do
    ignore (Bdd.ithvar man (20 + i))
  done;
  match Bdd.Store.load man text with
  | Ok roots -> Bdd.Store.save man roots
  | Error e -> failwith ("reserialize: " ^ e)

type inputs = {
  hot : string array;
  canonical_base : string;
  session_payload : string;
  reqs : req array;
}

let make_inputs ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let build nvars k =
    Serve.Loadgen.build_payload ~nvars ~seed:((seed * 1_000_003) + k)
  in
  let hot = Array.init hot_set (fun k -> build 12 k) in
  let canonical_base = build 12 hot_set in
  let session_payload = build 12 (hot_set + 1) in
  let n = int_of_float (seconds *. rate) in
  let fresh = ref (hot_set + 2) and shifts = ref 0 in
  let next r = incr r; !r in
  let reqs =
    Array.init n (fun i ->
        let cls = pattern.(i mod cycle_len) in
        let payload =
          match cls with
          | "miss" -> build 12 (next fresh)
          | "small" -> build 8 (next fresh)
          | "hit" -> hot.(Random.State.int rng hot_set)
          | "canonical" -> reserialize canonical_base (next shifts)
          | _ -> session_payload
        in
        {
          id = 1000 + i;
          cls;
          due_ns = Int64.of_float (float_of_int i /. rate *. 1e9);
          payload;
        })
  in
  { hot; canonical_base; session_payload; reqs }

(* ----- the daemon ----- *)

type daemon = { pid : int; addr : Serve.Client.addr }

let rec wait_ready addr deadline =
  match Serve.Client.connect addr with
  | c ->
    let ok =
      match Serve.Client.ping c with Ok r -> r.P.status = "ok" | Error _ -> false
    in
    Serve.Client.close c;
    if not ok then failwith "daemon did not answer ping"
  | exception Unix.Unix_error _ ->
    if secs_since deadline > 0.0 then failwith "daemon did not start";
    Unix.sleepf 0.005;
    wait_ready addr deadline

let start_daemon ~exe ~workdir ~tag =
  let sock = Filename.concat workdir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) tag) in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat workdir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--unix"; sock; "--workers"; string_of_int workers |]
      devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  let addr = Serve.Client.Unix_path sock in
  let d = { pid; addr } in
  (try wait_ready addr (Int64.add (now_ns ()) 30_000_000_000L)
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  d

let stop_daemon d =
  (match Serve.Client.connect d.addr with
   | c ->
     ignore (Serve.Client.shutdown c);
     Serve.Client.close c
   | exception Unix.Unix_error _ -> ());
  (* the daemon drains and exits; make sure of it *)
  let t0 = now_ns () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if secs_since t0 > 10.0 then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  match d.addr with
  | Serve.Client.Unix_path p -> (try Sys.remove p with Sys_error _ -> ())
  | Serve.Client.Tcp _ -> ()

let request_ok c fields =
  match Serve.Client.request c fields with
  | Ok r when r.P.status = "ok" -> r
  | Ok r -> failwith ("set-up request failed: " ^ r.P.status)
  | Error e -> failwith ("set-up request failed: " ^ e)

let minimize_fields text =
  [ ("op", J.Str "minimize"); ("bdd", J.Str text); ("heuristic", J.Str "sched") ]

(* Warm the result cache with the hot set and the canonical function,
   and open the session on its own connection. *)
let warm d inputs =
  let c = Serve.Client.connect d.addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  Array.iter (fun t -> ignore (request_ok c (minimize_fields t))) inputs.hot;
  ignore (request_ok c (minimize_fields inputs.canonical_base))

let open_session d inputs =
  let c = Serve.Client.connect d.addr in
  match Serve.Client.session_open c inputs.session_payload with
  | Ok (`Session sid) -> (c, sid)
  | Error e ->
    Serve.Client.close c;
    failwith ("session_open failed: " ^ e)

(* ----- the open loop ----- *)

type result = {
  r : req;
  sent_ns : int64;  (** absolute *)
  reply_ns : int64;
  reply : P.reply option;
  encode_ns : int64;
  decode_ns : int64;
  explained : bool;
  start_abs : int64;  (** absolute time the loop started *)
}

let latency_ms x = ms_of_ns (Int64.sub x.reply_ns (Int64.add x.start_abs x.r.due_ns))

(* [explain] picks the requests that ask the daemon for telemetry. *)
let open_loop ~explain (conn_a : Unix.file_descr) (conn_b : Unix.file_descr) sid reqs =
  let n = Array.length reqs in
  let sent = Array.make n 0L and encode = Array.make n 0L in
  let replies = Hashtbl.create n in
  let known id = Array.exists (fun r -> r.id = id) reqs in
  let start = now_ns () in
  let next = ref 0 and outstanding = ref 0 in
  let give_up = Int64.add start (Int64.of_float ((float_of_int n /. rate +. 60.0) *. 1e9)) in
  let read_one fd =
    match P.read_frame fd with
    | Ok (`Frame payload) ->
      let t_reply = now_ns () in
      let parsed = P.parse_reply payload in
      let dec = Int64.sub (now_ns ()) t_reply in
      (match parsed with
       | Ok reply when known reply.P.reply_id && not (Hashtbl.mem replies reply.P.reply_id) ->
         Hashtbl.replace replies reply.P.reply_id (t_reply, Some reply, dec);
         decr outstanding
       | _ -> failwith "serve: unparseable or unknown reply")
    | Ok `Eof -> failwith "serve: daemon closed the connection"
    | Error e -> failwith ("serve: " ^ e)
  in
  while !next < n || !outstanding > 0 do
    let now = now_ns () in
    if Int64.compare now give_up > 0 then failwith "serve: replies did not arrive";
    if !next < n && Int64.compare now (Int64.add start reqs.(!next).due_ns) >= 0 then begin
      let i = !next in
      let r = reqs.(i) in
      let t0 = now_ns () in
      let fd, fields =
        if r.cls = "session" then
          ( conn_b,
            [ ("op", J.Str "minimize"); ("session", J.Str sid);
              ("heuristic", J.Str "sched") ] )
        else (conn_a, minimize_fields r.payload)
      in
      let frame = P.render_request ~id:r.id ~explain:(explain i) fields in
      encode.(i) <- Int64.sub (now_ns ()) t0;
      P.write_frame fd frame;
      sent.(i) <- t0;
      incr next;
      incr outstanding
    end
    else begin
      let timeout =
        if !next < n then
          Float.max 0.0
            (Int64.to_float (Int64.sub (Int64.add start reqs.(!next).due_ns) now) /. 1e9)
        else 0.5
      in
      match Unix.select [ conn_a; conn_b ] [] [] timeout with
      | ready, _, _ -> List.iter read_one ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.mapi
    (fun i r ->
       let reply_ns, reply, decode_ns =
         match Hashtbl.find_opt replies r.id with
         | Some x -> x
         | None -> (0L, None, 0L)
       in
       { r; sent_ns = sent.(i); reply_ns; reply; encode_ns = encode.(i); decode_ns;
         explained = explain i; start_abs = start })
    reqs

(* ----- checks ----- *)

(* Every [ok] reply's cover must lie in its request's interval, and its
   [size] field must be the cover's node count. *)
let check_replies results =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun x ->
       match x.reply with
       | Some reply when reply.P.status = "ok" -> (
           match
             (J.string_field "cover" reply.P.result, J.int_field "size" reply.P.result)
           with
           | Some cover, Some size ->
             let key = (x.r.payload, cover) in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.replace seen key ();
               let man = Bdd.create () in
               match (Bdd.Store.load man x.r.payload, Bdd.Store.load man cover) with
               | Ok spec, Ok [ (_, g) ] -> (
                   match (List.assoc_opt "f" spec, List.assoc_opt "c" spec) with
                   | Some f, Some c ->
                     let inst = Minimize.Ispec.make ~f ~c in
                     check (Minimize.Ispec.is_cover man inst g)
                       "serve: %s request %d: cover outside [f·c, f+¬c]" x.r.cls x.r.id;
                     check
                       (Bdd.Metric.plain_equivalent man g = size)
                       "serve: %s request %d: size %d but the cover has %d nodes" x.r.cls
                       x.r.id size (Bdd.Metric.plain_equivalent man g)
                   | _ -> check false "serve: request %d: payload lacks f or c" x.r.id)
               | _ -> check false "serve: request %d: cover does not load" x.r.id
             end
           | _ -> check false "serve: %s request %d: ok reply without cover" x.r.cls x.r.id)
       | _ -> ())
    results

let ok x = match x.reply with Some r -> r.P.status = "ok" | None -> false

(* One line per request: id, class, status, latency and lateness in ms. *)
let dump_requests path results =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Array.iter
    (fun x ->
       Printf.fprintf oc "%d\t%s\t%s\t%.3f\t%.3f\n" x.r.id x.r.cls
         (match x.reply with Some r -> r.P.status | None -> "none")
         (latency_ms x)
         (ms_of_ns (Int64.sub x.sent_ns (Int64.add x.start_abs x.r.due_ns))))
    results

(* ----- metrics ----- *)

let scrape d =
  let c = Serve.Client.connect d.addr in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  match Serve.Client.metrics c with
  | Ok r when r.P.status = "ok" -> r.P.result
  | _ -> failwith "serve: metrics op failed"

let put_server m =
  let sub o f =
    match J.mem o m with
    | Some obj -> Option.value ~default:0 (J.int_field f obj)
    | None -> 0
  in
  let hits = sub "cache" "hits" and canon = sub "cache" "canonical_hits" in
  let misses = sub "cache" "misses" and collapsed = sub "cache" "collapsed" in
  puti "serve.cache.hits" "count" hits;
  puti "serve.cache.misses" "count" misses;
  puti "serve.cache.collapsed" "count" collapsed;
  puti "serve.cache.canonical_hits" "count" canon;
  puti "serve.cache.evicted" "count" (sub "cache" "evicted");
  put "serve.cache.hit_ratio" "ratio" (ratio (hits + canon) (hits + misses + collapsed));
  let batches = sub "batch" "batches" and items = sub "batch" "requests" in
  puti "serve.batches" "count" batches;
  puti "serve.batch_items" "count" items;
  put "serve.batch_mean_size" "count" (ratio items batches);
  puti "serve.sessions_opened" "count" (sub "sessions" "opened");
  puti "serve.sessions_evicted" "count" (sub "sessions" "evicted");
  puti "serve.busy_replies" "count" (Option.value ~default:0 (J.int_field "busy_replies" m))

let tele field x =
  match x.reply with
  | Some r -> Option.map float_of_int (J.int_field field r.P.telemetry)
  | None -> None

let put_traced results =
  List.iter
    (fun c ->
       let xs = List.filter (fun x -> x.r.cls = c) (Array.to_list results) in
       let lat = List.map latency_ms xs in
       put ("serve." ^ c ^ ".p50_ms") "ms" (percentile lat 50.0);
       put ("serve." ^ c ^ ".p95_ms") "ms" (percentile lat 95.0);
       put ("serve." ^ c ^ ".exec_us") "us" (median (List.filter_map (tele "exec_us") xs));
       put ("serve." ^ c ^ ".write_us") "us" (median (List.filter_map (tele "write_us") xs)))
    classes;
  let all = Array.to_list results in
  put "serve.encode_us" "us" (median (List.map (fun x -> Int64.to_float x.encode_ns /. 1e3) all));
  put "serve.decode_us" "us" (median (List.map (fun x -> Int64.to_float x.decode_ns /. 1e3) all));
  let queue = List.filter_map (tele "queue_us") all in
  put "exec.queue_us.p50" "us" (percentile queue 50.0);
  put "exec.queue_us.p95" "us" (percentile queue 95.0);
  (* spans: one root per answered request, from its due time until its
     reply is decoded *)
  List.iter
    (fun x ->
       if x.reply <> None then begin
         let due = Int64.add x.start_abs x.r.due_ns in
         let decoded = Int64.add x.reply_ns x.decode_ns in
         let root = Span.record ~req:x.r.id "serve.request" due decoded in
         ignore
           (Span.record ~parent:root ~req:x.r.id "wire.encode" x.sent_ns
              (Int64.add x.sent_ns x.encode_ns));
         ignore (Span.record ~parent:root ~req:x.r.id "wire.decode" x.reply_ns decoded)
       end)
    all

(* In-process replay of the first [replayed] miss payloads: the
   daemon's miss path (fresh manager, load, canonical key, sched, save)
   timed step by step in this process, to attribute the daemon's exec
   time. *)
let replayed = 60

let replay results =
  let misses =
    List.filteri (fun i _ -> i < replayed)
      (List.filter (fun x -> x.r.cls = "miss") (Array.to_list results))
  in
  let sched =
    match Minimize.Registry.find "sched" with
    | Some e -> e
    | None -> failwith "no sched entry"
  in
  let gc0 = gc_mark () in
  let steps =
    List.map
      (fun x ->
         let man, t_create = timed (fun () -> Bdd.create ()) in
         let roots, t_load =
           timed (fun () ->
               match Bdd.Store.load man x.r.payload with
               | Ok roots -> roots
               | Error e -> failwith e)
         in
         let f = List.assoc "f" roots and c = List.assoc "c" roots in
         let _, t_canon = timed (fun () -> Bdd.Store.save man [ ("f", f); ("c", c) ]) in
         let inst = Minimize.Ispec.make ~f ~c in
         let g, t_sched =
           timed (fun () -> Minimize.Registry.run sched (Minimize.Ctx.of_man man) inst)
         in
         let _, t_save = timed (fun () -> Bdd.Store.save man [ ("g", g) ]) in
         (t_create, t_load, t_canon, t_sched, t_save, Bdd.snapshot man))
      misses
  in
  let gc1 = gc_mark () in
  let med sel = 1000.0 *. median (List.map sel steps) in
  let create = med (fun (a, _, _, _, _, _) -> a) and load = med (fun (_, b, _, _, _, _) -> b) in
  let canon = med (fun (_, _, c, _, _, _) -> c) and sch = med (fun (_, _, _, d, _, _) -> d) in
  let save = med (fun (_, _, _, _, e, _) -> e) in
  put "bdd.create_ms" "ms" create;
  put "bdd.store.load_ms" "ms" load;
  put "bdd.store.canon_ms" "ms" canon;
  put "minimize.sched_ms" "ms" sch;
  put "bdd.store.save_ms" "ms" save;
  let exec_ms =
    median (List.filter_map (tele "exec_us") misses) /. 1000.0
  in
  put "serve.exec_gap_ms" "ms" (exec_ms -. (create +. load +. canon +. sch +. save));
  Option.iter put_engine (sum_stats (List.map (fun (_, _, _, _, _, s) -> s) steps));
  put_gc gc0 gc1

(* ----- the run ----- *)

let run ~seed ~seconds ~trace ~daemon ~workdir =
  (* a large minor heap keeps the generator's own collections short and
     rare, so they seldom delay a send or a read *)
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024 };
  if daemon = "" || not (Sys.file_exists daemon) then
    failwith "serve: --daemon must name the bddmin executable";
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let inputs = make_inputs ~seed ~seconds in
  (* set-up: start a daemon and warm its cache *)
  let setup k =
    timed (fun () ->
        let dk = start_daemon ~exe:daemon ~workdir ~tag:k in
        (try warm dk inputs with e -> stop_daemon dk; raise e);
        dk)
  in
  let setup_only k =
    let dk, t = setup k in
    stop_daemon dk;
    t
  in
  (* Set-up is repeated before the loop, whose daemon is the last one
     started, and again after it.  The host's speed changes over
     seconds: with all repetitions back to back, their median read
     0.15 s in some runs and 0.26 s in others. *)
  let before = List.init (setups_before - 1) (fun k -> setup_only (k + 1)) in
  let d, t_kept = setup setups_before in
  let all, cpu, peak, server =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    let conn_b, sid = open_session d inputs in
    Fun.protect ~finally:(fun () -> Serve.Client.close conn_b) @@ fun () ->
    let conn_a = Serve.Client.connect d.addr in
    Fun.protect ~finally:(fun () -> Serve.Client.close conn_a) @@ fun () ->
    let cpu0 = proc_cpu_s d.pid in
    (* the traced run asks every other request to be explained, so traced
       and untraced requests meet the same load *)
    let explain i = trace && i mod 2 = 1 in
    let all =
      open_loop ~explain conn_a.Serve.Client.fd conn_b.Serve.Client.fd sid inputs.reqs
    in
    let cpu = proc_cpu_s d.pid -. cpu0 in
    (all, cpu, vm_hwm_mb (string_of_int d.pid), scrape d)
  in
  if not trace then begin
    let after = List.init setups_after (fun k -> setup_only (setups_before + 1 + k)) in
    put "setup_s" "s" (median ((t_kept :: before) @ after))
  end;
  check_replies all;
  dump_requests (Filename.concat workdir "serve-requests.tsv") all;
  let attempted = Array.length all in
  let failed = Array.fold_left (fun a x -> if ok x then a else a + 1) 0 all in
  Array.iter
    (fun x ->
       if not (ok x) then
         log "serve: %s request %d: %s" x.r.cls x.r.id
           (match x.reply with
            | Some r -> r.P.status ^ " " ^ Option.value ~default:"" r.P.message
            | None -> "no reply"))
    all;
  if not trace then begin
    (* A request that did not succeed misses any latency limit. *)
    let lat x = if ok x then latency_ms x else Float.max_float in
    (* Percentiles over every request after the warm-up.  Medians of
       percentiles taken per 5 s window spread more between runs (p95:
       18% against 12% over five runs). *)
    let timed = Array.to_list (Array.map lat (measured all)) in
    let start = all.(0).start_abs in
    let last = Array.fold_left (fun a x -> if Int64.compare x.reply_ns a > 0 then x.reply_ns else a) start all in
    put "wall_s" "s" (Int64.to_float (Int64.sub last start) /. 1e9);
    put "p50_ms" "ms" (percentile timed 50.0);
    put "p95_ms" "ms" (percentile timed 95.0);
    put "cpu_ms_per_req" "ms" (1000.0 *. cpu /. float_of_int attempted);
    put "peak_mem_mb" "MB" peak;
    let sum f = Array.fold_left (fun a x ->
        match x.reply with
        | Some r when r.P.status = "ok" -> a + Option.value ~default:0 (J.int_field f r.P.result)
        | _ -> a) 0 all in
    put "min_nodes_ratio" "ratio" (ratio (sum "size") (sum "input_size"));
    log "serve: %d requests, %d timed, %d failed" attempted (List.length timed) failed
  end
  else begin
    put_server server;
    let timed = measured all in
    put_traced timed;
    let late = Array.to_list (Array.map (fun x ->
        ms_of_ns (Int64.sub x.sent_ns (Int64.add x.start_abs x.r.due_ns))) timed) in
    put "serve.loadgen.late_ms" "ms" (percentile late 99.0);
    (* latency the explained half added over the untraced half, scaled
       to the whole run *)
    let traced, untraced = List.partition (fun x -> x.explained) (Array.to_list timed) in
    let mean_lat xs = mean (List.map latency_ms xs) in
    put "trace.overhead_s" "s"
      ((mean_lat traced -. mean_lat untraced) *. float_of_int attempted /. 1000.0);
    replay all;
    put_self ()
  end;
  (attempted, failed)
