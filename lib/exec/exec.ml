(** Multicore execution: a fixed-size domain pool ({!Pool}), futures
    ({!Future}) and deterministic bounded fan-out ({!map}).

    The design target is the experiment harness's embarrassingly
    parallel shape — a matrix of independent jobs, each owning a private
    BDD manager — so the primitives deliberately stop short of work
    stealing or nested parallelism: one queue, [jobs] domains, results
    collected in submission order. *)

module Pool = Pool
module Future = Future
module Cancel = Cancel

let recommended_jobs () = Domain.recommended_domain_count ()

(* [map ~jobs f xs] runs [f] over every element on a fresh pool of
   [jobs] domains and returns the results in list order — determinism is
   the contract: modulo wall-clock readings, the result is element-wise
   identical to [List.map f xs], whatever the interleaving.

   Tracing: workers start with the domain-local null sink, so with
   [jobs > 1] each job is recorded into a private memory buffer and the
   buffers are forwarded to the caller's sink in submission order once
   each job is awaited.  Events keep their original timestamps and
   domain ids, so a chrome trace shows one lane per worker domain.

   If some [f x] raises, the first failing element (in list order)
   re-raises in the caller after the pool drains; later elements still
   run (their results are discarded), and the pool shuts down cleanly
   either way. *)
let map_futures pool f xs =
  (* tracing state is read in the caller's domain: workers start on the
     null sink, so they could not tell whether the caller traces *)
  let tracing = Obs.Trace.enabled () in
  let run x () =
    if tracing then begin
      let buf = Obs.Trace.memory () in
      let r = Obs.Trace.with_sink buf (fun () -> f x) in
      (Obs.Trace.events buf, r)
    end
    else ([], f x)
  in
  let futures = List.map (fun x -> Future.spawn pool (run x)) xs in
  List.map
    (fun fut ->
       let events, r = Future.await fut in
       List.iter Obs.Trace.forward events;
       r)
    futures

let map ?(jobs = 1) f xs =
  if jobs <= 1 then List.map f xs
  else
    Pool.with_pool ~jobs:(min jobs (max 1 (List.length xs))) @@ fun pool ->
    map_futures pool f xs

let iter ?jobs f xs = ignore (map ?jobs (fun x -> f x; ()) xs)
