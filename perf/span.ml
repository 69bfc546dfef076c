(* The traced run's span recorder.  Spans are recorded by the benchmark
   around its own calls into each layer and kept in memory; the program
   under test is not instrumented ([Obs.Trace] stays disabled, because
   enabling it makes the fixpoint, image and capture code do extra
   traversals).  A span's layer is its name up to the first '.'. *)

type t = {
  name : string;
  parent : int;  (** index of the enclosing span, -1 for a root *)
  req : int;  (** serve request id, -1 elsewhere *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let spans : t array ref = ref [||]
let count = ref 0
let stack : int list ref = ref []

let reset () =
  spans := [||];
  count := 0;
  stack := []

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

(* A span whose interval was measured elsewhere (serve requests overlap,
   so they cannot use the nesting stack). *)
let record ?(parent = -1) ?(req = -1) name start_ns stop_ns =
  push { name; parent; req; start_ns; stop_ns }

let with_span name f =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let i = push { name; parent; req = -1; start_ns = Obs.Clock.now_ns (); stop_ns = 0L } in
  stack := i :: !stack;
  let finish () =
    stack := List.tl !stack;
    !spans.(i).stop_ns <- Obs.Clock.now_ns ()
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let dur s = Int64.sub s.stop_ns s.start_ns

(* Total duration of the spans named [name], in seconds. *)
let total_s name =
  let acc = ref 0L in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.name = name then acc := Int64.add !acc (dur s)
  done;
  Int64.to_float !acc /. 1e9

(* Self time per layer in seconds: each span's duration minus the
   durations of its direct children. *)
let self_by_layer () =
  let self = Array.init !count (fun i -> dur !spans.(i)) in
  for i = 0 to !count - 1 do
    let p = !spans.(i).parent in
    if p >= 0 then self.(p) <- Int64.sub self.(p) (dur !spans.(i))
  done;
  let tbl = Hashtbl.create 8 in
  for i = 0 to !count - 1 do
    let l = layer !spans.(i).name in
    let prev = Option.value ~default:0L (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (Int64.add prev self.(i))
  done;
  Hashtbl.fold (fun l ns acc -> (l, Int64.to_float ns /. 1e9) :: acc) tbl []

(* Write the spans as JSON lines, one per span. *)
let dump path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
      i s.name s.parent s.req s.start_ns s.stop_ns
  done
