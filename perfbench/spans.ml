(* In-memory span recorder for the traced pass.

   Every public library call the benchmark makes is wrapped in a span
   named "<layer>.<call>": name, wall-clock start and end, the
   enclosing span and the run (pass) it belongs to.  Spans are kept in
   memory and only written out when the benchmark ends, so recording
   costs two clock reads and one allocation per call.

   A layer's self time is the duration of its spans minus the part
   covered by their child spans.  Spans are recorded from the calling
   domain only, so children always nest inside their parent. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  run : int;
  start : float;
  stop : float;
}

type t = {
  t0 : float;
  mutable next : int;
  mutable stack : int list;
  mutable run : int;
  mutable spans : span list;  (** newest first *)
}

let create () =
  { t0 = Measure.now (); next = 1; stack = []; run = 0; spans = [] }

let set_run t run = t.run <- run

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start = Measure.now () in
  let close () =
    let stop = Measure.now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; run = t.run; start; stop } :: t.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* What the workloads call: a no-op when tracing is off. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let off = { span = (fun _ f -> f ()) }
let tracer t = { span = (fun name f -> record t name f) }

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type layer_row = { layer_name : string; calls : int; total_s : float; self_s : float }

let self_times ?(keep = fun (_ : span) -> true) t =
  let spans = List.filter keep t.spans in
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent) in
        Hashtbl.replace child_s s.parent (prev +. (s.stop -. s.start)))
    spans;
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id) in
      let l = layer s.name in
      let calls, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows l)
      in
      Hashtbl.replace rows l (calls + 1, total +. dur, selfs +. self))
    spans;
  Hashtbl.fold
    (fun layer_name (calls, total_s, self_s) acc ->
      { layer_name; calls; total_s; self_s } :: acc)
    rows []
  |> List.sort (fun a b -> compare b.self_s a.self_s)

(* Total duration of the spans called [name] that satisfy [keep]. *)
let sum_s ?(keep = fun (_ : span) -> true) t name =
  List.fold_left
    (fun acc s -> if s.name = name && keep s then acc +. (s.stop -. s.start) else acc)
    0.0 t.spans

let render_self_times rows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-10s %8s %12s %12s %7s\n" "layer" "spans" "total_s" "self_s" "self%");
  let all = List.fold_left (fun acc r -> acc +. r.self_s) 0.0 rows in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-10s %8d %12.6f %12.6f %6.1f%%\n" r.layer_name r.calls
           r.total_s r.self_s
           (if all > 0.0 then 100.0 *. r.self_s /. all else 0.0)))
    rows;
  Buffer.contents b

(* Chrome trace-event JSON (a JSON array of 'X' events), loadable by
   Perfetto and chrome://tracing.  Timestamps are microseconds since
   the recorder was created; each run gets its own thread lane. *)
let write_chrome t path =
  let oc = open_out path in
  let sink = Ocd_obs.Sink.jsonl oc in
  let us x = int_of_float (Float.round ((x -. t.t0) *. 1e6)) in
  List.iter
    (fun s ->
      Ocd_obs.Sink.emit sink
        {
          Ocd_obs.Sink.name = s.name;
          ph = 'X';
          ts = us s.start;
          dur = max 0 (us s.stop - us s.start);
          id = 0;
          pid = 1;
          tid = s.run;
          args =
            [
              ("layer", Ocd_obs.Sink.String (layer s.name));
              ("span", Ocd_obs.Sink.Int s.id);
              ("parent", Ocd_obs.Sink.Int s.parent);
              ("run", Ocd_obs.Sink.Int s.run);
            ];
        })
    (List.rev t.spans);
  Ocd_obs.Sink.close sink;
  close_out oc
