(* Per-pass accounting, statistics and the result line.

   A pass is one deterministic sweep over a workload's operation list.
   Only the library calls themselves are timed ([timed]); checking
   their outputs happens outside the clock. *)

(* Monotonic seconds, nanosecond resolution. *)
external now : unit -> float = "perfbench_now"

type acc = {
  mutable busy_s : float;  (** wall time inside timed library calls *)
  mutable lat_ms : float list;  (** one sample per timed call *)
  mutable runs : int;  (** runs or solves attempted *)
  mutable failed : int;
  mutable fresh : int;  (** fresh (dst, token) deliveries *)
  mutable data : int;  (** data messages (moves, for schedules) *)
  mutable control : int;
  mutable makespan_sum : float;  (** over completed runs *)
  mutable lb_sum : float;  (** their §5.1 lower bounds *)
  mutable wrong : string list;  (** outputs that failed a check *)
  fp : Buffer.t;  (** deterministic outputs, digested by [finish] *)
  mutable digest : string;
}

let acc () =
  {
    busy_s = 0.0;
    lat_ms = [];
    runs = 0;
    failed = 0;
    fresh = 0;
    data = 0;
    control = 0;
    makespan_sum = 0.0;
    lb_sum = 0.0;
    wrong = [];
    fp = Buffer.create 1024;
    digest = "";
  }

let timed a f =
  let t0 = now () in
  let finish () =
    let dt = now () -. t0 in
    a.busy_s <- a.busy_s +. dt;
    a.lat_ms <- (dt *. 1000.0) :: a.lat_ms
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let print a fmt = Printf.ksprintf (fun s -> Buffer.add_string a.fp s; Buffer.add_char a.fp '\n') fmt
let wrong a fmt = Printf.ksprintf (fun s -> a.wrong <- s :: a.wrong) fmt
let gap a ~makespan ~lb =
  a.makespan_sum <- a.makespan_sum +. makespan;
  a.lb_sum <- a.lb_sum +. lb

(* Digest the pass's outputs and drop them: the harness keeps only
   the digest and the latency samples of each pass. *)
let finish a =
  a.digest <- Digest.to_hex (Digest.string (Buffer.contents a.fp));
  Buffer.reset a.fp;
  a

(* Linear interpolation between order statistics. *)
let quantile xs p = Ocd_prelude.Stats.percentile xs p
let median xs = quantile xs 0.5

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Per-layer values of the traced pass: sums over traced passes,
   divided by the pass count on output. *)
module Layers = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (t : t) name v =
    Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))
  let addi t name v = add t name (float_of_int v)
  let get (t : t) name = Option.value ~default:0.0 (Hashtbl.find_opt t name)
end

(* Sum of probe wall time over the rows whose label satisfies [keep]. *)
let probe_s probe keep =
  List.fold_left
    (fun acc (r : Ocd_obs.Probe.row) ->
      if keep r.Ocd_obs.Probe.label then acc +. r.Ocd_obs.Probe.wall_s else acc)
    0.0 (Ocd_obs.Probe.rows probe)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* The result line: one JSON object, numbers printed with every digit. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
