(* perfbench: the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Sets the workload up several times (setup_s is the median), then
   runs untraced passes for S seconds and reports the end-to-end
   metrics.  With --trace 1 it runs untraced passes for S/2 seconds
   and traced passes for the rest, reports the per-layer metrics, and
   writes the spans as Chrome trace-event JSON plus the per-layer
   self-time table into DIR (default perfbench/out).  The last line
   of stdout is one JSON object: correct, attempted, failed, metrics. *)

module M = Measure
module L = Measure.Layers

let end_to_end_units =
  [
    ("setup_s", "s");
    ("runs_per_s", "1/s");
    ("deliveries_per_s", "1/s");
    ("run_ms_p50", "ms");
    ("run_ms_p90", "ms");
    ("failed_frac", "frac");
    ("makespan_gap", "ratio");
    ("goodput", "ratio");
    ("msgs_per_delivery", "ratio");
    ("peak_heap_mb", "MiB");
  ]

let strategy_names = List.map (fun (s : Ocd_engine.Strategy.t) -> s.name) Workloads.strategies
let protocol_names = Ocd_dht.Registry.names
let self_layers = [ "bench"; "topology"; "core"; "engine"; "pool"; "async"; "dht"; "dynamics"; "exact" ]

let per_layer_units =
  [ ("topology.generate_s", "s"); ("core.scenario_s", "s"); ("core.bounds_s", "s") ]
  @ List.map (fun s -> ("engine.run_s." ^ s, "s")) strategy_names
  @ [
      ("engine.decide_s", "s");
      ("engine.apply_s", "s");
      ("engine.post_s", "s");
      ("engine.fresh_per_move", "ratio");
      ("core.validate_s", "s");
      ("core.timeline_s", "s");
      ("core.prune_s", "s");
      ("pool.busy_s", "s");
      ("pool.wait_s", "s");
      ("pool.speedup", "ratio");
    ]
  @ List.map (fun p -> ("async.run_s." ^ p, "s")) protocol_names
  (* next to the runs it used to hide inside *)
  @ [ ("dynamics.transitions_s", "s") ]
  @ [ ("async.events", "count"); ("async.events_per_s", "1/s"); ("sim.event_s", "s") ]
  @ List.map (fun p -> (p ^ ".on_message_s", "s")) protocol_names
  @ [
      ("net.data_msgs", "count");
      ("net.control_msgs", "count");
      ("net.retransmissions", "count");
      ("net.duplicates", "count");
      ("net.drop_frac", "frac");
      ("dht.run_s", "s");
      ("dht.converged_s", "s");
      ("dht.lookups", "count");
      ("dht.mean_hops", "hops");
      ("dht.lookup_fail_frac", "frac");
      ("dht.stores", "count");
      ("dynamics.crashes", "count");
      ("dynamics.suspicions", "count");
      ("dynamics.fault_dropped", "count");
      ("exact.search_focd_s", "s");
      ("exact.search_eocd_s", "s");
      ("exact.ip_focd_s", "s");
      ("exact.budget_exceeded", "count");
      ("exact.exceptions", "count");
      ("exact.tau_mismatch", "count");
      ("obs.trace_overhead_frac", "frac");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) self_layers

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun (Workloads.W w) -> w.Workloads.name) Workloads.all));
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and out = ref "perfbench/out" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | "--out" :: v :: rest -> out := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (Workloads.find !workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    (w, seed, seconds, trace, !out)
  | _ -> usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Passes while at least half of another one fits in [window]
   seconds, so a run ends near its window; always at least one. *)
let passes ~window f =
  let t0 = Measure.now () in
  let rec go acc k =
    let t = Measure.now () in
    let a = f k in
    let t' = Measure.now () in
    if t' -. t0 +. ((t' -. t) /. 2.0) >= window then List.rev (a :: acc) else go (a :: acc) (k + 1)
  in
  go [] 1

let sum f accs = List.fold_left (fun s a -> s + f a) 0 accs
let sumf f accs = List.fold_left (fun s a -> s +. f a) 0.0 accs
let ratio x y = if y = 0.0 then 0.0 else x /. y

(* Every pass times the same calls in the same order, so the i-th
   sample of each pass is the same call: its best time over the passes
   is the call's cost with the least interference from the rest of the
   shared host, whose speed drifts between and within runs. *)
let best_ms accs =
  match List.map (fun a -> a.M.lat_ms) accs with
  | [] -> []
  | first :: rest -> List.fold_left (List.map2 Float.min) first rest

let end_to_end ~setup_s ~peak accs =
  let first = List.hd accs in
  let best = best_ms accs in
  let best_s = List.fold_left ( +. ) 0.0 best /. 1000.0 in
  let fl = float_of_int in
  [
    ("setup_s", setup_s);
    (* per pass, over the best times of its calls *)
    ("runs_per_s", ratio (fl first.M.runs) best_s);
    ("deliveries_per_s", ratio (fl first.M.fresh) best_s);
    ("run_ms_p50", M.quantile best 0.5);
    ("run_ms_p90", M.quantile best 0.9);
    (* over one deterministic pass (every pass has the same
       fingerprint), with the Haldane-Anscombe +1/2 correction so a
       failure-free pass reads 0.5/(attempted+1) rather than 0 *)
    ("failed_frac", (fl first.M.failed +. 0.5) /. (fl first.M.runs +. 1.0));
    ("makespan_gap", ratio first.M.makespan_sum first.M.lb_sum);
    ("goodput", ratio (fl first.M.fresh) (fl first.M.data));
    ("msgs_per_delivery", ratio (fl (first.M.data + first.M.control)) (fl first.M.fresh));
    ("peak_heap_mb", peak);
  ]

let per_layer spans layers ~traced ~untraced =
  let n = float_of_int (List.length traced) in
  let in_pass (s : Spans.span) = s.Spans.run >= 1 in
  let setup_span name = Spans.sum_s ~keep:(fun s -> s.Spans.run = 0) spans name in
  let pass_span name = Spans.sum_s ~keep:in_pass spans name /. n in
  let get name = L.get layers name /. n in
  let self = Spans.self_times ~keep:in_pass spans in
  let self_of l =
    match List.find_opt (fun r -> r.Spans.layer_name = l) self with
    | Some r -> r.Spans.self_s /. n
    | None -> 0.0
  in
  let async_s = List.fold_left (fun s p -> s +. pass_span ("async.run." ^ p)) 0.0 protocol_names in
  let dht_s = pass_span "dht.run" in
  let events = get "async.events" in
  let sent = get "net.data_msgs" +. get "net.control_msgs" in
  let traced_busy = sumf (fun a -> a.M.busy_s) traced /. n in
  let untraced_busy = M.median (List.map (fun a -> a.M.busy_s) untraced) in
  let values =
    [
      ("topology.generate_s", setup_span "topology.generate");
      ("core.scenario_s", setup_span "core.scenario");
      ("core.bounds_s", setup_span "core.bounds");
    ]
    @ List.map (fun s -> ("engine.run_s." ^ s, pass_span ("engine.run." ^ s))) strategy_names
    @ [
        ("engine.decide_s", get "engine.decide_s");
        ("engine.apply_s", get "engine.apply_s");
        ("engine.post_s", get "engine.post_s");
        ("engine.fresh_per_move", ratio (get "engine.fresh") (get "engine.moves"));
        ("core.validate_s", pass_span "core.validate");
        ("core.timeline_s", pass_span "core.timeline");
        ("core.prune_s", pass_span "core.prune");
        ("pool.busy_s", get "pool.busy_s");
        ("pool.wait_s", get "pool.wait_s");
        ("pool.speedup", ratio (get "pool.cells_s") (get "pool.wall_s"));
      ]
    @ List.map
        (fun p ->
          ("async.run_s." ^ p, if p = "dht-rarest" then dht_s else pass_span ("async.run." ^ p)))
        protocol_names
    @ [
        ("async.events", events);
        ("async.events_per_s", ratio events (async_s +. dht_s));
        ("sim.event_s", get "sim.event_s");
      ]
    @ List.map (fun p -> (p ^ ".on_message_s", get (p ^ ".on_message_s"))) protocol_names
    @ [
        ("net.data_msgs", get "net.data_msgs");
        ("net.control_msgs", get "net.control_msgs");
        ("net.retransmissions", get "net.retransmissions");
        ("net.duplicates", get "net.duplicates");
        ("net.drop_frac", ratio (get "net.dropped") (sent +. get "net.dropped"));
        ("dht.run_s", dht_s);
        ("dht.converged_s", pass_span "dht.converged");
        ("dht.lookups", get "dht.lookups");
        ("dht.mean_hops", ratio (get "dht.hops") (get "dht.lookups"));
        ("dht.lookup_fail_frac", ratio (get "dht.lookup_failures") (get "dht.lookups"));
        ("dht.stores", get "dht.stores");
        ("dynamics.transitions_s", pass_span "dynamics.transitions");
        ("dynamics.crashes", get "dynamics.crashes");
        ("dynamics.suspicions", get "dynamics.suspicions");
        ("dynamics.fault_dropped", get "dynamics.fault_dropped");
        ("exact.search_focd_s", pass_span "exact.search_focd");
        ("exact.search_eocd_s", pass_span "exact.search_eocd");
        ("exact.ip_focd_s", pass_span "exact.ip_focd");
        ("exact.budget_exceeded", get "exact.budget_exceeded");
        ("exact.exceptions", get "exact.exceptions");
        ("exact.tau_mismatch", get "exact.tau_mismatch");
        ("obs.trace_overhead_frac", ratio traced_busy untraced_busy -. 1.0);
      ]
    @ List.map (fun l -> ("self." ^ l ^ "_s", self_of l)) self_layers
  in
  (values, Spans.render_self_times self)

let main () =
  let Workloads.W w, seed, seconds, trace, out = parse_args () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" w.name seed seconds
    (if trace then 1 else 0);
  (* set-up: repeated, setup_s is the median; the last context is used *)
  let ctx = ref None in
  let setup_times =
    List.init w.setup_reps (fun _ ->
        let t0 = Measure.now () in
        ctx := Some (w.setup Spans.off seed);
        Measure.now () -. t0)
  in
  let ctx = Option.get !ctx in
  let setup_s = M.median setup_times in
  let reference = Option.map (fun f -> let a = M.acc () in f ctx a; M.finish a) w.reference in
  (* the peak heap of set-up plus the reference, or else the first
     pass: later passes add only the harness's samples, and the
     parallel sweep's peak depends on how its domains interleave *)
  let peak = ref (M.peak_heap_mb ()) in
  let window = if trace then seconds /. 2.0 else seconds in
  let untraced =
    passes ~window (fun k ->
        let a = M.acc () in
        w.pass ctx a;
        if k = 1 && reference = None then peak := M.peak_heap_mb ();
        M.finish a)
  in
  let spans = Spans.create () in
  let layers = L.create () in
  let traced =
    if not trace then []
    else begin
      let tr = Spans.tracer spans in
      ignore (tr.span "bench.setup" (fun () -> w.setup tr seed));
      passes ~window:(seconds -. window) (fun k ->
          Spans.set_run spans k;
          let a = M.acc () in
          tr.span "bench.pass" (fun () -> w.traced ctx tr a layers);
          M.finish a)
    end
  in
  let all = untraced @ traced in
  let checked = Option.to_list reference @ all in
  let fp = (List.hd checked).M.digest in
  let unstable = List.filter (fun a -> a.M.digest <> fp) all in
  List.iter (fun a -> List.iter (Printf.eprintf "wrong: %s\n") (List.rev a.M.wrong)) checked;
  Printf.printf "fingerprint %s: %s over %d passes (%s%d untraced, %d traced)\n" fp
    (if unstable = [] then "stable" else Printf.sprintf "DIFFERS in %d passes" (List.length unstable))
    (List.length checked)
    (if reference = None then "" else "1 reference, ")
    (List.length untraced) (List.length traced);
  let attempted = sum (fun a -> a.M.runs) all and failed = sum (fun a -> a.M.failed) all in
  let samples = List.length (List.concat_map (fun a -> a.M.lat_ms) untraced) in
  Printf.printf "operations: %d attempted, %d failed; %d timed calls in %d untraced passes (%d per pass)\n"
    attempted failed samples (List.length untraced) (List.length (List.hd untraced).M.lat_ms);
  let values, units =
    if not trace then (end_to_end ~setup_s ~peak:!peak untraced, end_to_end_units)
    else begin
      let values, table = per_layer spans layers ~traced ~untraced in
      mkdir_p out;
      let base = Filename.concat out (Printf.sprintf "%s-seed%d" w.name seed) in
      Spans.write_chrome spans (base ^ ".trace.json");
      let oc = open_out (base ^ ".selftime.txt") in
      output_string oc table;
      close_out oc;
      Printf.printf "per-layer self time over %d traced passes (spans: %s.trace.json)\n%s" (List.length traced) base table;
      (values, per_layer_units)
    end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  let metrics =
    List.map (fun (name, unit) ->
        let v = List.assoc name values in
        Printf.printf "%-26s %16.6f %s\n" name v unit;
        (name, unit, if Float.is_finite v then v else 0.0))
      units
  in
  let correct = unstable = [] && finite && List.for_all (fun a -> a.M.wrong = []) checked in
  print_endline (M.result_line ~correct ~attempted ~failed metrics)

let () = main ()
