(* The four benchmark workloads.

   Each workload builds its inputs from the benchmark seed ([setup]),
   then runs one deterministic pass over a fixed operation list
   ([pass]) as a closed loop: the next library call starts when the
   previous one returns.  [traced] runs the same operations with spans
   and an Ocd_obs probe, plus the per-layer calls the end-to-end pass
   cannot see.  A [reference] pass, when given, runs once before the
   timed passes: every timed pass must reproduce its fingerprint, and
   it also makes the checks too costly to repeat every pass.  All
   library calls go through public functions. *)

open Ocd_core
open Ocd_prelude
module M = Measure
module L = Measure.Layers

type 'ctx t = {
  name : string;
  setup_reps : int;  (** set-ups per run; setup_s is their median *)
  setup : Spans.tracer -> int -> 'ctx;
  pass : 'ctx -> M.acc -> unit;
  traced : 'ctx -> Spans.tracer -> M.acc -> L.t -> unit;
  reference : ('ctx -> M.acc -> unit) option;
}

type packed = W : 'ctx t -> packed

(* A derived seed stream, so every input is a function of the
   benchmark seed alone. *)
let seeds seed = let rng = Prng.create ~seed in fun () -> Prng.int rng (1 lsl 30)

let transit_stub rng n =
  Ocd_topology.Transit_stub.generate rng (Ocd_topology.Transit_stub.params_for_size n)

let random_graph rng n = Ocd_topology.Random_graph.erdos_renyi rng ~n ()

(* The set-up every workload shares: topology, scenario, §5.1 bounds. *)
let build (tr : Spans.tracer) ~rng ~gen ~tokens ?source () =
  let graph = tr.span "topology.generate" (fun () -> gen rng) in
  let inst =
    tr.span "core.scenario" (fun () ->
        (Scenario.single_file rng ~graph ~tokens ?source ()).Scenario.instance)
  in
  let lb, bw_lb =
    tr.span "core.bounds" (fun () ->
        (Bounds.makespan_lower_bound inst, Bounds.bandwidth_lower_bound inst))
  in
  (inst, lb, bw_lb)

let check_schedule a ~what inst sched =
  match Validate.check_successful inst sched with
  | Ok () -> true
  | Error e ->
    M.wrong a "%s: %s" what (Format.asprintf "%a" Validate.pp_error e);
    false

let probe_scope () =
  let probe = Ocd_obs.Probe.create () in
  (probe, Ocd_obs.create ~probe ())

(* ------------------------------------------------------------------ *)
(* sweep-sync: the §5.2 sweep through Sweep.run_sweep ~jobs:2          *)
(* ------------------------------------------------------------------ *)

type sweep_point = {
  spec : Ocd_bench.Sweep.point_spec;
  inst : Instance.t;
  lb : int;
  bw_lb : int;
}

let sweep_sizes = [ 20; 50; 100 ]

(* points per (graph kind, size): one graph's makespan and run time
   vary by 2x between seeds, so a pass averages over many graphs.  A
   pass makes one run_sweep call per (kind, size) group: the two
   workers share out equal-sized points, and six calls per pass give
   six latency samples. *)
let sweep_replicates = 8
let sweep_tokens = 50
let sweep_trials = 2
let sweep_jobs = 2
let strategies = Ocd_heuristics.Registry.all

let sweep_setup tr seed =
  let next = seeds seed in
  let point kind gen n r =
    let point_seed = next () in
    let gen rng = gen rng n in
    (* run_point rebuilds the instance from [point_seed] with the same
       calls, so [inst] is the instance the sweep runs *)
    let inst, lb, bw_lb =
      build tr ~rng:(Prng.create ~seed:point_seed) ~gen ~tokens:sweep_tokens ()
    in
    let spec =
      {
        Ocd_bench.Sweep.label = Printf.sprintf "%s-%d.%d" kind n r;
        point_seed;
        build =
          (fun rng ->
            let inst, _, _ = build Spans.off ~rng ~gen ~tokens:sweep_tokens () in
            inst);
      }
    in
    { spec; inst; lb; bw_lb }
  in
  let kinds = [ ("random", random_graph); ("transit-stub", transit_stub) ] in
  List.concat_map
    (fun (kind, gen) ->
      List.map (fun n -> List.init sweep_replicates (point kind gen n)) sweep_sizes)
    kinds

let sweep_account a points results =
  List.iter2
    (fun p (r : Ocd_bench.Sweep.point_result) ->
      let open Ocd_bench.Sweep in
      if r.makespan_lb <> Some p.lb || r.bandwidth_lb <> p.bw_lb then
        M.wrong a "%s: sweep bounds differ from the instance's" r.x_label;
      M.print a "%s bw_lb=%d lb=%d" r.x_label r.bandwidth_lb p.lb;
      List.iter
        (fun (g : aggregate) ->
          let s (x : Stats.summary) = Printf.sprintf "%.6f/%.0f/%.0f" x.Stats.mean x.Stats.min x.Stats.max in
          M.print a "  %s completed=%d moves=%s bw=%s pruned=%s" g.strategy g.completed
            (match g.moves with Some m -> s m | None -> "n/a")
            (s g.bandwidth) (s g.pruned);
          a.runs <- a.runs + sweep_trials;
          a.failed <- a.failed + (sweep_trials - g.completed);
          a.fresh <- a.fresh + (g.completed * p.bw_lb);
          a.data <- a.data + int_of_float (Float.round (g.bandwidth.Stats.mean *. float_of_int sweep_trials));
          (match g.moves with
          | Some m ->
            if m.Stats.min < float_of_int p.lb then
              M.wrong a "%s/%s: makespan %.0f below the lower bound %d" r.x_label g.strategy m.Stats.min p.lb;
            let completed = float_of_int g.completed in
            M.gap a ~makespan:(m.Stats.mean *. completed) ~lb:(float_of_int p.lb *. completed)
          | None -> ());
          if g.bandwidth.Stats.min < float_of_int p.bw_lb then
            M.wrong a "%s/%s: bandwidth below the lower bound" r.x_label g.strategy;
          if g.pruned.Stats.max > g.bandwidth.Stats.max then
            M.wrong a "%s/%s: pruning increased bandwidth" r.x_label g.strategy)
        r.aggregates)
    points results

let run_sweep ?obs ~jobs points =
  Ocd_bench.Sweep.run_sweep ?obs ~trials:sweep_trials ~jobs ~strategies
    (List.map (fun p -> p.spec) points)

(* Every engine run of the sweep, with the seed Sweep.run_point gives
   it (point seed + 31 × trial). *)
let each_cell points f =
  List.iter
    (fun p ->
      List.iter
        (fun strategy ->
          for trial = 0 to sweep_trials - 1 do
            f p strategy ~seed:(p.spec.point_seed + (31 * trial))
          done)
        strategies)
    points

let sweep_pass groups a =
  List.iter
    (fun points ->
      let results = M.timed a (fun () -> run_sweep ~jobs:sweep_jobs points) in
      sweep_account a points results)
    groups

let sweep_traced groups (tr : Spans.tracer) a layers =
  (* the measured operations, with the Pool split into busy/wait *)
  let probe, obs = probe_scope () in
  List.iter
    (fun points ->
      let results =
        M.timed a (fun () -> tr.span "pool.run_sweep" (fun () -> run_sweep ~obs ~jobs:sweep_jobs points))
      in
      sweep_account a points results)
    groups;
  let is_worker l = M.has_prefix ~prefix:"pool/worker-" l in
  L.add layers "pool.busy_s" (M.probe_s probe (fun l -> is_worker l && not (M.has_suffix ~suffix:"/queue-wait" l)));
  L.add layers "pool.wait_s" (M.probe_s probe (fun l -> is_worker l && M.has_suffix ~suffix:"/queue-wait" l));
  L.add layers "pool.cells_s" (M.probe_s probe (M.has_prefix ~prefix:"sweep/"));
  L.add layers "pool.wall_s" (List.fold_left ( +. ) 0.0 a.lat_ms /. 1000.0);
  (* the engine and core layers, timed on the same cells sequentially *)
  let probe, obs = probe_scope () in
  each_cell (List.concat groups) (fun p (strategy : Ocd_engine.Strategy.t) ~seed ->
      let run =
        tr.span ("engine.run." ^ strategy.name) (fun () ->
            Ocd_engine.Engine.run ~obs ~strategy ~seed p.inst)
      in
      let sched = run.Ocd_engine.Engine.schedule in
      let valid = tr.span "core.validate" (fun () -> Validate.check_successful p.inst sched) in
      if run.Ocd_engine.Engine.outcome = Ocd_engine.Engine.Completed && Result.is_error valid then
        M.wrong a "sweep-sync %s/%s seed %d: invalid schedule" p.spec.label strategy.name seed;
      ignore (tr.span "core.timeline" (fun () -> Timeline.run p.inst sched));
      ignore (tr.span "core.prune" (fun () -> Prune.prune p.inst sched));
      L.addi layers "engine.fresh" run.Ocd_engine.Engine.fresh_deliveries;
      L.addi layers "engine.moves" (Schedule.move_count sched));
  List.iter
    (fun phase ->
      L.add layers ("engine." ^ phase ^ "_s")
        (M.probe_s probe (fun l ->
             M.has_prefix ~prefix:"engine/" l && M.has_suffix ~suffix:("/" ^ phase) l)))
    [ "decide"; "apply"; "post" ]

(* The reference is the sweep at jobs = 1, which every jobs = 2 pass
   must reproduce; every schedule behind the aggregates must also pass
   the independent checker.  A full major collection (Gc.compact) runs
   before each point and each engine run, so the peak heap read after
   the reference is set by the largest runs' allocation rather than by
   how much garbage earlier runs left uncollected, and not by how the
   Pool's two domains interleave. *)
let sweep_reference groups a =
  let points = List.concat groups in
  sweep_account a points
    (List.concat_map (fun p -> Gc.compact (); run_sweep ~jobs:1 [ p ]) points);
  each_cell points (fun p (strategy : Ocd_engine.Strategy.t) ~seed ->
      Gc.compact ();
      let run = Ocd_engine.Engine.run ~strategy ~seed p.inst in
      let what = Printf.sprintf "sweep-sync %s/%s seed %d" p.spec.label strategy.name seed in
      if run.Ocd_engine.Engine.outcome = Ocd_engine.Engine.Completed then begin
        ignore (check_schedule a ~what p.inst run.Ocd_engine.Engine.schedule);
        if run.Ocd_engine.Engine.fresh_deliveries <> p.bw_lb then
          M.wrong a "%s: %d fresh deliveries, deficit %d" what
            run.Ocd_engine.Engine.fresh_deliveries p.bw_lb
      end)

let sweep_sync =
  W
    {
      name = "sweep-sync";
      setup_reps = 9;
      setup = sweep_setup;
      pass = sweep_pass;
      traced = sweep_traced;
      reference = Some sweep_reference;
    }

(* ------------------------------------------------------------------ *)
(* Async runs: async-swarm and dht-churn                               *)
(* ------------------------------------------------------------------ *)

type async_case = {
  a_inst : Instance.t;
  a_lb : int;
  deficit : int;
  run_seed : int;
  fault_seed : int;
}

type async_ctx = {
  cases : async_case list;
  protocols : (string * int list) list;  (** protocol, the cases it runs on *)
  crash_prob : float;  (** 0 = Faults.none *)
}

(* 2% i.i.d. loss on the default latency/jitter/pacing profile *)
let profile = { Ocd_async.Net.default with Ocd_async.Net.loss = 0.02 }

let plan ~crash_prob c =
  if crash_prob = 0.0 then Ocd_dynamics.Faults.none
  else
    Ocd_dynamics.Faults.crashes ~seed:c.fault_seed ~protected:[ 0 ]
      ~durability:Ocd_dynamics.Faults.Durable ~recover_prob:0.5 ~crash_prob ()

(* [cases] instances per pass: the pass averages over topologies, so
   one seed's topology does not set the run's figures, while staying
   short enough for many passes per run *)
let async_setup ~n ~tokens ~cases ~protocols ~crash_prob tr seed =
  let next = seeds seed in
  let case _ =
    let rng = Prng.create ~seed:(next ()) in
    let a_inst, a_lb, deficit =
      build tr ~rng ~gen:(fun rng -> transit_stub rng n) ~tokens ~source:0 ()
    in
    { a_inst; a_lb; deficit; run_seed = next (); fault_seed = next () }
  in
  { cases = List.init cases case; protocols; crash_prob }

let async_account a c (r : Ocd_async.Runtime.run) =
  let open Ocd_async.Runtime in
  a.M.runs <- a.M.runs + 1;
  M.print a "%s %s ticks=%s rounds=%d events=%d fresh=%d dup=%d data=%d control=%d retx=%d \
             dropped=%d fault_dropped=%d crashes=%d restarts=%d suspicions=%d failed_jobs=%d"
    r.protocol_name
    (match r.outcome with Completed -> "completed" | Timed_out -> "timed-out")
    (match r.completion_ticks with Some t -> string_of_int t | None -> "-")
    r.rounds r.events r.fresh_deliveries r.duplicate_deliveries r.data_messages
    r.control_messages r.retransmissions r.dropped_messages r.fault_dropped r.crashes
    r.restarts r.suspicions r.failed_jobs;
  a.fresh <- a.fresh + r.fresh_deliveries;
  a.data <- a.data + r.data_messages;
  a.control <- a.control + r.control_messages;
  match r.outcome with
  | Timed_out -> a.failed <- a.failed + 1
  | Completed ->
    if not (check_schedule a ~what:r.protocol_name c.a_inst r.schedule) then
      a.failed <- a.failed + 1
    else begin
      if r.fresh_deliveries < c.deficit then
        M.wrong a "%s: %d fresh deliveries, deficit %d" r.protocol_name r.fresh_deliveries c.deficit;
      M.gap a ~makespan:(float_of_int r.rounds) ~lb:(float_of_int c.a_lb)
    end

let async_run ?obs ?stats c name ~faults =
  let protocol =
    match (name, stats) with
    | "dht-rarest", Some stats -> Ocd_dht.Dht_rarest.protocol ~stats ()
    | _ -> Ocd_dht.Registry.find_exn name
  in
  Ocd_async.Runtime.run ?obs ~profile ~faults ~protocol ~seed:c.run_seed c.a_inst

let each_run ctx f =
  List.iteri
    (fun i c ->
      List.iter
        (fun (name, cases) -> if List.mem i cases then f c name (plan ~crash_prob:ctx.crash_prob c))
        ctx.protocols)
    ctx.cases

let async_pass ctx a =
  each_run ctx (fun c name faults ->
      let r = M.timed a (fun () -> async_run c name ~faults) in
      async_account a c r)

let async_traced ctx (tr : Spans.tracer) a layers =
  each_run ctx (fun c name faults ->
      let probe, obs = probe_scope () in
      let stats = Ocd_dht.Node.fresh_stats () in
      let r =
        M.timed a (fun () ->
            (* the crash plan's per-node precompute, charged to
               ocd_dynamics instead of hiding inside the run *)
            if not (Ocd_dynamics.Faults.is_none faults) then
              tr.span "dynamics.transitions" (fun () ->
                  let horizon = Ocd_async.Runtime.default_round_limit c.a_inst in
                  for v = 0 to Instance.vertex_count c.a_inst - 1 do
                    ignore (Ocd_dynamics.Faults.transitions faults ~node:v ~horizon)
                  done);
            let span = if name = "dht-rarest" then "dht.run" else "async.run." ^ name in
            tr.span span (fun () -> async_run ~obs ~stats c name ~faults))
      in
      async_account a c r;
      let open Ocd_async.Runtime in
      L.addi layers "async.events" r.events;
      L.add layers "sim.event_s" (M.probe_s probe (String.equal "sim/event"));
      L.add layers (name ^ ".on_message_s") (M.probe_s probe (String.equal (name ^ "/on_message")));
      L.addi layers "net.data_msgs" r.data_messages;
      L.addi layers "net.control_msgs" r.control_messages;
      L.addi layers "net.retransmissions" r.retransmissions;
      L.addi layers "net.duplicates" r.duplicate_deliveries;
      L.addi layers "net.dropped" r.dropped_messages;
      L.addi layers "dynamics.crashes" r.crashes;
      L.addi layers "dynamics.suspicions" r.suspicions;
      L.addi layers "dynamics.fault_dropped" r.fault_dropped;
      if name = "dht-rarest" then begin
        let open Ocd_dht.Node in
        L.addi layers "dht.lookups" stats.lookups;
        L.addi layers "dht.hops" stats.hops;
        L.addi layers "dht.lookup_failures" stats.failures;
        L.addi layers "dht.stores" stats.stores;
        (* the converged-ring precompute dht-rarest boots epoch 0 from *)
        tr.span "dht.converged" (fun () ->
            let members = Array.init (Instance.vertex_count c.a_inst) Fun.id in
            let ring = Ocd_dht.Node.converged ~seed:c.run_seed ~succ_count:8 members in
            Array.iter (fun v -> ignore (ring v)) members)
      end)

let async_swarm =
  W
    {
      name = "async-swarm";
      setup_reps = 3;
      setup =
        (* each protocol on two instances of its own: six topologies
           per pass at the cost of six runs *)
        async_setup ~n:1000 ~tokens:8 ~cases:6
          ~protocols:[ ("async-local", [ 0; 1 ]); ("async-push", [ 2; 3 ]); ("flood-plan", [ 4; 5 ]) ]
          ~crash_prob:0.0;
      pass = async_pass;
      traced = async_traced;
      reference = None;
    }

let dht_churn =
  W
    {
      name = "dht-churn";
      setup_reps = 15;
      setup =
        (* dht-rarest on eight instances and the baseline on two of
           them, so the run latency median falls among the dht-rarest
           runs *)
        async_setup ~n:200 ~tokens:4 ~cases:8
          ~protocols:[ ("dht-rarest", List.init 8 Fun.id); ("async-local", [ 0; 1 ]) ]
          ~crash_prob:0.003;
      pass = async_pass;
      traced = async_traced;
      reference = None;
    }

(* ------------------------------------------------------------------ *)
(* exact-small: Search.focd, Search.eocd and Ip_formulation.focd       *)
(* ------------------------------------------------------------------ *)

type exact_item = {
  label : string;
  iseed : int;  (** instance seed, logged with every failure *)
  e_inst : Instance.t;
  e_lb : int;
  e_bw_lb : int;
  known : (int * int) option;  (** (makespan, bandwidth) optima, when known *)
}

(* (vertices, tokens) classes, cycled; arcs of capacity 1 or 2 on
   G(n, 0.5), so capacity binds and the optima are non-trivial.  The
   IP's branch-and-bound time is heavy-tailed within each class; many
   small instances per pass keep one seed's tail from setting the
   pass time. *)
let exact_classes = [| (3, 2); (4, 1); (5, 1); (6, 1) |]
let exact_instances = 3000

let exact_setup (tr : Spans.tracer) seed =
  let next = seeds seed in
  let fig1 =
    let inst = tr.span "core.scenario" Figure1.instance in
    let lb, bw_lb =
      tr.span "core.bounds" (fun () ->
          (Bounds.makespan_lower_bound inst, Bounds.bandwidth_lower_bound inst))
    in
    { label = "figure1"; iseed = 0; e_inst = inst; e_lb = lb; e_bw_lb = bw_lb; known = Some (2, 4) }
  in
  let random i =
    let n, m = exact_classes.(i mod Array.length exact_classes) in
    let iseed = next () in
    let gen rng =
      Ocd_topology.Random_graph.erdos_renyi rng ~n ~p:0.5
        ~weights:(Ocd_topology.Weights.Uniform (1, 2)) ()
    in
    let inst, lb, bw_lb = build tr ~rng:(Prng.create ~seed:iseed) ~gen ~tokens:m () in
    { label = Printf.sprintf "n%d-m%d" n m; iseed; e_inst = inst; e_lb = lb; e_bw_lb = bw_lb; known = None }
  in
  Array.of_list (fig1 :: List.init exact_instances random)

type 'a attempt = Done of 'a | Raised of string

let exact_item (tr : Spans.tracer) a layers it =
  let attempt span f =
    match M.timed a (fun () -> tr.span span f) with
    | v -> Done v
    | exception e -> Raised (Printexc.to_string e)
  in
  let fail what why =
    a.M.failed <- a.M.failed + 1;
    Printf.eprintf "exact-small: %s on instance %s (seed %d): %s\n%!" what it.label it.iseed why
  in
  let budget what = fail what "budget exceeded"; L.addi layers "exact.budget_exceeded" 1 in
  let raised what why = fail what ("raised " ^ why); L.addi layers "exact.exceptions" 1 in
  let solution what sched =
    a.fresh <- a.fresh + Timeline.fresh_deliveries (Timeline.run it.e_inst sched);
    a.data <- a.data + Schedule.move_count sched;
    check_schedule a ~what:(Printf.sprintf "%s %s (seed %d)" what it.label it.iseed) it.e_inst sched
  in
  a.runs <- a.runs + 3;
  let open Ocd_exact in
  let tau_search =
    match attempt "exact.search_focd" (fun () -> Search.focd it.e_inst) with
    | Done (Search.Solved s) ->
      M.print a "%s focd=%d/%d" it.label s.objective (Schedule.move_count s.schedule);
      if solution "Search.focd" s.schedule then begin
        M.gap a ~makespan:(float_of_int s.objective) ~lb:(float_of_int it.e_lb);
        if Schedule.length s.schedule <> s.objective then
          M.wrong a "Search.focd %s: witness length differs from the optimum" it.label
      end
      else a.failed <- a.failed + 1;
      Some s.objective
    | Done Search.Budget_exceeded -> M.print a "%s focd=budget" it.label; budget "Search.focd"; None
    | Done Search.Unsatisfiable ->
      M.wrong a "Search.focd %s: satisfiable instance reported unsatisfiable" it.label;
      fail "Search.focd" "unsatisfiable";
      None
    | Raised why -> M.print a "%s focd=raised" it.label; raised "Search.focd" why; None
  in
  (match attempt "exact.search_eocd" (fun () -> Search.eocd it.e_inst) with
  | Done (Search.Solved s) ->
    M.print a "%s eocd=%d/%d" it.label s.objective (Schedule.length s.schedule);
    if not (solution "Search.eocd" s.schedule) then a.failed <- a.failed + 1;
    if Schedule.move_count s.schedule <> s.objective || s.objective < it.e_bw_lb then
      M.wrong a "Search.eocd %s: objective %d inconsistent" it.label s.objective;
    (match it.known with
    | Some (_, bw) when bw <> s.objective -> M.wrong a "Search.eocd %s: %d, expected %d" it.label s.objective bw
    | _ -> ())
  | Done Search.Budget_exceeded -> M.print a "%s eocd=budget" it.label; budget "Search.eocd"
  | Done Search.Unsatisfiable ->
    M.wrong a "Search.eocd %s: satisfiable instance reported unsatisfiable" it.label;
    fail "Search.eocd" "unsatisfiable"
  | Raised why -> M.print a "%s eocd=raised" it.label; raised "Search.eocd" why);
  (match attempt "exact.ip_focd" (fun () -> Ip_formulation.focd it.e_inst) with
  | Done (Some (tau, sched)) ->
    M.print a "%s ip=%d/%d" it.label tau (Schedule.move_count sched);
    if not (solution "Ip_formulation.focd" sched) then a.failed <- a.failed + 1
    else (
      match tau_search with
      | Some t when t <> tau ->
        fail "Ip_formulation.focd" (Printf.sprintf "tau_ip %d <> tau_search %d" tau t);
        M.wrong a "%s (seed %d): tau_ip %d <> tau_search %d" it.label it.iseed tau t;
        L.addi layers "exact.tau_mismatch" 1
      | _ -> ())
  | Done None -> M.print a "%s ip=none" it.label; budget "Ip_formulation.focd"
  | Raised why -> M.print a "%s ip=raised" it.label; raised "Ip_formulation.focd" why);
  match (it.known, tau_search) with
  | Some (ms, _), Some t when t <> ms -> M.wrong a "Search.focd %s: %d, expected %d" it.label t ms
  | _ -> ()

let exact_small =
  W
    {
      name = "exact-small";
      setup_reps = 25;
      setup = exact_setup;
      pass = (fun items a -> Array.iter (exact_item Spans.off a (L.create ())) items);
      traced = (fun items tr a layers -> Array.iter (exact_item tr a layers) items);
      reference = None;
    }

let all = [ sweep_sync; async_swarm; dht_churn; exact_small ]

let find name =
  List.find_opt (fun (W w) -> String.equal w.name name) all
