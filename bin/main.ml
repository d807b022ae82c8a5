(* The `ocd` command-line interface.

   Subcommands:
     ocd run        — run heuristics/baselines on a generated workload
     ocd figure     — regenerate one of the paper's figures
     ocd exact      — solve a small instance exactly (search and/or IP)
     ocd reduce     — the Dominating Set -> FOCD reduction demo
     ocd bounds     — print the §5.1 lower bounds for a workload
     ocd experiment — run an extension experiment, or `all` to
                      regenerate the whole evaluation
     ocd export     — dump a workload/schedule in the text codec
     ocd trace      — render a run's progress timeline
     ocd async      — run the asynchronous message-passing protocols
     ocd chaos      — crash-recovery robustness campaign for the async
                      protocols
     ocd dht        — run dht-rarest (Chord-style provider discovery)
                      against the omniscient async-local baseline
     ocd profile    — run a workload under the wall-clock/allocation
                      probe and print the per-phase table

   run, async and chaos also accept --trace-out FILE (Chrome
   trace-event JSON for Perfetto) and --metrics-out FILE (the
   deterministic metrics registry, byte-identical across --jobs). *)

open Cmdliner
open Ocd_core
open Ocd_prelude

(* ---------------------- shared arguments -------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* An integer option below [lo] is a usage error (exit 124 with the
   usage line), not an exception from deep inside a generator. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected an integer >= %d" lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let n_arg =
  Arg.(
    value & opt (int_at_least 1) 100 & info [ "n" ] ~docv:"N" ~doc:"Vertex count.")

let tokens_arg =
  Arg.(
    value
    & opt (int_at_least 0) 50
    & info [ "tokens" ] ~docv:"M" ~doc:"Token count.")

let topology_arg =
  let parse s =
    match Ocd_topology.Topology.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf k =
    Format.pp_print_string ppf (Ocd_topology.Topology.kind_name k)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Ocd_topology.Topology.Random
    & info [ "topology" ] ~docv:"KIND"
        ~doc:"Topology kind: random, transit-stub or waxman.")

let threshold_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "threshold" ] ~docv:"T"
        ~doc:"Receiver-density threshold in [0,1] (1 = all receivers).")

let files_arg =
  Arg.(
    value
    & opt int 1
    & info [ "files" ] ~docv:"K" ~doc:"Number of files (must divide tokens).")

let multi_sender_arg =
  Arg.(
    value & flag
    & info [ "multi-sender" ] ~doc:"Seed each file at a random vertex.")

let full_arg =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Use the paper's full sweep parameters.")

let jobs_arg =
  Arg.(
    value
    & opt (int_at_least 1) (Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: OCD_BENCH_JOBS or the \
           recommended domain count).  Output is byte-identical for any \
           value.")

(* ---------------------- observability plumbing -------------------- *)

let ( let* ) = Result.bind

(* Every file the CLI writes goes through this, so a bad path surfaces
   as a cmdliner `Msg error (exit 124 with the usage line) instead of a
   Sys_error backtrace. *)
let open_out_result path =
  try Ok (open_out path) with Sys_error msg -> Error (`Msg msg)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's event stream to $(docv) as Chrome trace-event \
           JSON (open in Perfetto or chrome://tracing).  Timestamps are \
           simulator/engine time, so the file is byte-identical across \
           $(b,--jobs) values.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic metrics registry (counters, gauges, \
           histograms; sorted keys) to $(docv) as text.")

(* Opens both output files up front — an unwritable path fails before
   the workload runs, not after — then hands the body a live scope
   whose memory sink and registry are flushed to the files at the end.
   With neither flag the body gets the disabled scope and pays only
   its [if obs.on] guards. *)
let with_observed ~trace_out ~metrics_out body =
  match (trace_out, metrics_out) with
  | None, None ->
    body Ocd_obs.disabled;
    Ok ()
  | _ ->
    let* trace_oc =
      match trace_out with
      | None -> Ok None
      | Some path -> Result.map Option.some (open_out_result path)
    in
    let* metrics_oc =
      match metrics_out with
      | None -> Ok None
      | Some path -> (
        match open_out_result path with
        | Ok oc -> Ok (Some oc)
        | Error e ->
          Option.iter close_out trace_oc;
          Error e)
    in
    let sink =
      if trace_oc <> None then Ocd_obs.Sink.memory () else Ocd_obs.Sink.null
    in
    let obs = Ocd_obs.create ~sink () in
    body obs;
    Option.iter
      (fun oc ->
        let jsonl = Ocd_obs.Sink.jsonl oc in
        List.iter (Ocd_obs.Sink.emit jsonl) (Ocd_obs.Sink.events sink);
        Ocd_obs.Sink.close jsonl;
        close_out oc)
      trace_oc;
    Option.iter
      (fun oc ->
        output_string oc (Ocd_obs.Metrics.render obs.Ocd_obs.metrics);
        close_out oc)
      metrics_oc;
    Ok ()

(* ---------------------- workload building ------------------------- *)

(* Rejects, as a usage error, every argument combination the
   generators would reject with [Invalid_argument]; an
   [Invalid_argument] that still escapes is a bug and stays an internal
   error. *)
let build_instance ?(files = 1) ?(multi_sender = false) ~seed ~topology ~n
    ~tokens ~threshold () =
  let subdivide = files > 1 || multi_sender in
  let min_n = Ocd_topology.Topology.min_vertices topology in
  let usage fmt = Printf.ksprintf (fun msg -> Error (`Msg msg)) fmt in
  if n < min_n then
    usage "-n %d: the %s topology needs at least %d vertices" n
      (Ocd_topology.Topology.kind_name topology)
      min_n
  else if threshold < 0.0 then
    usage "--threshold %g: expected a value in [0, 1]" threshold
  else if subdivide && (files < 1 || tokens mod files <> 0) then
    usage "--files %d must divide --tokens %d" files tokens
  else
    let rng = Prng.create ~seed in
    let graph = Ocd_topology.Topology.generate rng topology ~n () in
    let receivers = Ocd_graph.Digraph.vertex_count graph - 1 in
    if subdivide && files > receivers then
      usage "--files %d: more files than the %d receivers" files receivers
    else
      let scenario =
        if subdivide then
          Scenario.subdivide_files rng ~graph ~total_tokens:tokens ~files
            ~multi_sender ()
        else if threshold < 1.0 then
          Scenario.receiver_density rng ~graph ~tokens ~threshold ()
        else Scenario.single_file rng ~graph ~tokens ()
      in
      Ok scenario.Scenario.instance

(* ---------------------- ocd run ----------------------------------- *)

let all_strategies () =
  Ocd_heuristics.Registry.all
  @ [
      Ocd_heuristics.Flow_step.strategy;
      Ocd_baselines.Tree_push.strategy ();
      Ocd_baselines.Split_forest.strategy ~k:4 ();
      Ocd_baselines.Fast_replica.strategy ();
      Ocd_baselines.Serial_steiner.strategy;
    ]

let strategy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:
          "Strategy to run (default: all).  Heuristics: round-robin, random, \
           local, bandwidth, global.  Baselines: tree-push, split-forest-4, \
           fast-replica, serial-steiner.")

(* Every lookup of a strategy by name; an unknown one exits 2. *)
let find_strategy name =
  match
    List.find_opt
      (fun s -> s.Ocd_engine.Strategy.name = name)
      (all_strategies ())
  with
  | Some s -> s
  | None ->
    Printf.eprintf "unknown strategy %S\n" name;
    exit 2

let run_cmd =
  let run seed topology n tokens threshold files multi_sender strategy
      trace_out metrics_out =
    let* inst =
      build_instance ~files ~multi_sender ~seed ~topology ~n ~tokens
        ~threshold ()
    in
    Printf.printf "instance: n=%d m=%d deficit=%d (bw_lb=%d, moves_lb=%s)\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst)
      (Bounds.bandwidth_lower_bound inst)
      (if Instance.satisfiable inst then
         string_of_int (Bounds.makespan_lower_bound inst)
       else "n/a (unsatisfiable)");
    let chosen =
      match strategy with
      | None -> all_strategies ()
      | Some name -> [ find_strategy name ]
    in
    with_observed ~trace_out ~metrics_out (fun obs ->
        Printf.printf "%-16s %10s %10s %10s %12s\n" "strategy" "makespan"
          "bandwidth" "pruned" "mean-finish";
        List.iteri
          (fun i strategy ->
            (* Per-strategy child scope: counters and trace events merge
               back under a "<strategy>/" prefix with pid = strategy
               index, so runs over several strategies stay separable in
               the output files. *)
            let sobs = Ocd_obs.child obs in
            let run =
              Ocd_engine.Engine.run ~obs:sobs ~strategy ~seed:(seed + 1) inst
            in
            Ocd_obs.absorb ~into:obs ~pid:i
              ~prefix:(strategy.Ocd_engine.Strategy.name ^ "/")
              sobs;
            match run.Ocd_engine.Engine.outcome with
            | Ocd_engine.Engine.Completed ->
              let m = run.Ocd_engine.Engine.metrics in
              Printf.printf "%-16s %10d %10d %10d %12.1f\n"
                run.Ocd_engine.Engine.strategy_name m.Metrics.makespan
                m.Metrics.bandwidth m.Metrics.pruned_bandwidth
                (Metrics.mean_completion m)
            | Ocd_engine.Engine.Stalled step ->
              Printf.printf "%-16s stalled at step %d\n"
                run.Ocd_engine.Engine.strategy_name step
            | Ocd_engine.Engine.Step_limit ->
              Printf.printf "%-16s hit the step limit\n"
                run.Ocd_engine.Engine.strategy_name)
          chosen)
  in
  let term =
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ files_arg $ multi_sender_arg $ strategy_arg
       $ trace_out_arg $ metrics_out_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run heuristics/baselines on a generated workload")
    term

(* ---------------------- ocd figure -------------------------------- *)

let figure_cmd =
  let run figure full jobs =
    match figure with
    | 1 -> Ocd_bench.Experiments.figure1 ()
    | 2 -> Ocd_bench.Experiments.figure2 ~full ~jobs ()
    | 3 -> Ocd_bench.Experiments.figure3 ~full ~jobs ()
    | 4 -> Ocd_bench.Experiments.figure4 ~full ~jobs ()
    | 5 -> Ocd_bench.Experiments.figure5 ~full ~jobs ()
    | 6 -> Ocd_bench.Experiments.figure6 ~full ~jobs ()
    | 7 -> Ocd_bench.Experiments.figure7 ()
    | n ->
      Printf.eprintf "no figure %d (the paper has figures 1-7)\n" n;
      exit 2
  in
  let figure =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"FIGURE" ~doc:"Figure number (1-7).")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures")
    Term.(const run $ figure $ full_arg $ jobs_arg)

(* ---------------------- ocd exact --------------------------------- *)

let exact_cmd =
  let run seed n tokens horizon use_ip =
    let* inst =
      if n = 0 then Ok (Figure1.instance ())
      else
        build_instance ~seed ~topology:Ocd_topology.Topology.Random ~n ~tokens
          ~threshold:1.0 ()
    in
    Printf.printf "instance: n=%d m=%d\n" (Instance.vertex_count inst)
      inst.Instance.token_count;
    (match Ocd_exact.Search.focd inst with
    | Ocd_exact.Search.Solved s ->
      Printf.printf "search FOCD: %d steps (witness: %d moves)\n"
        s.Ocd_exact.Search.objective
        (Schedule.move_count s.Ocd_exact.Search.schedule)
    | Ocd_exact.Search.Unsatisfiable -> print_endline "search FOCD: unsatisfiable"
    | Ocd_exact.Search.Budget_exceeded -> print_endline "search FOCD: budget");
    (match Ocd_exact.Search.eocd ?horizon inst with
    | Ocd_exact.Search.Solved s ->
      Printf.printf "search EOCD%s: %d moves (witness: %d steps)\n"
        (match horizon with
        | Some h -> Printf.sprintf "@%d" h
        | None -> "")
        s.Ocd_exact.Search.objective
        (Schedule.length s.Ocd_exact.Search.schedule)
    | Ocd_exact.Search.Unsatisfiable -> print_endline "search EOCD: unsatisfiable"
    | Ocd_exact.Search.Budget_exceeded -> print_endline "search EOCD: budget");
    if use_ip then begin
      match Ocd_exact.Ip_formulation.focd inst with
      | Some (tau, schedule) ->
        Printf.printf "IP FOCD: %d steps (witness: %d moves, %d variables)\n"
          tau
          (Schedule.move_count schedule)
          (Ocd_exact.Ip_formulation.variable_count inst ~horizon:tau)
      | None -> print_endline "IP FOCD: no solution within budget/horizon"
    end;
    Ok ()
  in
  let n_arg =
    Arg.(
      value & opt (int_at_least 0) 0
      & info [ "n" ] ~docv:"N"
          ~doc:"Vertex count for a random instance (0 = the Figure 1 instance).")
  in
  let tokens_arg =
    Arg.(
      value
      & opt (int_at_least 0) 2
      & info [ "tokens" ] ~docv:"M" ~doc:"Token count.")
  in
  let horizon =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"H" ~doc:"EOCD timestep budget.")
  in
  let use_ip =
    Arg.(value & flag & info [ "ip" ] ~doc:"Also solve the §3.4 integer program.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Solve a small instance exactly")
    Term.(
      term_result (const run $ seed_arg $ n_arg $ tokens_arg $ horizon $ use_ip))

(* ---------------------- ocd reduce --------------------------------- *)

let reduce_cmd =
  let run seed n k p =
    let rng = Prng.create ~seed in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Prng.bernoulli rng p then edges := (u, v, 1) :: !edges
      done
    done;
    let g = Ocd_graph.Digraph.of_edges ~vertex_count:n !edges in
    Printf.printf "graph: n=%d, %d undirected edges\n" n (List.length !edges);
    let dom = Ocd_graph.Dominating.minimum g in
    Printf.printf "minimum dominating set: {%s} (size %d)\n"
      (String.concat ", " (List.map string_of_int dom))
      (List.length dom);
    let inst = Ocd_exact.Reduction.instance g ~k in
    Printf.printf
      "reduced FOCD instance: %d vertices, %d tokens; 2-step solvable with k=%d: %b\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count k
      (Ocd_exact.Reduction.two_step_solvable g ~k);
    if List.length dom <= k then begin
      let s = Ocd_exact.Reduction.schedule_of_dominating_set g ~k ~dominating:dom in
      match Validate.check_successful inst s with
      | Ok () ->
        Printf.printf "constructive schedule: %d steps, %d moves — valid\n"
          (Schedule.length s) (Schedule.move_count s)
      | Error e -> Format.printf "constructive schedule INVALID: %a@." Validate.pp_error e
    end
  in
  let n = Arg.(value & opt int 6 & info [ "n" ] ~docv:"N" ~doc:"Vertices.") in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Budget.") in
  let p =
    Arg.(value & opt float 0.4 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.")
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Dominating Set -> FOCD reduction demo")
    Term.(const run $ seed_arg $ n $ k $ p)

(* ---------------------- ocd bounds --------------------------------- *)

let bounds_cmd =
  let run seed topology n tokens threshold =
    let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
    Printf.printf "deficit (bandwidth lower bound): %d\n"
      (Bounds.bandwidth_lower_bound inst);
    if Instance.satisfiable inst then begin
      Printf.printf "makespan lower bound (M_i(v)):   %d\n"
        (Bounds.makespan_lower_bound inst);
      Printf.printf "one-step completion possible:    %b\n"
        (Bounds.one_step_feasible inst ~have:inst.Instance.have);
      Printf.printf "serial-Steiner bandwidth (upper): %d\n"
        (Ocd_baselines.Serial_steiner.bandwidth_upper_bound inst)
    end
    else print_endline "instance is unsatisfiable";
    Ok ()
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the §5.1 lower bounds for a workload")
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg))

(* ---------------------- ocd experiment ----------------------------- *)

let experiment_cmd =
  let module E = Ocd_bench.Experiments in
  let plain f ~jobs:_ ~full:_ ~n:_ () = f () in
  let jobbed (f : ?jobs:int -> unit -> unit) ~jobs ~full:_ ~n:_ () =
    f ~jobs ()
  in
  let experiments =
    [
      ("all", fun ~jobs ~full ~n:_ () -> E.run_all ~full ~jobs ());
      ("adversary", plain E.adversary);
      ("ip-vs-search", plain E.ip_vs_search);
      ("optimality-gap", plain E.optimality_gap);
      ("baselines", jobbed E.baselines);
      ("ablation", jobbed E.ablation_subdivision);
      ("staleness", jobbed E.ablation_staleness);
      ("dynamics", plain E.dynamics);
      ("async-overhead", jobbed E.async_overhead);
      ("dht-lookup", jobbed E.dht_lookup);
      ("partition-heal", jobbed E.partition_heal);
      ("explain", jobbed E.explain_attribution);
      ("coding", plain E.coding);
      ("underlay", plain E.underlay);
      ("graph-scale", fun ~jobs:_ ~full ~n:_ () -> E.graph_scale ~full ());
      ("engine-scale", fun ~jobs:_ ~full:_ ~n () -> E.engine_scale ?n ());
    ]
  in
  let names = String.concat ", " (List.map fst experiments) in
  let run name full jobs n =
    match List.assoc_opt name experiments with
    | Some f -> f ~jobs ~full ~n ()
    | None ->
      Printf.eprintf "unknown experiment %S; available: %s\n" name names;
      exit 2
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            ("Experiment: " ^ names
           ^ ".  $(b,all) regenerates the whole evaluation (every figure \
              and every deterministic extension experiment)."))
  in
  let n_override_arg =
    Arg.(
      value
      & opt (some (int_at_least Ocd_topology.Transit_stub.min_size)) None
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Restrict a scale experiment to a single vertex count \
             (engine-scale only; its graphs are transit-stub).")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Run one of the extension experiments, or (all) regenerate the \
          whole evaluation")
    Term.(const run $ name_arg $ full_arg $ jobs_arg $ n_override_arg)

(* ---------------------- ocd export --------------------------------- *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write to $(docv) instead of stdout.")

(* Emit [text] to stdout or to [-o FILE]; a bad path is a cmdliner
   error, not a backtrace. *)
let emit ~output text =
  match output with
  | None ->
    print_string text;
    Ok ()
  | Some path ->
    let* oc = open_out_result path in
    output_string oc text;
    close_out oc;
    Ok ()

let export_cmd =
  let run seed topology n tokens threshold strategy_name output =
    let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Codec.instance_to_string inst);
    Option.iter
      (fun name ->
        let run =
          Ocd_engine.Engine.completed_exn
            (Ocd_engine.Engine.run ~strategy:(find_strategy name)
               ~seed:(seed + 1) inst)
        in
        Buffer.add_string buf
          (Codec.schedule_to_string run.Ocd_engine.Engine.schedule))
      strategy_name;
    emit ~output (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Dump a generated workload (and optionally a strategy's schedule) \
          in the text codec format")
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ strategy_arg $ output_arg))

(* ---------------------- shared async arguments -------------------- *)

let loss_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "loss" ] ~docv:"P" ~doc:"Override per-message loss probability.")

(* Two decimals, unless that would misreport the value (e.g. 0.003). *)
let prob_cell p =
  let s = Printf.sprintf "%.2f" p in
  if float_of_string s = p then s else Printf.sprintf "%g" p

(* The network profile and its --loss/--pace overrides, resolved in the
   command body (not at parse time) so a mode that ignores the profile
   never rejects it. *)
type profile_choice = {
  profile_name : string;
  loss : float option;
  pace : int option;
}

let profile_term =
  let profile_arg =
    Arg.(
      value & opt string "default"
      & info [ "profile" ] ~docv:"PROFILE"
          ~doc:
            "Network profile: default (latency, jitter, pacing) or lockstep \
             (the synchronous-equivalent degenerate profile).")
  in
  let pace_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pace" ] ~docv:"TICKS" ~doc:"Override ticks per round.")
  in
  Term.(
    const (fun profile_name loss pace -> { profile_name; loss; pace })
    $ profile_arg $ loss_arg $ pace_arg)

let resolve_profile c =
  let base =
    match c.profile_name with
    | "default" -> Ocd_async.Net.default
    | "lockstep" -> Ocd_async.Net.lockstep
    | other ->
      Printf.eprintf "unknown profile %S (default, lockstep)\n" other;
      exit 2
  in
  {
    base with
    Ocd_async.Net.loss = Option.value c.loss ~default:base.Ocd_async.Net.loss;
    pace = Option.value c.pace ~default:base.Ocd_async.Net.pace;
  }

let protocol_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"NAME"
        ~doc:
          ("Async protocol to run (default: all; explain chaos-cell: \
            async-local).  Available: "
          ^ String.concat ", " Ocd_dht.Registry.names
          ^ "."))

(* --protocol as a run list: all protocols when absent. *)
let resolve_protocols = function
  | None -> Ocd_dht.Registry.names
  | Some name ->
    if List.mem name Ocd_dht.Registry.names then [ name ]
    else begin
      Printf.eprintf "%s\n"
        (Ocd_async.Registry.unknown ~available:Ocd_dht.Registry.names name);
      exit 2
    end

let grid_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "grid" ] ~docv:"GRID"
        ~doc:
          "Chaos campaign grid: smoke (tiny, for CI), default, or failing (a \
           known-failing partition cell for exercising --shrink).  Absent: \
           default for chaos, smoke for explain chaos-cell.")

let resolve_grid ~default name =
  match Option.value name ~default with
  | "smoke" -> Ocd_bench.Chaos.smoke_grid
  | "default" -> Ocd_bench.Chaos.default_grid
  | "failing" -> Ocd_bench.Chaos.failing_grid
  | other ->
    Printf.eprintf "unknown grid %S (expected smoke, default or failing)\n"
      other;
    exit 2

(* ---------------------- ocd async ---------------------------------- *)

let async_cmd =
  let run seed topology n tokens threshold protocol_name profile_choice
      condition_name monitor_on jobs trace_out metrics_out =
    let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
    let profile = resolve_profile profile_choice in
    let condition =
      match condition_name with
      | "static" -> Ocd_dynamics.Condition.static
      | "cross-traffic" ->
        Ocd_dynamics.Condition.cross_traffic ~seed:(seed + 7) ~prob:0.4
          ~severity:0.5
      | "link-flaps" ->
        Ocd_dynamics.Condition.link_flaps ~seed:(seed + 7) ~down_prob:0.1
          ~up_prob:0.5
      | "churn" ->
        Ocd_dynamics.Condition.churn ~seed:(seed + 7) ~protected:[ 0 ]
          ~leave_prob:0.05 ~return_prob:0.5
      | other ->
        Printf.eprintf
          "unknown condition %S (static, cross-traffic, link-flaps, churn)\n"
          other;
        exit 2
    in
    let chosen = resolve_protocols protocol_name in
    Printf.printf "instance: n=%d m=%d deficit=%d; profile=%s pace=%d loss=%s condition=%s\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst)
      profile_choice.profile_name profile.Ocd_async.Net.pace
      (prob_cell profile.Ocd_async.Net.loss)
      condition_name;
    with_observed ~trace_out ~metrics_out (fun obs ->
        let runs =
          Pool.map ~obs ~jobs
            (fun name ->
              let protocol = Ocd_dht.Registry.find_exn name in
              (* Child scope per protocol: its registry and memory sink
                 are private to this worker, then absorbed in protocol
                 order below — so the files are byte-identical for any
                 --jobs. *)
              let pobs = Ocd_obs.child obs in
              let monitor =
                if monitor_on then Ocd_async.Monitor.create ()
                else Ocd_async.Monitor.disabled
              in
              let r =
                Ocd_async.Runtime.run ~obs:pobs ~profile ~condition ~monitor
                  ~protocol ~seed inst
              in
              (r, monitor, pobs))
            chosen
        in
        if obs.Ocd_obs.on then
          List.iteri
            (fun i (name, (_, _, pobs)) ->
              Ocd_obs.absorb ~into:obs ~pid:i ~prefix:(name ^ "/") pobs)
            (List.combine chosen runs);
        Printf.printf "%-12s %8s %8s %10s %9s %8s %8s %8s %8s\n" "protocol"
          "rounds" "ticks" "makespan" "data" "control" "retrans" "dropped"
          "goodput";
        List.iter
          (fun ((r : Ocd_async.Runtime.run), _, _) ->
            Printf.printf "%-12s %8s %8s %10s %9d %8d %8d %8d %8.3f\n"
              r.Ocd_async.Runtime.protocol_name
              (match r.Ocd_async.Runtime.outcome with
              | Ocd_async.Runtime.Completed ->
                string_of_int r.Ocd_async.Runtime.rounds
              | Ocd_async.Runtime.Timed_out -> "timeout")
              (match r.Ocd_async.Runtime.completion_ticks with
              | Some t -> string_of_int t
              | None -> "-")
              (Metrics.makespan_cell r.Ocd_async.Runtime.metrics)
              r.Ocd_async.Runtime.data_messages
              r.Ocd_async.Runtime.control_messages
              r.Ocd_async.Runtime.retransmissions
              r.Ocd_async.Runtime.dropped_messages r.Ocd_async.Runtime.goodput)
          runs;
        if monitor_on then
          List.iter
            (fun ((r : Ocd_async.Runtime.run), monitor, _) ->
              Printf.printf "\nmonitor %s: %s\n"
                r.Ocd_async.Runtime.protocol_name
                (if Ocd_async.Monitor.ok monitor then "ok"
                 else
                   Printf.sprintf "%d violation(s)"
                     (Ocd_async.Monitor.count monitor));
              List.iter
                (fun (v : Ocd_async.Monitor.violation) ->
                  Printf.printf "  [tick %d, node %d] %s: %s\n"
                    v.Ocd_async.Monitor.tick v.Ocd_async.Monitor.node
                    v.Ocd_async.Monitor.rule v.Ocd_async.Monitor.detail)
                (Ocd_async.Monitor.violations monitor))
            runs)
  in
  let condition_arg =
    Arg.(
      value & opt string "static"
      & info [ "condition" ] ~docv:"KIND"
          ~doc:
            "Fault injector: static, cross-traffic, link-flaps or churn \
             (seeded from --seed).")
  in
  let monitor_arg =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:
            "Enable the runtime invariant monitor (phantom arcs, possession \
             durability, false suspicion, DHT ring safety) and print its \
             violation report per protocol.")
  in
  Cmd.v
    (Cmd.info "async"
       ~doc:
         "Run the asynchronous message-passing protocols (discrete-event \
          simulation with latency, loss and retry)")
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ protocol_arg $ profile_term $ condition_arg
       $ monitor_arg $ jobs_arg $ trace_out_arg $ metrics_out_arg))

(* ---------------------- ocd chaos ---------------------------------- *)

let chaos_cmd =
  let run seed grid_name n tokens trials shrink shrink_out jobs trace_out
      metrics_out =
    let base = resolve_grid ~default:"default" grid_name in
    let grid =
      {
        base with
        Ocd_bench.Chaos.n = (match n with Some n -> n | None -> base.Ocd_bench.Chaos.n);
        tokens = (match tokens with Some m -> m | None -> base.Ocd_bench.Chaos.tokens);
        trials = (match trials with Some t -> t | None -> base.Ocd_bench.Chaos.trials);
      }
    in
    with_observed ~trace_out ~metrics_out (fun obs ->
        Ocd_bench.Chaos.report ~obs ~jobs ~seed grid;
        if shrink then begin
      let fails = Ocd_bench.Chaos.failures ~jobs ~seed grid in
      Printf.printf "\nshrink: %d failing trial(s)\n" (List.length fails);
      match fails with
      | [] -> ()
      | (case, tag) :: _ -> (
        Printf.printf "shrinking first failure: %s (%s)\n"
          case.Ocd_bench.Shrink.protocol tag;
        match Ocd_bench.Shrink.shrink case with
        | Error e ->
          Printf.eprintf "shrink failed: %s\n" e;
          exit 1
        | Ok s ->
          Printf.printf
            "minimal reproducer: %d crash span(s) + %d partition window(s) \
             (from %d + %d), %d replays\n"
            (List.length s.Ocd_bench.Shrink.minimal.Ocd_bench.Shrink.downtime)
            (List.length s.Ocd_bench.Shrink.minimal.Ocd_bench.Shrink.windows)
            (List.length case.Ocd_bench.Shrink.downtime)
            (List.length case.Ocd_bench.Shrink.windows)
            s.Ocd_bench.Shrink.tests;
          let artifact =
            Ocd_bench.Shrink.to_string s.Ocd_bench.Shrink.minimal
          in
          (match shrink_out with
          | None -> print_string artifact
          | Some path ->
            let oc = open_out path in
            output_string oc artifact;
            close_out oc;
            Printf.printf "wrote %s\n" path))
        end)
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "After the campaign, replay each trial as an explicit fault \
             schedule, delta-debug the first failure down to a minimal \
             crash-span/partition-window set that still fails the same way, \
             and emit it as a replayable reproducer.")
  in
  let shrink_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shrink-out" ] ~docv:"FILE"
          ~doc:"Write the shrunk reproducer artifact to $(docv) (default: stdout).")
  in
  let n_override =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "n" ] ~docv:"N" ~doc:"Override the grid's vertex count.")
  in
  let tokens_override =
    Arg.(
      value
      & opt (some (int_at_least 0)) None
      & info [ "tokens" ] ~docv:"M" ~doc:"Override the grid's token count.")
  in
  let trials_override =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "trials" ] ~docv:"T" ~doc:"Override trials per grid cell.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos campaign: a parallel sweep of the async protocols \
          over loss, link flaps, churn, node crash-recovery and partition \
          faults, with per-cell robustness aggregates, runtime invariant \
          monitoring, stall diagnoses, and optional fault-schedule shrinking")
    Term.(
      term_result
        (const run $ seed_arg $ grid_arg $ n_override $ tokens_override
       $ trials_override $ shrink_arg $ shrink_out_arg $ jobs_arg
       $ trace_out_arg $ metrics_out_arg))

(* ---------------------- ocd dht ------------------------------------ *)

let dht_cmd =
  let run seed topology n tokens threshold loss crash churn jobs trace_out
      metrics_out =
    let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
    let profile =
      match loss with
      | None -> Ocd_async.Net.default
      | Some l -> { Ocd_async.Net.default with Ocd_async.Net.loss = l }
    in
    let condition =
      if churn then begin
        let sources =
          List.filter
            (fun v -> not (Bitset.is_empty inst.Instance.have.(v)))
            (List.init (Instance.vertex_count inst) (fun v -> v))
        in
        Ocd_dynamics.Condition.churn ~seed:(seed + 13) ~protected:sources
          ~leave_prob:0.02 ~return_prob:0.3
      end
      else Ocd_dynamics.Condition.static
    in
    let faults =
      match crash with
      | None -> Ocd_dynamics.Faults.none
      | Some p -> Ocd_dynamics.Faults.crashes ~seed:(seed + 17) ~crash_prob:p ()
    in
    (* The omniscient baseline first, then the DHT protocol it is
       measured against; both under the same profile/faults/seed. *)
    let chosen = [ "async-local"; "dht-rarest" ] in
    Printf.printf
      "instance: n=%d m=%d deficit=%d; loss=%s crash=%s churn=%b\n\n"
      (Instance.vertex_count inst)
      inst.Instance.token_count (Instance.total_deficit inst)
      (prob_cell profile.Ocd_async.Net.loss)
      (prob_cell (Option.value crash ~default:0.0))
      churn;
    with_observed ~trace_out ~metrics_out (fun obs ->
        let runs =
          Pool.map ~obs ~jobs
            (fun name ->
              (* Stats are created inside the task so each worker domain
                 owns its counters; Pool.map's join publishes them. *)
              let stats = Ocd_dht.Node.fresh_stats () in
              let protocol =
                if name = "dht-rarest" then
                  Ocd_dht.Dht_rarest.protocol ~stats ()
                else Ocd_dht.Registry.find_exn name
              in
              let pobs = Ocd_obs.child obs in
              let r =
                Ocd_async.Runtime.run ~obs:pobs ~profile ~condition ~faults
                  ~protocol ~seed inst
              in
              (r, stats, pobs))
            chosen
        in
        if obs.Ocd_obs.on then
          List.iteri
            (fun i (name, (_, _, pobs)) ->
              Ocd_obs.absorb ~into:obs ~pid:i ~prefix:(name ^ "/") pobs)
            (List.combine chosen runs);
        Printf.printf "%-12s %8s %8s %10s %9s %8s %8s %8s %8s %8s\n" "protocol"
          "rounds" "ticks" "makespan" "data" "control" "retrans" "crashes"
          "restarts" "goodput";
        List.iter
          (fun ((r : Ocd_async.Runtime.run), _, _) ->
            Printf.printf "%-12s %8s %8s %10s %9d %8d %8d %8d %8d %8.3f\n"
              r.Ocd_async.Runtime.protocol_name
              (match r.Ocd_async.Runtime.outcome with
              | Ocd_async.Runtime.Completed ->
                string_of_int r.Ocd_async.Runtime.rounds
              | Ocd_async.Runtime.Timed_out -> "timeout")
              (match r.Ocd_async.Runtime.completion_ticks with
              | Some t -> string_of_int t
              | None -> "-")
              (Metrics.makespan_cell r.Ocd_async.Runtime.metrics)
              r.Ocd_async.Runtime.data_messages
              r.Ocd_async.Runtime.control_messages
              r.Ocd_async.Runtime.retransmissions r.Ocd_async.Runtime.crashes
              r.Ocd_async.Runtime.restarts r.Ocd_async.Runtime.goodput)
          runs;
        List.iter
          (fun (name, ((_ : Ocd_async.Runtime.run), s, _)) ->
            if name = "dht-rarest" then begin
              Printf.printf
                "\ndht: lookups=%d mean_hops=%.2f max_hops=%d failures=%d \
                 stores=%d queries=%d joins=%d evictions=%d\n"
                s.Ocd_dht.Node.lookups
                (Ocd_dht.Node.mean_hops s)
                s.Ocd_dht.Node.max_hops s.Ocd_dht.Node.failures
                s.Ocd_dht.Node.stores s.Ocd_dht.Node.queries
                s.Ocd_dht.Node.joins s.Ocd_dht.Node.evictions;
              if obs.Ocd_obs.on then begin
                let put k v = Ocd_obs.Metrics.add obs.Ocd_obs.metrics k v in
                put "dht/evictions" s.Ocd_dht.Node.evictions;
                put "dht/failures" s.Ocd_dht.Node.failures;
                put "dht/hops" s.Ocd_dht.Node.hops;
                put "dht/joins" s.Ocd_dht.Node.joins;
                put "dht/lookups" s.Ocd_dht.Node.lookups;
                put "dht/max_hops" s.Ocd_dht.Node.max_hops;
                put "dht/queries" s.Ocd_dht.Node.queries;
                put "dht/stores" s.Ocd_dht.Node.stores
              end
            end)
          (List.combine chosen runs))
  in
  let crash_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "crash" ] ~docv:"P"
          ~doc:
            "Per-round crash probability (crashed nodes lose all state and \
             restart, rejoining the DHT ring through the sources).")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"Add membership churn (sources protected), seeded from --seed.")
  in
  Cmd.v
    (Cmd.info "dht"
       ~doc:
         "Run the dht-rarest protocol (Chord-style provider discovery, no \
          global knowledge) against the omniscient async-local baseline on \
          the same instance, with optional crash/churn faults")
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ loss_arg $ crash_arg $ churn_arg $ jobs_arg
       $ trace_out_arg $ metrics_out_arg))

(* ---------------------- ocd trace ---------------------------------- *)

let trace_cmd =
  let run seed topology n tokens threshold strategy_name output =
    let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
    let strategy = find_strategy (Option.value strategy_name ~default:"local") in
    let run =
      Ocd_engine.Engine.completed_exn
        (Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst)
    in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf "%s on n=%d m=%d:\n\n"
      run.Ocd_engine.Engine.strategy_name
      (Instance.vertex_count inst)
      inst.Instance.token_count;
    Buffer.add_string buf
      (Ocd_engine.Trace.render ~width:40 inst run.Ocd_engine.Engine.schedule);
    let fairness = Fairness.of_schedule inst run.Ocd_engine.Engine.schedule in
    Printf.bprintf buf "\nJain fairness over forwarding load: %.3f\n"
      fairness.Fairness.jain_index;
    emit ~output (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one strategy and render its per-step progress timeline")
    Term.(
      term_result
        (const run $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ strategy_arg $ output_arg))

(* ---------------------- ocd profile -------------------------------- *)

let profile_cmd =
  let run kind seed topology n tokens jobs =
    let probe = Ocd_obs.Probe.create () in
    (* A probing scope with the null sink: deterministic streams stay
       off, the probe collects wall-clock and GC deltas per phase. *)
    let obs = Ocd_obs.create ~probe () in
    let* title =
      match kind with
      | "run" ->
        let* inst =
          build_instance ~seed ~topology ~n ~tokens ~threshold:1.0 ()
        in
        let strategies = all_strategies () in
        List.iter
          (fun strategy ->
            ignore
              (Ocd_engine.Engine.run ~obs ~strategy ~seed:(seed + 1) inst))
          strategies;
        Ok
          (Printf.sprintf "ocd profile run: n=%d m=%d, %d strategies"
             (Instance.vertex_count inst)
             inst.Instance.token_count (List.length strategies))
      | "async" ->
        let* inst =
          build_instance ~seed ~topology ~n ~tokens ~threshold:1.0 ()
        in
        List.iter
          (fun name ->
            let protocol = Ocd_dht.Registry.find_exn name in
            ignore (Ocd_async.Runtime.run ~obs ~protocol ~seed inst))
          Ocd_dht.Registry.names;
        Ok
          (Printf.sprintf "ocd profile async: n=%d m=%d, %d protocols"
             (Instance.vertex_count inst)
             inst.Instance.token_count
             (List.length Ocd_dht.Registry.names))
      | "chaos" ->
        let grid = Ocd_bench.Chaos.smoke_grid in
        ignore (Ocd_bench.Chaos.run ~obs ~jobs ~seed grid);
        Ok
          (Printf.sprintf "ocd profile chaos: smoke grid, %d cells x %d trials"
             (List.length grid.Ocd_bench.Chaos.cells)
             grid.Ocd_bench.Chaos.trials)
      | other ->
        Printf.eprintf "unknown profile workload %S (run, async, chaos)\n"
          other;
        exit 2
    in
    print_string (Ocd_obs.Probe.render ~title probe);
    Ok ()
  in
  let kind_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to profile: run (sync engine), async or chaos.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload under the wall-clock/allocation probe and print \
          the per-phase table (strategy decide/apply phases, protocol \
          message handlers, simulator events, pool workers).  Probe \
          numbers are non-deterministic by nature; the deterministic \
          metrics/trace streams are the --metrics-out/--trace-out flags \
          of run, async and chaos.")
    Term.(
      term_result
        (const run $ kind_arg $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ jobs_arg))

(* ---------------------- ocd explain -------------------------------- *)

let explain_cmd =
  let render_dec ~label ~completion dec =
    match dec with
    | None ->
      Printf.printf "%s: no completion event — the run timed out, so there is \
                     no critical path to attribute\n\n"
        label
    | Some (d : Ocd_bench.Explain.decomposition) ->
      let sum =
        List.fold_left (fun a (_, n) -> a + n) 0 d.Ocd_bench.Explain.by_category
      in
      assert (sum = d.Ocd_bench.Explain.makespan);
      (match completion with
      | Some t -> assert (t = d.Ocd_bench.Explain.makespan)
      | None -> ());
      Ocd_bench.Report.render
        (Ocd_bench.Explain.table
           ~title:(label ^ ": critical-path attribution")
           d);
      print_string (Ocd_bench.Explain.notes d);
      print_newline ()
  in
  let flush_path_out ~path_out sink =
    match path_out with
    | None -> Ok ()
    | Some path ->
      let* oc = open_out_result path in
      let jsonl = Ocd_obs.Sink.jsonl oc in
      List.iter (Ocd_obs.Sink.emit jsonl) (Ocd_obs.Sink.events sink);
      Ocd_obs.Sink.close jsonl;
      close_out oc;
      Ok ()
  in
  let run mode seed topology n tokens threshold protocol_name strategy_name
      profile_choice grid_name cell_label trial jobs path_out =
    match mode with
    | "run" ->
      let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
      let strategy =
        find_strategy (Option.value strategy_name ~default:"local")
      in
      let r = Ocd_engine.Engine.run ~strategy ~seed:(seed + 1) inst in
      (match r.Ocd_engine.Engine.outcome with
      | Ocd_engine.Engine.Completed ->
        (* sync rounds are the tick unit here (pace 1): the attribution
           is the schedule's token-dependency critical path *)
        render_dec ~label:strategy.Ocd_engine.Strategy.name ~completion:None
          (Ocd_bench.Explain.of_schedule ~instance:inst
             r.Ocd_engine.Engine.schedule)
      | Ocd_engine.Engine.Stalled step ->
        Printf.printf "%s stalled at step %d — no completion to explain\n"
          strategy.Ocd_engine.Strategy.name step
      | Ocd_engine.Engine.Step_limit ->
        Printf.printf "%s hit the step limit — no completion to explain\n"
          strategy.Ocd_engine.Strategy.name);
      if path_out <> None then
        Printf.eprintf
          "note: --path-out needs a causal log; it applies to the async and \
           chaos-cell modes\n";
      Ok ()
    | "async" ->
      let* inst = build_instance ~seed ~topology ~n ~tokens ~threshold () in
      let profile = resolve_profile profile_choice in
      let chosen = resolve_protocols protocol_name in
      Printf.printf
        "instance: n=%d m=%d deficit=%d; profile=%s pace=%d loss=%s\n\n"
        (Instance.vertex_count inst)
        inst.Instance.token_count (Instance.total_deficit inst)
        profile_choice.profile_name profile.Ocd_async.Net.pace
        (prob_cell profile.Ocd_async.Net.loss);
      let sink =
        if path_out <> None then Ocd_obs.Sink.memory () else Ocd_obs.Sink.null
      in
      let obs =
        if path_out <> None then Ocd_obs.create ~sink () else Ocd_obs.disabled
      in
      (* One causal log per protocol, filled in the worker; extraction
         and rendering happen in protocol order afterwards, so stdout
         and the --path-out file are byte-identical for any --jobs. *)
      let results =
        Pool.map ~obs ~jobs
          (fun name ->
            let protocol = Ocd_dht.Registry.find_exn name in
            let causal = Ocd_obs.Causal.create () in
            let pobs = Ocd_obs.child obs in
            let r =
              Ocd_async.Runtime.run ~obs:pobs ~causal ~profile ~protocol ~seed
                inst
            in
            (r, causal, pobs))
          chosen
      in
      List.iteri
        (fun i (name, ((_ : Ocd_async.Runtime.run), causal, pobs)) ->
          if obs.Ocd_obs.on then
            Ocd_obs.absorb ~into:obs ~pid:i ~prefix:(name ^ "/") pobs;
          Ocd_bench.Explain.flow_overlay ~sink ~pid:i causal)
        (List.combine chosen results);
      List.iter2
        (fun name ((r : Ocd_async.Runtime.run), causal, _) ->
          render_dec ~label:name
            ~completion:r.Ocd_async.Runtime.completion_ticks
            (Ocd_bench.Explain.of_causal ~pace:profile.Ocd_async.Net.pace
               ~instance:inst causal))
        chosen results;
      flush_path_out ~path_out sink
    | "chaos-cell" ->
      let grid = resolve_grid ~default:"smoke" grid_name in
      let cell_label =
        match cell_label with
        | Some c -> c
        | None ->
          Printf.eprintf
            "chaos-cell needs --cell LABEL (the campaign report's env \
             column)\n";
          exit 2
      in
      let protocol = Option.value protocol_name ~default:"async-local" in
      (match
         Ocd_bench.Chaos.trial_setup ~seed grid ~cell_label ~protocol ~trial
       with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
      | Ok ts ->
        let sink =
          if path_out <> None then Ocd_obs.Sink.memory ()
          else Ocd_obs.Sink.null
        in
        let obs =
          if path_out <> None then Ocd_obs.create ~sink ()
          else Ocd_obs.disabled
        in
        let causal = Ocd_obs.Causal.create () in
        let r =
          Ocd_async.Runtime.run ~obs ~causal
            ~profile:ts.Ocd_bench.Chaos.t_profile
            ~condition:ts.Ocd_bench.Chaos.t_condition
            ~faults:ts.Ocd_bench.Chaos.t_faults
            ~monitor:(Ocd_async.Monitor.create ())
            ~protocol:ts.Ocd_bench.Chaos.t_protocol
            ~seed:ts.Ocd_bench.Chaos.t_run_seed ts.Ocd_bench.Chaos.t_instance
        in
        Printf.printf "cell %s, protocol %s, trial %d (run seed %d)\n\n"
          cell_label protocol trial ts.Ocd_bench.Chaos.t_run_seed;
        Ocd_bench.Explain.flow_overlay ~sink ~pid:0 causal;
        render_dec
          ~label:(cell_label ^ "/" ^ protocol)
          ~completion:r.Ocd_async.Runtime.completion_ticks
          (Ocd_bench.Explain.of_causal ~faults:ts.Ocd_bench.Chaos.t_faults
             ~pace:ts.Ocd_bench.Chaos.t_profile.Ocd_async.Net.pace
             ~instance:ts.Ocd_bench.Chaos.t_instance causal);
        flush_path_out ~path_out sink)
    | other ->
      Printf.eprintf "unknown explain mode %S (run, async, chaos-cell)\n" other;
      exit 2
  in
  let mode_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODE"
          ~doc:
            "What to explain: run (a synchronous schedule's \
             token-dependency critical path), async (an async protocol run \
             under a live causal log), or chaos-cell (replay one chaos \
             campaign grid point).")
  in
  let cell_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cell" ] ~docv:"LABEL"
          ~doc:
            "Chaos cell label to replay (the campaign report's env column, \
             e.g. baseline or loss=0.20+crash=0.05).")
  in
  let trial_arg =
    Arg.(
      value & opt int 0
      & info [ "trial" ] ~docv:"T" ~doc:"Trial index within the cell.")
  in
  let path_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "path-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's trace plus its critical path as Chrome \
             trace-event JSON: the path is emitted as flow events (ph \
             s/t/f, id 1, name critical-path), which Perfetto draws as \
             arrows across the per-node tracks.  Timestamps are simulator \
             ticks, so the file is byte-identical across $(b,--jobs).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute a run's makespan tick-by-tick over its causal critical \
          path: transmit, queue, backoff, suspicion, crash-down, \
          partition-down and protocol-idle categories that sum exactly to \
          the completion time, next to the paper's lower bound")
    Term.(
      term_result
        (const run $ mode_arg $ seed_arg $ topology_arg $ n_arg $ tokens_arg
       $ threshold_arg $ protocol_arg $ strategy_arg $ profile_term
       $ grid_arg $ cell_arg $ trial_arg $ jobs_arg $ path_out_arg))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "ocd" ~version:"1.0.0"
      ~doc:"The Overlay Network Content Distribution problem (PODC'05)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd;
            figure_cmd;
            exact_cmd;
            reduce_cmd;
            bounds_cmd;
            experiment_cmd;
            export_cmd;
            trace_cmd;
            async_cmd;
            chaos_cmd;
            dht_cmd;
            profile_cmd;
            explain_cmd;
          ]))
