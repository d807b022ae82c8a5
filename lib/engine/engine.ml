open Ocd_core
open Ocd_prelude
open Ocd_graph

exception Strategy_error of string

type outcome = Completed | Stalled of int | Step_limit

type run = {
  strategy_name : string;
  seed : int;
  outcome : outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
  dropped_moves : int;
}

type admission =
  | Strict
  | Lossy of {
      view : step:int -> Instance.t;
      fits : step:int -> load:int -> cap:int -> Move.t -> bool;
    }

type goal =
  | Wants
  | Until of {
      on_fresh : step:int -> dst:int -> token:int -> unit;
      is_done : unit -> bool;
    }

let strategy_fail fmt = Format.kasprintf (fun s -> raise (Strategy_error s)) fmt

(* Upper edges for the moves-per-step histogram: powers of two up to a
   step that moves 256 tokens at once (larger lands in +inf). *)
let moves_buckets = [| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

(* Theorem 1: any satisfiable instance has a schedule of at most m(n-1)
   moves, hence m(n-1) steps; add slack for strategies that spend
   silent steps (e.g. the flood-then-plan algorithm waits a diameter,
   which n dominates) before capping.  A lossy run loses moves to its
   admission and waits out unreachable wants, so it gets twice the
   budget and a more generous patience. *)
let default_limits admission (inst : Instance.t) =
  let n = Instance.vertex_count inst and m = max 1 inst.token_count in
  let limit, patience =
    match admission with
    | Strict -> ((m * max 1 (n - 1)) + n + 64, (2 * inst.token_count) + 16)
    | Lossy _ ->
      ((2 * m * max 1 (n - 1)) + n + 128, (4 * inst.token_count) + 64)
  in
  (min limit 1_000_000, patience)

let loop ?(obs = Ocd_obs.disabled) ?step_limit ?stall_patience ~admission
    ~goal ~strategy ~seed (inst : Instance.t) =
  let default_limit, default_patience = default_limits admission inst in
  let step_limit = Option.value step_limit ~default:default_limit in
  let stall_patience = Option.value stall_patience ~default:default_patience in
  let g = inst.graph in
  let n = Instance.vertex_count inst in
  let token_count = inst.token_count in
  let rng = Prng.create ~seed in
  let decide = strategy.Strategy.make inst rng in
  let have = Array.map Bitset.copy inst.have in
  let tracker = Timeline.Tracker.create inst in
  let scratch = Strategy.scratch_create ~token_count in
  let builder = Schedule.Builder.create () in
  (* Instrumentation setup is unconditional (a disabled registry hands
     back shared dummies); the per-step work below is guarded so the
     default Null path costs one load-and-branch per site.  A strict
     run never drops, so it does not register the drop counter. *)
  let m = obs.Ocd_obs.metrics in
  let c_rounds = Ocd_obs.Metrics.counter m "engine/rounds" in
  let c_moves = Ocd_obs.Metrics.counter m "engine/moves" in
  let c_fresh = Ocd_obs.Metrics.counter m "engine/fresh_deliveries" in
  let c_quiet = Ocd_obs.Metrics.counter m "engine/quiet_steps" in
  let c_dropped =
    Ocd_obs.Metrics.counter
      (match admission with
      | Strict -> Ocd_obs.Metrics.disabled
      | Lossy _ -> m)
      "engine/dropped_moves"
  in
  let h_moves =
    Ocd_obs.Metrics.histogram m "engine/moves_per_step" ~buckets:moves_buckets
  in
  let probe = Ocd_obs.probe obs in
  let lbl_decide = "engine/" ^ strategy.Strategy.name ^ "/decide" in
  let lbl_apply = "engine/" ^ strategy.Strategy.name ^ "/apply" in
  let lbl_post = "engine/" ^ strategy.Strategy.name ^ "/post" in
  let trace = obs.Ocd_obs.on && Ocd_obs.Sink.enabled obs.Ocd_obs.sink in
  (* Per-step admission tables: int-packed keys into stamped
     open-addressing tables, so the per-step reset is O(1) and an
     admitted move costs two allocation-free probes.  [mirror] is a
     flat one-word-per-vertex possession mirror (token_count <= 63
     only), kept in sync with [have] by [deliver] below, the sole
     mutator of [have] during a run — a possession test on it is one
     indexed load instead of the bitset's three dependent pointer
     chases. *)
  let seen = Int_tab.create ~capacity:1024 () in
  let load = Int_tab.create ~capacity:1024 () in
  let use_mirror = token_count <= 63 && n > 0 in
  let mirror = Array.make (if use_mirror then n else 0) 0 in
  if use_mirror then
    for v = 0 to n - 1 do
      Bitset.iter (fun t -> mirror.(v) <- mirror.(v) lor (1 lsl t)) have.(v)
    done;
  let kept = ref [] and dropped = ref 0 in
  (* Check one step's proposal against §3.1.  The prelude (vertex and
     token range, arc existence, sender possession) raises under every
     admission; past it, [Strict] raises on a repeated (arc, token) or
     an exceeded capacity, while [Lossy] drops the repeat silently and
     lets [fits] admit the move (into [kept]) or count a drop.  Direct
     recursion, not [List.iter]: the body runs once per move and the
     indirect closure call is measurable at engine scale. *)
  let rec admit step = function
    | [] -> ()
    | (m : Move.t) :: tl ->
      if m.src < 0 || m.src >= n || m.dst < 0 || m.dst >= n then
        strategy_fail "step %d: move %d->%d names a vertex outside [0, %d)"
          step m.src m.dst n;
      if m.token < 0 || m.token >= token_count then
        strategy_fail "step %d: token %d out of range" step m.token;
      let cap = Digraph.capacity g m.src m.dst in
      if cap = 0 then strategy_fail "step %d: no arc %d->%d" step m.src m.dst;
      if
        (if use_mirror then mirror.(m.src) land (1 lsl m.token) = 0
         else not (Bitset.mem have.(m.src) m.token))
      then
        strategy_fail "step %d: %d sends token %d it does not hold" step m.src
          m.token;
      (* Vertices and token were range-checked above, so the packed
         keys are injective. *)
      let arc = (m.src * n) + m.dst in
      let first = Int_tab.incr seen ((arc * token_count) + m.token) = 1 in
      (match admission with
      | Strict ->
        if not first then
          strategy_fail "step %d: duplicate assignment %d->%d:%d" step m.src
            m.dst m.token;
        let l = Int_tab.incr load arc in
        if l > cap then
          strategy_fail "step %d: capacity of %d->%d exceeded (%d > %d)" step
            m.src m.dst l cap
      | Lossy { fits; _ } ->
        if first then
          if fits ~step ~load:(Int_tab.find load arc) ~cap m then begin
            ignore (Int_tab.incr load arc);
            kept := m :: !kept
          end
          else incr dropped);
      admit step tl
  in
  (* The admitted moves land simultaneously.  The membership test
     before each add counts each (dst, token) pair once even when
     several sources deliver it in the same step, and keeps the goal
     accounting O(1) per fresh arrival. *)
  let rec deliver step fresh = function
    | [] -> fresh
    | (m : Move.t) :: tl ->
      if
        (if use_mirror then mirror.(m.dst) land (1 lsl m.token) = 0
         else not (Bitset.mem have.(m.dst) m.token))
      then begin
        if use_mirror then
          mirror.(m.dst) <- mirror.(m.dst) lor (1 lsl m.token);
        Bitset.add have.(m.dst) m.token;
        Timeline.Tracker.deliver tracker ~step:(step + 1) ~dst:m.dst
          ~token:m.token;
        (match goal with
        | Wants -> ()
        | Until { on_fresh; _ } ->
          on_fresh ~step:(step + 1) ~dst:m.dst ~token:m.token);
        Strategy.notify_deliver scratch ~dst:m.dst ~token:m.token;
        (* One trace lane per receiving vertex (tid = node id), in
           sim-time (ts = step) — deterministic by construction. *)
        if trace then
          Ocd_obs.Span.complete obs.Ocd_obs.sink ~pid:obs.Ocd_obs.pid
            ~tid:m.dst ~name:"recv" ~ts:step ~dur:1
            ~args:[ ("token", Ocd_obs.Sink.Int m.token);
                    ("src", Ocd_obs.Sink.Int m.src) ]
            ();
        deliver step (fresh + 1) tl
      end
      else deliver step fresh tl
  in
  (* Returns the moves that land (the whole proposal when strict) and
     how many of them were fresh. *)
  let apply step moves =
    Int_tab.clear seen;
    Int_tab.clear load;
    admit step moves;
    let landed =
      match admission with
      | Strict -> moves
      | Lossy _ ->
        let k = List.rev !kept in
        kept := [];
        k
    in
    (landed, deliver step 0 landed)
  in
  let finished () =
    match goal with
    | Wants -> Timeline.Tracker.all_satisfied tracker
    | Until { is_done; _ } -> is_done ()
  in
  let rec run_steps step since_progress =
    if finished () then Completed
    else if step >= step_limit then Step_limit
    else if since_progress >= stall_patience then Stalled step
    else begin
      let instance =
        match admission with Strict -> inst | Lossy { view; _ } -> view ~step
      in
      let ctx = { Strategy.instance; have; step; rng; scratch } in
      let moves =
        match probe with
        | None -> decide ctx
        | Some p -> Ocd_obs.Probe.time p lbl_decide (fun () -> decide ctx)
      in
      let landed, fresh =
        match probe with
        | None -> apply step moves
        | Some p -> Ocd_obs.Probe.time p lbl_apply (fun () -> apply step moves)
      in
      if obs.Ocd_obs.on then begin
        let n_moves = List.length landed in
        Ocd_obs.Metrics.incr c_rounds;
        Ocd_obs.Metrics.incr c_moves ~by:n_moves;
        Ocd_obs.Metrics.incr c_fresh ~by:fresh;
        if fresh = 0 then Ocd_obs.Metrics.incr c_quiet;
        Ocd_obs.Metrics.observe_int h_moves n_moves;
        if trace then
          Ocd_obs.Span.complete obs.Ocd_obs.sink ~pid:obs.Ocd_obs.pid ~tid:0
            ~name:"step" ~ts:step ~dur:1
            ~args:[ ("moves", Ocd_obs.Sink.Int n_moves);
                    ("fresh", Ocd_obs.Sink.Int fresh) ]
            ()
      end;
      List.iter
        (fun (m : Move.t) ->
          Schedule.Builder.push_move builder ~src:m.src ~dst:m.dst
            ~token:m.token)
        landed;
      Schedule.Builder.end_step builder;
      run_steps (step + 1) (if fresh > 0 then 0 else since_progress + 1)
    end
  in
  let outcome = run_steps 0 0 in
  Ocd_obs.Metrics.incr c_dropped ~by:!dropped;
  (* Reported numbers never rest on the loop's own bookkeeping: a
     completed schedule is re-checked from scratch — against every
     want, or against §3.1 alone when a caller-supplied goal decides
     completion. *)
  let finish () =
    let schedule =
      Schedule.drop_trailing_empty (Schedule.Builder.to_schedule builder)
    in
    (match outcome with
    | Completed -> (
      let valid =
        match goal with
        | Wants -> Validate.check_successful inst schedule
        | Until _ -> Validate.check inst schedule
      in
      match valid with
      | Ok () -> ()
      | Error e ->
        strategy_fail "engine produced an invalid schedule: %a"
          Validate.pp_error e)
    | Stalled _ | Step_limit -> ());
    (schedule, Metrics.of_schedule inst schedule)
  in
  let schedule, metrics =
    match probe with
    | None -> finish ()
    | Some p -> Ocd_obs.Probe.time p lbl_post finish
  in
  if trace then
    Ocd_obs.Span.instant obs.Ocd_obs.sink ~pid:obs.Ocd_obs.pid ~tid:0
      ~name:
        (match outcome with
        | Completed -> "completed"
        | Stalled _ -> "stalled"
        | Step_limit -> "step-limit")
      ~ts:(Schedule.length schedule) ();
  {
    strategy_name = strategy.Strategy.name;
    seed;
    outcome;
    schedule;
    metrics;
    fresh_deliveries = Timeline.Tracker.fresh_deliveries tracker;
    dropped_moves = !dropped;
  }

let run ?obs ?step_limit ?stall_patience ~strategy ~seed inst =
  loop ?obs ?step_limit ?stall_patience ~admission:Strict ~goal:Wants
    ~strategy ~seed inst

let completed_exn run =
  match run.outcome with
  | Completed -> run
  | Stalled step ->
    failwith
      (Printf.sprintf "strategy %s stalled at step %d" run.strategy_name step)
  | Step_limit ->
    failwith (Printf.sprintf "strategy %s hit the step limit" run.strategy_name)
