open Ocd_core

type run = Ocd_engine.Engine.run = {
  strategy_name : string;
  seed : int;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
  dropped_moves : int;
}

let run ?obs ?step_limit ?stall_patience ~condition ~strategy ~seed
    (inst : Instance.t) =
  (* The strategy sees the effective topology (or the static one if
     everything is down, which admission then zeroes anyway); admission
     keeps at most the effective capacity per arc and step. *)
  let view ~step =
    match Condition.graph_at condition ~step inst.graph with
    | Some graph ->
      Instance.make_bitsets ~graph ~token_count:inst.token_count
        ~have:inst.have ~want:inst.want
    | None -> inst
  in
  let fits ~step ~load ~cap (m : Move.t) =
    load < Condition.effective condition ~step ~src:m.src ~dst:m.dst ~base:cap
  in
  Ocd_engine.Engine.loop ?obs ?step_limit ?stall_patience
    ~admission:(Lossy { view; fits }) ~goal:Wants ~strategy ~seed inst
