open Ocd_graph

type t = { effective : step:int -> src:int -> dst:int -> base:int -> int }

let effective t = t.effective

let make effective = { effective }

(* A keyed deterministic coin: hash (seed, a, b, c) down to a float in
   [0, 1).  Uses the SplitMix64 finaliser through Prng by seeding a
   throwaway generator with the mixed key. *)
let coin ~seed ~a ~b ~c =
  let key = (((((seed * 1_000_003) + a) * 1_000_003) + b) * 1_000_003) + c in
  let g = Ocd_prelude.Prng.create ~seed:key in
  Ocd_prelude.Prng.float g 1.0

let keyed_coin = coin

let static = { effective = (fun ~step:_ ~src:_ ~dst:_ ~base -> base) }

let compose a b =
  {
    effective =
      (fun ~step ~src ~dst ~base ->
        let c = a.effective ~step ~src ~dst ~base in
        if c <= 0 then 0 else b.effective ~step ~src ~dst ~base:c);
  }

let cross_traffic ~seed ~prob ~severity =
  if prob < 0.0 || prob > 1.0 || severity < 0.0 || severity > 1.0 then
    invalid_arg "Condition.cross_traffic: parameters out of [0,1]";
  let effective ~step ~src ~dst ~base =
    if coin ~seed ~a:step ~b:src ~c:dst < prob then
      int_of_float (float_of_int base *. (1.0 -. severity))
    else base
  in
  { effective }

(* Two-state Markov chain with memoised per-(key, step) states.  State
   at step 0 is "up"; transitions draw keyed coins so every query
   order yields the same trajectory.  A condition may be shared by runs
   on several Pool domains, so each query holds [lock] while it reads
   and fills the memo (a pure cache: the lock never changes an
   answer). *)
let markov_chain ~seed ~down_prob ~up_prob =
  let memo : (int * int * int, bool) Hashtbl.t = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let rec up ~step ~a ~b =
    if step <= 0 then true
    else
      match Hashtbl.find_opt memo (step, a, b) with
      | Some state -> state
      | None ->
        let previous = up ~step:(step - 1) ~a ~b in
        let c = coin ~seed ~a:step ~b:a ~c:b in
        let state = if previous then c >= down_prob else c < up_prob in
        Hashtbl.replace memo (step, a, b) state;
        state
  in
  fun ~step ~a ~b -> Mutex.protect lock (fun () -> up ~step ~a ~b)

let link_flaps ~seed ~down_prob ~up_prob =
  if down_prob < 0.0 || down_prob > 1.0 || up_prob < 0.0 || up_prob > 1.0 then
    invalid_arg "Condition.link_flaps: parameters out of [0,1]";
  let up = markov_chain ~seed ~down_prob ~up_prob in
  {
    effective =
      (fun ~step ~src ~dst ~base -> if up ~step ~a:src ~b:dst then base else 0);
  }

let churn ~seed ~protected ~leave_prob ~return_prob =
  if leave_prob < 0.0 || leave_prob > 1.0 || return_prob < 0.0 || return_prob > 1.0
  then invalid_arg "Condition.churn: parameters out of [0,1]";
  let present_chain = markov_chain ~seed ~down_prob:leave_prob ~up_prob:return_prob in
  let is_protected = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace is_protected v ()) protected;
  let present ~step v =
    Hashtbl.mem is_protected v || present_chain ~step ~a:v ~b:(-1)
  in
  {
    effective =
      (fun ~step ~src ~dst ~base ->
        if present ~step src && present ~step dst then base else 0);
  }

let graph_at t ~step g =
  let arcs =
    List.filter_map
      (fun { Digraph.src; dst; capacity } ->
        let c = t.effective ~step ~src ~dst ~base:capacity in
        if c <= 0 then None else Some { Digraph.src; dst; capacity = c })
      (Digraph.arcs g)
  in
  if arcs = [] then None
  else Some (Digraph.of_arcs ~vertex_count:(Digraph.vertex_count g) arcs)
