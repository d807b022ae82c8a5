open Ocd_prelude
open Ocd_core
module Digraph = Ocd_graph.Digraph

(* The decision core shared by every pull node and the synchronous
   twin: given one vertex's round-start view, pick (holder, token)
   requests.  Determinism of the differential test hangs on both
   callers driving this with identical rng states and identical views,
   so every random draw lives here. *)
let requests ~rng ~token_count ~have ~eligible ~alive ~preds ~rank ~holds =
  let missing = Bitset.diff (Bitset.full token_count) have in
  if Bitset.is_empty missing then []
  else begin
    (* Ascending [rank], random tie-breaks: shuffle once, then
       stable-sort (the same shape as the synchronous heuristic's
       global rarity order).  Suspected-dead peers never enter the
       candidate pool, so the node re-targets live holders instead of
       backing off against a corpse. *)
    let tokens = Array.of_list (Bitset.elements missing) in
    Prng.shuffle rng tokens;
    let ranked = Order.sort_by rank (Array.to_list tokens) in
    let budget = Digraph.View.caps preds in
    let picks = ref [] in
    List.iter
      (fun token ->
        if eligible token then begin
          let candidates = ref [] in
          Digraph.View.iteri
            (fun i u _ ->
              if budget.(i) > 0 && alive u && holds u token then
                candidates := i :: !candidates)
            preds;
          match !candidates with
          | [] -> ()
          | cs ->
              let i = Prng.pick_list rng cs in
              budget.(i) <- budget.(i) - 1;
              let src = Digraph.View.dst preds i in
              picks := (src, token) :: !picks
        end)
      ranked;
    List.rev !picks
  end

(* Neighbour-local rarity: how many live in-neighbours announced the
   token.  Suspected peers do not count. *)
let rarity ~alive ~known preds token =
  Digraph.View.fold
    (fun acc u _ ->
      match known u with
      | Some s when alive u && Bitset.mem s token -> acc + 1
      | _ -> acc)
    0 preds

let max_backoff_exp = 6

type pull = {
  ctx : Protocol.ctx;
  preds : Digraph.View.t;
  succs : Digraph.View.t;
  belief : Bitset.t option array;  (** latest announce per in-neighbour *)
  (* token -> retry deadline; attempts survive in a separate table so
     backoff keeps growing across timeouts. *)
  pending : (int, int) Hashtbl.t;
  attempts : (int, int) Hashtbl.t;
  (* token -> the holder the pending request targets, so a suspected
     crash releases the token for immediate re-targeting instead of
     waiting out its exponential backoff. *)
  target : (int, int) Hashtbl.t;
  alive : int -> bool;
  eligible : int -> bool;
  on_fresh : int -> unit;
}

let pull ?(on_fresh = ignore) (ctx : Protocol.ctx) =
  let graph = ctx.instance.Instance.graph in
  let pending = Hashtbl.create 8 in
  {
    ctx;
    preds = Digraph.pred graph ctx.vertex;
    succs = Digraph.succ graph ctx.vertex;
    belief = Array.make (Instance.vertex_count ctx.instance) None;
    pending;
    attempts = Hashtbl.create 8;
    target = Hashtbl.create 8;
    alive = (fun u -> not (ctx.suspected u));
    eligible =
      (fun token ->
        match Hashtbl.find_opt pending token with
        | None -> true
        | Some deadline -> ctx.now () >= deadline);
    on_fresh;
  }

let believes p u token =
  match p.belief.(u) with Some s -> Bitset.mem s token | None -> false

(* One decision pass: release requests aimed at suspected holders, then
   request what the core picks, with exponential backoff per token. *)
let request_round p ~rank ~holds =
  let ctx = p.ctx in
  if not (ctx.finished ()) then begin
    let stale =
      Hashtbl.fold
        (fun token holder acc -> if p.alive holder then acc else token :: acc)
        p.target []
    in
    List.iter
      (fun token ->
        Hashtbl.remove p.pending token;
        Hashtbl.remove p.target token)
      stale;
    let picks =
      requests ~rng:ctx.rng ~token_count:ctx.instance.Instance.token_count
        ~have:(ctx.have_copy ()) ~eligible:p.eligible ~alive:p.alive
        ~preds:p.preds ~rank ~holds
    in
    List.iter
      (fun (holder, token) ->
        let a =
          match Hashtbl.find_opt p.attempts token with Some a -> a | None -> 0
        in
        if a > 0 then ctx.note_retransmission ();
        Hashtbl.replace p.attempts token (a + 1);
        let backoff = ctx.pace * (1 lsl min a max_backoff_exp) in
        Hashtbl.replace p.pending token (ctx.now () + backoff);
        Hashtbl.replace p.target token holder;
        ctx.send ~dst:holder (Message.Request token))
      picks
  end

let rounds ?(every_round = ignore) p ~rank ~holds =
  let ctx = p.ctx in
  let decide () = request_round p ~rank ~holds in
  let rec round () =
    if not (ctx.finished ()) then begin
      let snapshot = ctx.have_copy () in
      Digraph.View.iter
        (fun dst _ -> ctx.send ~dst (Message.Announce (Bitset.copy snapshot)))
        p.succs;
      every_round ();
      ctx.after 1 decide;
      ctx.after ctx.pace round
    end
  in
  round

let handle p ~src = function
  | Message.Announce s -> p.belief.(src) <- Some s
  | Message.Request token ->
      if p.ctx.has token then p.ctx.send ~dst:src (Message.Data token)
  | Message.Data token ->
      Hashtbl.remove p.pending token;
      Hashtbl.remove p.target token;
      if p.ctx.receive ~src token then p.on_fresh token
  | Message.Ack _ | Message.State _ | Message.Dht _ -> ()

let protocol () =
  let init (ctx : Protocol.ctx) =
    let p = pull ctx in
    let rank = rarity ~alive:p.alive ~known:(Array.get p.belief) p.preds in
    {
      Protocol.on_start = rounds p ~rank ~holds:(believes p);
      on_message = handle p;
    }
  in
  { Protocol.name = "async-local"; init }

let sync_strategy ~seed =
  let make inst _engine_rng =
    let graph = inst.Instance.graph in
    let n = Instance.vertex_count inst in
    let rngs = Array.init n (fun v -> Protocol.node_rng ~seed v) in
    let always _ = true in
    fun (ctx : Ocd_engine.Strategy.context) ->
      let known u = Some ctx.have.(u) in
      let holds u token = Bitset.mem ctx.have.(u) token in
      let moves = ref [] in
      for dst = 0 to n - 1 do
        let preds = Digraph.pred graph dst in
        let picks =
          requests ~rng:rngs.(dst) ~token_count:inst.Instance.token_count
            ~have:ctx.have.(dst) ~eligible:always ~alive:always ~preds
            ~rank:(rarity ~alive:always ~known preds)
            ~holds
        in
        List.iter
          (fun (src, token) -> moves := { Move.src; dst; token } :: !moves)
          picks
      done;
      !moves
  in
  { Ocd_engine.Strategy.name = "async-local-lockstep"; make }
