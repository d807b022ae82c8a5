open Ocd_core
open Ocd_prelude
module Runtime = Ocd_async.Runtime
module Diagnosis = Ocd_async.Diagnosis
module Monitor = Ocd_async.Monitor
module Net = Ocd_async.Net
module Condition = Ocd_dynamics.Condition
module Faults = Ocd_dynamics.Faults

type case = {
  protocol : string;
  instance_seed : int;
  n : int;
  tokens : int;
  loss : float;
  flap_seed : int option;
  churn_seed : int option;
  run_seed : int;
  round_limit : int;
  durability : Faults.durability;
  part_seed : int;
  groups : int;
  downtime : (int * int * int) list;
  windows : (int * int) list;
}

(* The instance and condition constructions mirror Chaos's exactly —
   Chaos calls these same two functions — so a case replays the very
   trial it was extracted from. *)
let instance_of ~seed ~n ~tokens =
  let rng = Prng.create ~seed in
  let graph = Ocd_topology.Random_graph.erdos_renyi rng ~n () in
  (Scenario.single_file rng ~graph ~tokens ()).Scenario.instance

let sources_of inst ~n =
  List.filter
    (fun v -> not (Bitset.is_empty inst.Instance.have.(v)))
    (List.init n (fun v -> v))

let condition_of ~flap_seed ~churn_seed ~sources =
  let parts =
    (match flap_seed with
    | Some s -> [ Condition.link_flaps ~seed:s ~down_prob:0.1 ~up_prob:0.5 ]
    | None -> [])
    @
    match churn_seed with
    | Some s ->
        [
          Condition.churn ~seed:s ~protected:sources ~leave_prob:0.02
            ~return_prob:0.3;
        ]
    | None -> []
  in
  List.fold_left Condition.compose Condition.static parts

let faults_of c =
  Faults.compose
    (Faults.of_downtime ~durability:c.durability c.downtime)
    (Faults.of_windows ~seed:c.part_seed ~groups:c.groups c.windows)

let valid_schedule inst (r : Runtime.run) =
  let check =
    if r.Runtime.outcome = Runtime.Completed then Validate.check_successful
    else Validate.check
  in
  Result.is_ok (check inst r.Runtime.schedule)

let run_case c =
  match Ocd_dht.Registry.find c.protocol with
  | None -> Some "unknown-protocol"
  | Some protocol -> (
      match faults_of c with
      | exception Invalid_argument _ -> Some "invalid-schedule"
      | faults ->
          let inst = instance_of ~seed:c.instance_seed ~n:c.n ~tokens:c.tokens in
          let sources = sources_of inst ~n:c.n in
          let condition =
            condition_of ~flap_seed:c.flap_seed ~churn_seed:c.churn_seed
              ~sources
          in
          let profile = { Net.default with Net.loss = c.loss } in
          let monitor = Monitor.create () in
          let r =
            Runtime.run ~profile ~condition ~faults ~monitor
              ~round_limit:c.round_limit ~protocol ~seed:c.run_seed inst
          in
          let completed = r.Runtime.outcome = Runtime.Completed in
          if not (valid_schedule inst r) then Some "invalid-schedule"
          else if Monitor.count monitor > 0 then
            Some
              ("monitor:"
              ^
              match Monitor.violations monitor with
              | v :: _ -> v.Monitor.rule
              | [] -> "uncaptured")
          else if not completed then
            Some
              ("stall:"
              ^
              match r.Runtime.diagnosis with
              | Some d -> Diagnosis.verdict_name d.Diagnosis.verdict
              | None -> "undiagnosed")
          else None)

(* ----------------------------- shrinking ----------------------------- *)

(* The shrinkable unit: one explicit fault event.  Crash spans and
   partition windows are bisected together in a single list — removing
   a window can be what keeps a crash span interesting, so they must
   shrink against each other, not in separate passes. *)
type event = Down of int * int * int | Win of int * int

let events_of c =
  List.map (fun (v, a, b) -> Down (v, a, b)) c.downtime
  @ List.map (fun (a, b) -> Win (a, b)) c.windows

let with_events c events =
  {
    c with
    downtime =
      List.filter_map (function Down (v, a, b) -> Some (v, a, b) | _ -> None)
        events;
    windows =
      List.filter_map (function Win (a, b) -> Some (a, b) | _ -> None) events;
  }

let max_tests = 256

type shrunk = { minimal : case; tag : string; tests : int }

(* Zeller–Hildebrandt ddmin over the event list: try each chunk alone,
   then each chunk's complement, refine granularity, stop at 1-minimal
   (every remaining event is load-bearing) or at the test budget.  The
   failure *tag* must be preserved, not mere failure: a schedule that
   stalls for a different reason after reduction is a different bug. *)
let shrink c =
  match run_case c with
  | None -> Error "Shrink.shrink: the case does not fail"
  | Some tag ->
      let tests = ref 1 in
      let fails events =
        !tests < max_tests
        && begin
             incr tests;
             run_case (with_events c events) = Some tag
           end
      in
      let chunk size l =
        let rec go acc cur k = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | x :: rest ->
              if k = size then go (List.rev cur :: acc) [ x ] 1 rest
              else go acc (x :: cur) (k + 1) rest
        in
        go [] [] 0 l
      in
      let rec ddmin events n =
        let len = List.length events in
        if len <= 1 then events
        else begin
          let chunks = chunk ((len + n - 1) / n) events in
          let rec subsets = function
            | [] -> None
            | ch :: rest ->
                if List.length ch < len && fails ch then Some ch
                else subsets rest
          in
          let complements () =
            let rec go i =
              if i >= List.length chunks then None
              else
                let comp =
                  List.concat
                    (List.filteri (fun j _ -> j <> i) chunks)
                in
                if List.length comp < len && fails comp then Some comp
                else go (i + 1)
            in
            go 0
          in
          match subsets chunks with
          | Some reduced -> ddmin reduced 2
          | None -> (
              match complements () with
              | Some reduced -> ddmin reduced (max (n - 1) 2)
              | None ->
                  if n < len then ddmin events (min len (2 * n)) else events)
        end
      in
      let minimal_events = ddmin (events_of c) 2 in
      Ok { minimal = with_events c minimal_events; tag; tests = !tests }

(* --------------------------- artifact format -------------------------- *)

let magic = "ocd-chaos-repro v1"

let to_string c =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "protocol=%s" c.protocol;
  line "instance_seed=%d" c.instance_seed;
  line "n=%d" c.n;
  line "tokens=%d" c.tokens;
  line "loss=%.17g" c.loss;
  (match c.flap_seed with Some s -> line "flap_seed=%d" s | None -> ());
  (match c.churn_seed with Some s -> line "churn_seed=%d" s | None -> ());
  line "run_seed=%d" c.run_seed;
  line "round_limit=%d" c.round_limit;
  line "durability=%s"
    (match c.durability with
    | Faults.Durable -> "durable"
    | Faults.Lost_unless_source -> "lost-unless-source");
  line "part_seed=%d" c.part_seed;
  line "groups=%d" c.groups;
  List.iter (fun (v, a, u) -> line "down %d %d %d" v a u) c.downtime;
  List.iter (fun (a, u) -> line "win %d %d" a u) c.windows;
  Buffer.contents b

let of_string s =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
  in
  match lines with
  | first :: rest when String.trim first = magic -> (
      let c =
        ref
          {
            protocol = "";
            instance_seed = 0;
            n = 0;
            tokens = 0;
            loss = 0.0;
            flap_seed = None;
            churn_seed = None;
            run_seed = 0;
            round_limit = 0;
            durability = Faults.Lost_unless_source;
            part_seed = 0;
            groups = 2;
            downtime = [];
            windows = [];
          }
      in
      let err = ref None in
      let fail l = if !err = None then err := Some ("bad line: " ^ l) in
      List.iter
        (fun l ->
          let l = String.trim l in
          match String.index_opt l '=' with
          | Some i ->
              let k = String.sub l 0 i in
              let v = String.sub l (i + 1) (String.length l - i - 1) in
              let int () =
                match int_of_string_opt v with
                | Some n -> n
                | None ->
                    fail l;
                    0
              in
              (match k with
              | "protocol" -> c := { !c with protocol = v }
              | "instance_seed" -> c := { !c with instance_seed = int () }
              | "n" -> c := { !c with n = int () }
              | "tokens" -> c := { !c with tokens = int () }
              | "loss" -> (
                  match float_of_string_opt v with
                  | Some f -> c := { !c with loss = f }
                  | None -> fail l)
              | "flap_seed" -> c := { !c with flap_seed = Some (int ()) }
              | "churn_seed" -> c := { !c with churn_seed = Some (int ()) }
              | "run_seed" -> c := { !c with run_seed = int () }
              | "round_limit" -> c := { !c with round_limit = int () }
              | "durability" -> (
                  match v with
                  | "durable" -> c := { !c with durability = Faults.Durable }
                  | "lost-unless-source" ->
                      c := { !c with durability = Faults.Lost_unless_source }
                  | _ -> fail l)
              | "part_seed" -> c := { !c with part_seed = int () }
              | "groups" -> c := { !c with groups = int () }
              | _ -> fail l)
          | None -> (
              match String.split_on_char ' ' l with
              | [ "down"; v; a; u ] -> (
                  match
                    ( int_of_string_opt v,
                      int_of_string_opt a,
                      int_of_string_opt u )
                  with
                  | Some v, Some a, Some u ->
                      c := { !c with downtime = !c.downtime @ [ (v, a, u) ] }
                  | _ -> fail l)
              | [ "win"; a; u ] -> (
                  match (int_of_string_opt a, int_of_string_opt u) with
                  | Some a, Some u ->
                      c := { !c with windows = !c.windows @ [ (a, u) ] }
                  | _ -> fail l)
              | _ -> fail l))
        rest;
      match !err with
      | Some e -> Error e
      | None ->
          if !c.protocol = "" || !c.n <= 0 || !c.tokens <= 0
             || !c.round_limit <= 0
          then Error "missing or invalid header fields"
          else Ok !c)
  | _ -> Error (Printf.sprintf "expected leading %S line" magic)
