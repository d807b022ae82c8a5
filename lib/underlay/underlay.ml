open Ocd_core
open Ocd_prelude
open Ocd_graph

type t = {
  physical : Digraph.t;
  overlay : Digraph.t;
  host_of : int array;
  paths : ((int * int), (int * int) list) Hashtbl.t;
      (** overlay arc -> ordered physical links *)
}

let build ~physical ~host_of ~overlay =
  let n = Digraph.vertex_count overlay in
  if Array.length host_of <> n then
    invalid_arg "Underlay.build: host_of length mismatch";
  Array.iter
    (fun h ->
      if h < 0 || h >= Digraph.vertex_count physical then
        invalid_arg "Underlay.build: host out of range")
    host_of;
  let paths = Hashtbl.create (Digraph.arc_count overlay) in
  (* One BFS per distinct source host covers all overlay arcs out of
     the overlay vertices living there. *)
  let route { Digraph.src; dst; _ } =
    let s = host_of.(src) and d = host_of.(dst) in
    if s = d then Hashtbl.replace paths (src, dst) []
    else
      match Paths.shortest_path physical ~cost:(fun _ _ -> 1) s d with
      | None -> invalid_arg "Underlay.build: overlay arc not physically routable"
      | Some vertices ->
        let rec links = function
          | a :: (b :: _ as rest) -> (a, b) :: links rest
          | [ _ ] | [] -> []
        in
        Hashtbl.replace paths (src, dst) (links vertices)
  in
  List.iter route (Digraph.arcs overlay);
  { physical; overlay; host_of; paths }

let map_onto_transit_stub rng ~overlay ?params () =
  let n = Digraph.vertex_count overlay in
  let params =
    match params with
    | Some p -> p
    | None ->
      (* headroom: physical network ~2x the overlay size so routers
         and spare hosts exist *)
      Ocd_topology.Transit_stub.params_for_size (2 * n)
  in
  let physical = Ocd_topology.Transit_stub.generate rng params in
  let transit =
    params.Ocd_topology.Transit_stub.transit_domains
    * params.Ocd_topology.Transit_stub.transit_nodes
  in
  let stub_hosts = Digraph.vertex_count physical - transit in
  if stub_hosts < n then
    invalid_arg "Underlay.map_onto_transit_stub: not enough stub hosts";
  (* Overlay vertices on distinct random stub hosts; transit vertices
     are pure routers. *)
  let picks = Prng.sample_without_replacement rng n stub_hosts in
  let host_of = Array.of_list (List.map (fun i -> transit + i) picks) in
  build ~physical ~host_of ~overlay

let path t ~src ~dst =
  match Hashtbl.find_opt t.paths (src, dst) with
  | Some links -> links
  | None -> invalid_arg "Underlay.path: unknown overlay arc"

let sharing t =
  let users : ((int * int), (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun arc links ->
      List.iter
        (fun link ->
          let existing = Option.value (Hashtbl.find_opt users link) ~default:[] in
          Hashtbl.replace users link (arc :: existing))
        links)
    t.paths;
  Hashtbl.fold
    (fun link arcs acc ->
      match arcs with
      | _ :: _ :: _ -> (link, List.sort compare arcs) :: acc
      | _ -> acc)
    users []
  |> List.sort compare

let max_link_stress t =
  let load : ((int * int), int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (src, dst) links ->
      let c = Digraph.capacity t.overlay src dst in
      List.iter
        (fun link ->
          let existing = Option.value (Hashtbl.find_opt load link) ~default:0 in
          Hashtbl.replace load link (existing + c))
        links)
    t.paths;
  Hashtbl.fold
    (fun (a, b) demand acc ->
      let cap = Digraph.capacity t.physical a b in
      Float.max acc (float_of_int demand /. float_of_int (max 1 cap)))
    load 0.0

type run = Ocd_engine.Engine.run = {
  strategy_name : string;
  seed : int;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
  dropped_moves : int;
}

let run ?step_limit ?stall_patience t ~strategy ~seed (inst : Instance.t) =
  let g = inst.graph in
  if
    Digraph.vertex_count g <> Digraph.vertex_count t.overlay
    || Digraph.arc_count g <> Digraph.arc_count t.overlay
    || not
         (List.for_all
            (fun { Digraph.src; dst; _ } -> Hashtbl.mem t.paths (src, dst))
            (Digraph.arcs g))
  then invalid_arg "Underlay.run: instance graph is not the mapped overlay";
  (* Physical-link loads of the current step, keyed by link; the loop
     asks [fits] in step order, so a new step number starts from empty
     links. *)
  let n_phys = Digraph.vertex_count t.physical in
  let link_load = Int_tab.create () in
  let load_step = ref (-1) in
  let fits ~step ~load ~cap (m : Move.t) =
    if step <> !load_step then begin
      Int_tab.clear link_load;
      load_step := step
    end;
    let links = Hashtbl.find t.paths (m.src, m.dst) in
    let room (a, b) =
      Int_tab.find link_load ((a * n_phys) + b) < Digraph.capacity t.physical a b
    in
    if load < cap && List.for_all room links then begin
      List.iter
        (fun (a, b) -> ignore (Int_tab.incr link_load ((a * n_phys) + b)))
        links;
      true
    end
    else false
  in
  Ocd_engine.Engine.loop ?step_limit ?stall_patience
    ~admission:(Lossy { view = (fun ~step:_ -> inst); fits })
    ~goal:Wants ~strategy ~seed inst
