open Ocd_prelude

type params = {
  transit_domains : int;
  transit_nodes : int;
  stubs_per_transit_node : int;
  stub_nodes : int;
  intra_edge_prob : float;
  extra_transit_stub : int;
  extra_stub_stub : int;
}

let default_params =
  {
    transit_domains = 2;
    transit_nodes = 4;
    stubs_per_transit_node = 3;
    stub_nodes = 8;
    intra_edge_prob = 0.3;
    extra_transit_stub = 4;
    extra_stub_stub = 4;
  }

let vertex_total p =
  let transit = p.transit_domains * p.transit_nodes in
  transit + (transit * p.stubs_per_transit_node * p.stub_nodes)

(* Above this vertex count [generate] switches from the original
   edge-list path (kept verbatim for byte-identical paper-size graphs)
   to the bulk array path, and [params_for_size] grows the number of
   stub domains instead of their size: bounded domains keep the
   intra-domain O(k^2) structure constant-sized, which is what makes
   million-node generation feasible. *)
let bulk_threshold = 4096

let bulk_stub_nodes = 32

let min_size = 8

let params_for_size n =
  if n < min_size then invalid_arg "Transit_stub.params_for_size: n too small";
  let base = default_params in
  let transit = base.transit_domains * base.transit_nodes in
  if n <= bulk_threshold then begin
    (* Keep the backbone shape of [default_params]; scale stub-domain
       size to hit the target count. *)
    let stub_domains = transit * base.stubs_per_transit_node in
    let stub_nodes = max 1 ((n - transit + stub_domains - 1) / stub_domains) in
    { base with stub_nodes }
  end
  else begin
    let per_anchor = transit * bulk_stub_nodes in
    let stubs_per_transit_node =
      max 1 ((n - transit + per_anchor - 1) / per_anchor)
    in
    { base with stub_nodes = bulk_stub_nodes; stubs_per_transit_node }
  end

(* A connected random graph on the vertex id list: random spanning tree
   (each vertex links to a random predecessor in a shuffled order) plus
   independent extra edges. *)
let connected_random rng ~prob ids =
  let ids = Array.of_list ids in
  Prng.shuffle rng ids;
  let edges = ref [] in
  let n = Array.length ids in
  for i = 1 to n - 1 do
    let j = Prng.int rng i in
    edges := (ids.(j), ids.(i)) :: !edges
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* Tree edges above use shuffled positions; extra edges here may
         duplicate them — Digraph merges duplicates by summing, which
         only fattens a link, as GT-ITM's multigraph flattening does. *)
      if Prng.bernoulli rng prob then edges := (ids.(i), ids.(j)) :: !edges
    done
  done;
  !edges

let generate_legacy rng ~weights p =
  let transit_count = p.transit_domains * p.transit_nodes in
  let edges = ref [] in
  let add es = edges := es @ !edges in
  (* Transit domains: ids [d * transit_nodes .. (d+1) * transit_nodes). *)
  let transit_ids d = List.init p.transit_nodes (fun i -> (d * p.transit_nodes) + i) in
  for d = 0 to p.transit_domains - 1 do
    add (connected_random rng ~prob:p.intra_edge_prob (transit_ids d))
  done;
  (* Backbone: ring of transit domains via random representatives (a
     connected top-level graph, as GT-ITM guarantees). *)
  for d = 0 to p.transit_domains - 2 do
    let u = Prng.pick_list rng (transit_ids d) in
    let v = Prng.pick_list rng (transit_ids (d + 1)) in
    add [ (u, v) ]
  done;
  if p.transit_domains > 2 then begin
    let u = Prng.pick_list rng (transit_ids (p.transit_domains - 1)) in
    let v = Prng.pick_list rng (transit_ids 0) in
    add [ (u, v) ]
  end;
  (* Stub domains: laid out after all transit nodes. *)
  let next_id = ref transit_count in
  let stub_vertices = ref [] in
  for anchor = 0 to transit_count - 1 do
    for _ = 1 to p.stubs_per_transit_node do
      let ids = List.init p.stub_nodes (fun i -> !next_id + i) in
      next_id := !next_id + p.stub_nodes;
      stub_vertices := ids @ !stub_vertices;
      add (connected_random rng ~prob:p.intra_edge_prob ids);
      add [ (anchor, List.hd ids) ]
    done
  done;
  let stub_vertices = Array.of_list !stub_vertices in
  (* Extra shortcut edges. *)
  if Array.length stub_vertices > 0 then begin
    for _ = 1 to p.extra_transit_stub do
      let t = Prng.int rng transit_count in
      let s = Prng.pick rng stub_vertices in
      add [ (t, s) ]
    done;
    for _ = 1 to p.extra_stub_stub do
      let a = Prng.pick rng stub_vertices in
      let b = Prng.pick rng stub_vertices in
      if a <> b then add [ (min a b, max a b) ]
    done
  end;
  let weighted = Weights.assign rng weights !edges in
  Ocd_graph.Digraph.of_edges ~vertex_count:(vertex_total p) weighted

(* Bulk variant of [connected_random]: same spanning-tree draws, but
   the extra intra-domain edges come from the geometric skip sampler
   (O(expected edges) instead of k(k-1)/2 Bernoulli draws) and the
   endpoints land in flat arrays. *)
let push_connected_random rng ~prob ~src ~dst ids =
  Prng.shuffle rng ids;
  let k = Array.length ids in
  for i = 1 to k - 1 do
    let j = Prng.int rng i in
    Int_vec.push src ids.(j);
    Int_vec.push dst ids.(i)
  done;
  if prob > 0.0 then begin
    let v = ref 1 and w = ref (-1) in
    while !v < k do
      w := !w + 1 + Prng.geometric rng prob;
      while !v < k && !w >= !v do
        w := !w - !v;
        incr v
      done;
      if !v < k then begin
        Int_vec.push src ids.(!w);
        Int_vec.push dst ids.(!v)
      end
    done
  end

let generate_bulk rng ~weights p =
  let transit_count = p.transit_domains * p.transit_nodes in
  let n = vertex_total p in
  let src = Int_vec.create ~capacity:(4 * n) () in
  let dst = Int_vec.create ~capacity:(4 * n) () in
  for d = 0 to p.transit_domains - 1 do
    let ids = Array.init p.transit_nodes (fun i -> (d * p.transit_nodes) + i) in
    push_connected_random rng ~prob:p.intra_edge_prob ~src ~dst ids
  done;
  let pick_in_domain d = (d * p.transit_nodes) + Prng.int rng p.transit_nodes in
  for d = 0 to p.transit_domains - 2 do
    let u = pick_in_domain d in
    let v = pick_in_domain (d + 1) in
    Int_vec.push src u;
    Int_vec.push dst v
  done;
  if p.transit_domains > 2 then begin
    let u = pick_in_domain (p.transit_domains - 1) in
    let v = pick_in_domain 0 in
    Int_vec.push src u;
    Int_vec.push dst v
  end;
  let next_id = ref transit_count in
  for anchor = 0 to transit_count - 1 do
    for _ = 1 to p.stubs_per_transit_node do
      let base = !next_id in
      let ids = Array.init p.stub_nodes (fun i -> base + i) in
      next_id := base + p.stub_nodes;
      push_connected_random rng ~prob:p.intra_edge_prob ~src ~dst ids;
      (* Anchor the domain through its first (lowest) id, matching the
         legacy layout. *)
      Int_vec.push src anchor;
      Int_vec.push dst base
    done
  done;
  let stub_total = n - transit_count in
  if stub_total > 0 then begin
    for _ = 1 to p.extra_transit_stub do
      let t = Prng.int rng transit_count in
      let s = transit_count + Prng.int rng stub_total in
      Int_vec.push src t;
      Int_vec.push dst s
    done;
    for _ = 1 to p.extra_stub_stub do
      let a = transit_count + Prng.int rng stub_total in
      let b = transit_count + Prng.int rng stub_total in
      if a <> b then begin
        Int_vec.push src (min a b);
        Int_vec.push dst (max a b)
      end
    done
  end;
  let count = Int_vec.length src in
  let src = Int_vec.to_array src and dst = Int_vec.to_array dst in
  (* Weight draws in edge order, via an explicit loop — [Array.init]
     evaluation order is unspecified and the stream must stay
     deterministic. *)
  let cap = Array.make count 0 in
  for i = 0 to count - 1 do
    cap.(i) <- Weights.draw rng weights
  done;
  Ocd_graph.Digraph.of_undirected_arrays ~vertex_count:n ~src ~dst ~cap

let generate rng ?(weights = Weights.paper_default) p =
  if
    p.transit_domains <= 0 || p.transit_nodes <= 0
    || p.stubs_per_transit_node < 0 || p.stub_nodes <= 0
  then invalid_arg "Transit_stub.generate: bad params";
  if vertex_total p <= bulk_threshold then generate_legacy rng ~weights p
  else generate_bulk rng ~weights p

let classify p v =
  if v < p.transit_domains * p.transit_nodes then `Transit else `Stub
