type durability = Durable | Lost_unless_source

(* ----------------------------- crashes ------------------------------ *)

type markov = {
  m_seed : int;
  crash_prob : float;
  recover_prob : float;
  (* (node, round) -> up?  Filled iteratively from the last cached
     round, so deep horizons never recurse.  Runs on several Pool
     domains may share one plan, so every lookup and fill holds [lock]
     (the memo caches a pure function of the seed: answers never
     depend on it). *)
  memo : (int * int, bool) Hashtbl.t;
  lock : Mutex.t;
}

type crash_impl =
  | Markov of markov
  | Downtime of (int, (int * int) list) Hashtbl.t
      (* node -> disjoint ascending [from, until) down spans *)

type crash_plan = {
  impl : crash_impl;
  protected : (int, unit) Hashtbl.t;
  durability : durability;
}

(* ---------------------------- partitions ---------------------------- *)

type part_impl =
  | Windows of (int * int) list  (* disjoint ascending [from, until) *)
  | Process of {
      split_prob : float;
      heal_prob : float;
      (* round -> start round of the active window, or -1 when whole;
         same iterative-fill memoisation, and locking, as the crash
         chain *)
      pmemo : (int, int) Hashtbl.t;
      plock : Mutex.t;
    }

type partition_plan = { p_seed : int; groups : int; p_impl : part_impl }

type t = { crash : crash_plan option; part : partition_plan option }

let none = { crash = None; part = None }
let is_none t = t.crash = None && t.part = None
let has_partition t = t.part <> None

(* ---------------------------- constructors -------------------------- *)

let crashes ~seed ?(protected = []) ?(durability = Lost_unless_source)
    ?(recover_prob = 0.5) ~crash_prob () =
  if crash_prob < 0.0 || crash_prob > 1.0 || recover_prob < 0.0 || recover_prob > 1.0
  then invalid_arg "Faults.crashes: probabilities must be in [0,1]";
  let prot = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace prot v ()) protected;
  {
    crash =
      Some
        {
          impl =
            Markov
              { m_seed = seed; crash_prob; recover_prob;
                memo = Hashtbl.create 256; lock = Mutex.create () };
          protected = prot;
          durability;
        };
    part = None;
  }

let of_downtime ?(durability = Lost_unless_source) spans =
  match spans with
  | [] -> none
  | _ ->
      let by_node = Hashtbl.create 16 in
      List.iter
        (fun (v, from_, until) ->
          if from_ < 1 || until <= from_ then
            invalid_arg "Faults.of_downtime: spans need 1 <= from < until";
          let prev =
            match Hashtbl.find_opt by_node v with Some l -> l | None -> []
          in
          Hashtbl.replace by_node v ((from_, until) :: prev))
        spans;
      Hashtbl.iter
        (fun v l -> Hashtbl.replace by_node v (List.sort compare l))
        (Hashtbl.copy by_node);
      {
        crash =
          Some
            {
              impl = Downtime by_node;
              protected = Hashtbl.create 1;
              durability;
            };
        part = None;
      }

let partitions ~seed ?(groups = 2) ?(split_prob = 0.05) ?(heal_prob = 0.25) () =
  if split_prob < 0.0 || split_prob > 1.0 || heal_prob < 0.0 || heal_prob > 1.0
  then invalid_arg "Faults.partitions: probabilities must be in [0,1]";
  if groups < 2 then invalid_arg "Faults.partitions: need at least 2 groups";
  {
    crash = None;
    part =
      Some
        {
          p_seed = seed;
          groups;
          p_impl =
            Process
              { split_prob; heal_prob; pmemo = Hashtbl.create 256;
                plock = Mutex.create () };
        };
  }

let of_windows ~seed ?(groups = 2) windows =
  if groups < 2 then invalid_arg "Faults.of_windows: need at least 2 groups";
  match windows with
  | [] -> none
  | _ ->
      List.iter
        (fun (from_, until) ->
          if from_ < 1 || until <= from_ then
            invalid_arg "Faults.of_windows: windows need 1 <= from < until")
        windows;
      {
        crash = None;
        part =
          Some { p_seed = seed; groups; p_impl = Windows (List.sort compare windows) };
      }

let compose a b =
  let crash =
    match (a.crash, b.crash) with
    | Some _, Some _ -> invalid_arg "Faults.compose: two crash plans"
    | (Some _ as c), None | None, c -> c
  in
  let part =
    match (a.part, b.part) with
    | Some _, Some _ -> invalid_arg "Faults.compose: two partition plans"
    | (Some _ as p), None | None, p -> p
  in
  { crash; part }

let durability t =
  match t.crash with None -> Durable | Some p -> p.durability

(* ------------------------------ crashes ----------------------------- *)

(* The node's chain draws coins keyed on (round, node, -2): the -2 slot
   keeps the stream disjoint from Condition.churn's (node, -1) and
   from every arc's (src, dst) stream under the same seed. *)
let markov_state m node round =
  if round <= 0 then true
  else
    Mutex.protect m.lock @@ fun () ->
    match Hashtbl.find_opt m.memo (node, round) with
    | Some s -> s
    | None ->
        let r0 = ref (round - 1) in
        while !r0 > 0 && not (Hashtbl.mem m.memo (node, !r0)) do
          decr r0
        done;
        let s = ref (if !r0 = 0 then true else Hashtbl.find m.memo (node, !r0)) in
        for r = !r0 + 1 to round do
          let c = Condition.keyed_coin ~seed:m.m_seed ~a:r ~b:node ~c:(-2) in
          s := (if !s then c >= m.crash_prob else c < m.recover_prob);
          Hashtbl.replace m.memo (node, r) !s
        done;
        !s

let crash_state p node round =
  match p.impl with
  | Markov m -> markov_state m node round
  | Downtime by_node -> (
      match Hashtbl.find_opt by_node node with
      | None -> true
      | Some spans ->
          not (List.exists (fun (a, b) -> round >= a && round < b) spans))

let up t ~round node =
  match t.crash with
  | None -> true
  | Some p -> Hashtbl.mem p.protected node || crash_state p node round

let transitions t ~node ~horizon =
  match t.crash with
  | None -> []
  | Some p ->
      if Hashtbl.mem p.protected node then []
      else begin
        let events = ref [] in
        let prev = ref true in
        for r = 1 to horizon do
          let cur = crash_state p node r in
          if cur <> !prev then
            events := (r, if cur then `Restart else `Crash) :: !events;
          prev := cur
        done;
        List.rev !events
      end

let downtime t ~n ~horizon =
  match t.crash with
  | None -> []
  | Some _ ->
      List.concat_map
        (fun v ->
          let spans = ref [] in
          let open_at = ref None in
          List.iter
            (fun (r, ev) ->
              match (ev, !open_at) with
              | `Crash, None -> open_at := Some r
              | `Restart, Some a ->
                  spans := (v, a, r) :: !spans;
                  open_at := None
              | _ -> ())
            (transitions t ~node:v ~horizon);
          (match !open_at with
          | Some a -> spans := (v, a, horizon + 1) :: !spans
          | None -> ());
          List.rev !spans)
        (List.init n (fun v -> v))

(* ---------------------------- partitions ----------------------------- *)

(* The split/heal chain draws one correlated coin per round boundary,
   keyed on (round, -1, -3): node-independent, so the whole network
   splits and heals together (this is what distinguishes a partition
   from independent churn).  A node's side within a window is keyed on
   (window start, node, -4), so the grouping is stable for the
   window's whole lifetime and reproducible from (seed, start) alone —
   which is what lets the shrinker replay an extracted window list
   through {!of_windows} byte-identically. *)
let process_window p ~split_prob ~heal_prob ~pmemo ~plock round =
  if round <= 0 then -1
  else
    Mutex.protect plock @@ fun () ->
    match Hashtbl.find_opt pmemo round with
    | Some s -> s
    | None ->
        let r0 = ref (round - 1) in
        while !r0 > 0 && not (Hashtbl.mem pmemo !r0) do
          decr r0
        done;
        let s = ref (if !r0 = 0 then -1 else Hashtbl.find pmemo !r0) in
        for r = !r0 + 1 to round do
          let c = Condition.keyed_coin ~seed:p.p_seed ~a:r ~b:(-1) ~c:(-3) in
          s :=
            (if !s < 0 then if c < split_prob then r else -1
             else if c < heal_prob then -1
             else !s);
          Hashtbl.replace pmemo r !s
        done;
        !s

(* start round of the window covering [round], or -1 when whole *)
let window_at p round =
  match p.p_impl with
  | Process { split_prob; heal_prob; pmemo; plock } ->
      process_window p ~split_prob ~heal_prob ~pmemo ~plock round
  | Windows ws -> (
      match List.find_opt (fun (a, b) -> round >= a && round < b) ws with
      | Some (a, _) -> a
      | None -> -1)

let side p ~window v =
  let c = Condition.keyed_coin ~seed:p.p_seed ~a:window ~b:v ~c:(-4) in
  min (p.groups - 1) (int_of_float (c *. float_of_int p.groups))

let partition_active t ~round =
  match t.part with None -> false | Some p -> window_at p round >= 0

let separated t ~round u v =
  u <> v
  &&
  match t.part with
  | None -> false
  | Some p ->
      let w = window_at p round in
      w >= 0 && side p ~window:w u <> side p ~window:w v

let windows t ~horizon =
  match t.part with
  | None -> []
  | Some p ->
      (* Track the window *start* rather than mere activity: two
         back-to-back windows must stay distinct because each one keys
         its group assignment on its own start round. *)
      let out = ref [] in
      let cur = ref (-1) in
      for r = 1 to horizon do
        let w = window_at p r in
        if w <> !cur then begin
          if !cur >= 0 then out := (!cur, r) :: !out;
          cur := w
        end
      done;
      if !cur >= 0 then out := (!cur, horizon + 1) :: !out;
      List.rev !out

let group t ~round v =
  match t.part with
  | None -> 0
  | Some p ->
      let w = window_at p round in
      if w < 0 then 0 else side p ~window:w v

(* ------------------------------ shadow ------------------------------- *)

let to_condition t =
  if is_none t then Condition.static
  else
    Condition.make (fun ~step ~src ~dst ~base ->
        if
          up t ~round:step src && up t ~round:step dst
          && not (separated t ~round:step src dst)
        then base
        else 0)
