(* Tests for ocd_coding. *)

open Ocd_prelude
open Ocd_core

let qtest = QCheck_alcotest.to_alcotest

let graph ~seed ~n =
  Ocd_topology.Random_graph.erdos_renyi (Prng.create ~seed) ~n ~p:0.35 ()

let test_single_file_shape () =
  let rng = Prng.create ~seed:1 in
  let t = Ocd_coding.Coding.single_file rng ~graph:(graph ~seed:1 ~n:10)
      ~required:4 ~coded:6 ~source:0 () in
  Alcotest.(check int) "token count = coded" 6
    t.Ocd_coding.Coding.instance.Instance.token_count;
  match t.Ocd_coding.Coding.groups with
  | [ g ] ->
    Alcotest.(check int) "required" 4 g.Ocd_coding.Coding.required;
    Alcotest.(check int) "receivers" 9
      (List.length g.Ocd_coding.Coding.receivers)
  | _ -> Alcotest.fail "expected one group"

let test_single_file_invalid () =
  let rng = Prng.create ~seed:1 in
  Alcotest.check_raises "coded < required"
    (Invalid_argument "Coding.single_file: need 0 < required <= coded")
    (fun () ->
      ignore
        (Ocd_coding.Coding.single_file rng ~graph:(graph ~seed:1 ~n:5)
           ~required:4 ~coded:3 ()))

let test_decoded_threshold () =
  let rng = Prng.create ~seed:2 in
  let t =
    Ocd_coding.Coding.single_file rng ~graph:(graph ~seed:2 ~n:4) ~required:2
      ~coded:4 ~source:0 ()
  in
  let inst = t.Ocd_coding.Coding.instance in
  let have = Array.map Bitset.copy inst.Instance.have in
  (* receiver 1 with one coded token: not decoded *)
  Bitset.add have.(1) 0;
  Alcotest.(check bool) "one token insufficient" false
    (Ocd_coding.Coding.decoded t have 1);
  Bitset.add have.(1) 3;
  Alcotest.(check bool) "any two suffice" true
    (Ocd_coding.Coding.decoded t have 1);
  (* the source decodes trivially (holds everything) *)
  Alcotest.(check bool) "source decoded" true (Ocd_coding.Coding.decoded t have 0)

let test_run_completes_early () =
  (* With coded = required the coded run must equal the want-based run;
     with redundancy it can only stop sooner or equal. *)
  let g = graph ~seed:3 ~n:20 in
  let rng = Prng.create ~seed:3 in
  let exact =
    Ocd_coding.Coding.single_file rng ~graph:g ~required:8 ~coded:8 ~source:0 ()
  in
  let run_exact =
    Ocd_coding.Coding.run ~strategy:Ocd_heuristics.Random_push.strategy ~seed:5
      exact
  in
  let engine_run =
    Ocd_engine.Engine.completed_exn
      (Ocd_engine.Engine.run ~strategy:Ocd_heuristics.Random_push.strategy
         ~seed:5 exact.Ocd_coding.Coding.instance)
  in
  Alcotest.(check bool) "completed" true
    (run_exact.Ocd_coding.Coding.outcome = Ocd_engine.Engine.Completed);
  Alcotest.(check int) "no-redundancy = want semantics"
    engine_run.Ocd_engine.Engine.metrics.Metrics.makespan
    run_exact.Ocd_coding.Coding.makespan

let test_redundancy_never_hurts_completion () =
  let g = graph ~seed:4 ~n:20 in
  let run ~coded =
    let rng = Prng.create ~seed:4 in
    let t =
      Ocd_coding.Coding.single_file rng ~graph:g ~required:8 ~coded ~source:0 ()
    in
    (Ocd_coding.Coding.run ~strategy:Ocd_heuristics.Random_push.strategy
       ~seed:5 t)
      .Ocd_coding.Coding.makespan
  in
  Alcotest.(check bool) "redundant no slower" true (run ~coded:16 <= run ~coded:8)

let test_completion_times_consistent () =
  let g = graph ~seed:6 ~n:15 in
  let rng = Prng.create ~seed:6 in
  let t =
    Ocd_coding.Coding.single_file rng ~graph:g ~required:4 ~coded:6 ~source:0 ()
  in
  let run =
    Ocd_coding.Coding.run ~strategy:Ocd_heuristics.Local_rarest.strategy ~seed:7 t
  in
  Alcotest.(check bool) "completed" true
    (run.Ocd_coding.Coding.outcome = Ocd_engine.Engine.Completed);
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d decoded" v)
        true (c >= 0))
    run.Ocd_coding.Coding.completion_times;
  Alcotest.(check int) "makespan = max completion"
    (Array.fold_left max 0 run.Ocd_coding.Coding.completion_times)
    run.Ocd_coding.Coding.makespan

let prop_coded_runs_valid =
  QCheck.Test.make ~name:"coded runs record valid schedules & decode everyone"
    ~count:20
    QCheck.(pair (int_range 0 1_000) (int_range 8 20))
    (fun (seed, n) ->
      let g = graph ~seed ~n in
      let rng = Prng.create ~seed in
      let t =
        Ocd_coding.Coding.single_file rng ~graph:g ~required:4 ~coded:6 ()
      in
      let run =
        Ocd_coding.Coding.run ~strategy:Ocd_heuristics.Random_push.strategy
          ~seed:(seed + 1) t
      in
      run.Ocd_coding.Coding.outcome = Ocd_engine.Engine.Completed
      && Validate.check t.Ocd_coding.Coding.instance
           run.Ocd_coding.Coding.schedule
         = Ok ()
      && Ocd_coding.Coding.all_decoded t
           (Timeline.final
              (Timeline.run t.Ocd_coding.Coding.instance
                 run.Ocd_coding.Coding.schedule)))

let prop_redundancy_monotone =
  QCheck.Test.make
    ~name:"more redundancy never increases the random heuristic's makespan"
    ~count:12
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = graph ~seed ~n:18 in
      let makespan ~coded =
        let rng = Prng.create ~seed in
        let t =
          Ocd_coding.Coding.single_file rng ~graph:g ~required:6 ~coded
            ~source:0 ()
        in
        (Ocd_coding.Coding.run ~strategy:Ocd_heuristics.Random_push.strategy
           ~seed:(seed + 1) t)
          .Ocd_coding.Coding.makespan
      in
      (* allow one step of seed noise: the two runs draw different
         random choices *)
      makespan ~coded:12 <= makespan ~coded:6 + 1)

let () =
  Alcotest.run "ocd_coding"
    [
      ( "coding",
        [
          Alcotest.test_case "single file shape" `Quick test_single_file_shape;
          Alcotest.test_case "invalid params" `Quick test_single_file_invalid;
          Alcotest.test_case "decode threshold" `Quick test_decoded_threshold;
          Alcotest.test_case "no-redundancy = want semantics" `Quick
            test_run_completes_early;
          Alcotest.test_case "redundancy never hurts" `Quick
            test_redundancy_never_hurts_completion;
          Alcotest.test_case "completion times" `Quick
            test_completion_times_consistent;
          qtest prop_coded_runs_valid;
          qtest prop_redundancy_monotone;
        ] );
    ]
