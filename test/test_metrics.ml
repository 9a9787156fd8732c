(* Tests for the instrumentation path: the latency/step histogram, both
   access feeds into the telemetry counter grid (driver observer for the
   simulator, Instrument wrapper for direct/native code), per-span
   access counts derived from the journal, and the Section 6.2 guard —
   Scan.cost_formula must equal the counts both meters observe, for
   every variant at procs = 1..8. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let vname = function
  | Snapshot.Scan.Plain -> "plain"
  | Snapshot.Scan.Optimized -> "optimized"
  | Snapshot.Scan.Adaptive -> "adaptive"
  | Snapshot.Scan.Lattice -> "lattice"

(* Per-pid (reads, writes) as the grid holds them. *)
let grid_counts c ~pid =
  ( Telemetry.Counters.get c ~pid ~family:0 Telemetry.Event.Read,
    Telemetry.Counters.get c ~pid ~family:0 Telemetry.Event.Write )

(* --- histogram statistics -------------------------------------------------- *)

let test_histogram_stats () =
  let h = Telemetry.Histogram.create () in
  check_bool "empty has no stats" true (Telemetry.Histogram.stats h = None);
  (* 1..100 in scrambled order: exact quantiles are order-independent *)
  List.iter
    (fun v -> Telemetry.Histogram.add h v)
    (List.init 100 (fun i -> ((i * 37) mod 100) + 1));
  match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "stats expected"
  | Some s ->
      check_int "count" 100 s.Telemetry.Stats.count;
      check_int "min" 1 s.Telemetry.Stats.min;
      check_int "max" 100 s.Telemetry.Stats.max;
      check_bool "mean" true
        (Float.abs (s.Telemetry.Stats.mean -. 50.5) < 1e-9);
      check_int "p99 nearest-rank" 99 s.Telemetry.Stats.p99

let test_histogram_single () =
  let h = Telemetry.Histogram.create () in
  Telemetry.Histogram.add h 7;
  match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "stats expected"
  | Some s ->
      check_int "min=max=p99" 7 s.Telemetry.Stats.min;
      check_int "p99 of singleton" 7 s.Telemetry.Stats.p99

(* Pin down the documented nearest-rank convention on the degenerate
   sample sizes (telemetry.mli): no stats on empty, singleton stats all
   equal the one value, and for count < 100 the p99 rank rounds up to
   count, i.e. p99 = max. *)
let test_stats_edge_cases () =
  let h = Telemetry.Histogram.create () in
  check_bool "empty: no stats" true (Telemetry.Histogram.stats h = None);
  check_int "empty: count 0" 0 (Telemetry.Histogram.count h);
  Telemetry.Histogram.add h 42;
  (match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "singleton stats expected"
  | Some s ->
      check_int "singleton count" 1 s.Telemetry.Stats.count;
      check_int "singleton min" 42 s.Telemetry.Stats.min;
      check_int "singleton max" 42 s.Telemetry.Stats.max;
      check_int "singleton p99 (rank max 1 (ceil 0.99))" 42
        s.Telemetry.Stats.p99;
      check_bool "singleton mean exact" true (s.Telemetry.Stats.mean = 42.0));
  Telemetry.Histogram.add h 0;
  (match Telemetry.Histogram.stats h with
  | None -> Alcotest.fail "pair stats expected"
  | Some s ->
      check_int "n=2 p99 = max (ceil 1.98 = 2)" 42 s.Telemetry.Stats.p99;
      check_bool "n=2 mean" true (s.Telemetry.Stats.mean = 21.0));
  (* any count < 100: rank rounds up to count, so p99 = max *)
  let h99 = Telemetry.Histogram.create () in
  for v = 1 to 99 do
    Telemetry.Histogram.add h99 v
  done;
  match Telemetry.Histogram.stats h99 with
  | None -> Alcotest.fail "stats expected"
  | Some s -> check_int "n=99 p99 = max" 99 s.Telemetry.Stats.p99

(* --- the grid via the Instrument wrapper ------------------------------------ *)

let test_instrument_direct () =
  let c = Telemetry.Counters.create ~procs:2 () in
  let module M =
    Runtime.Instrument
      (Pram.Memory.Direct)
      (struct
        let sink = Runtime.Sink.make ~telemetry:c ()
      end)
  in
  let a = M.create ~name:"a" 0 in
  let b = M.create ~name:"b" 0 in
  Runtime.set_pid 0;
  M.write a 1;
  ignore (M.read a);
  ignore (M.read b);
  Runtime.set_pid 1;
  M.write b 2;
  M.write b 3;
  Runtime.set_pid 0;
  check_bool "pid0 reads, writes" true (grid_counts c ~pid:0 = (2, 1));
  check_bool "pid1 reads, writes" true (grid_counts c ~pid:1 = (0, 2));
  check_int "registers created" 2 (M.registers_created ());
  Telemetry.Counters.reset c;
  check_int "reset clears totals" 0
    (Telemetry.Counters.total c Telemetry.Event.Read)

(* Each domain sets its pid once; per-pid counts stay exact under real
   parallelism because each pid only bumps its own row. *)
let test_instrument_native_domains () =
  let procs = 4 in
  let reads_per_pid = 500 in
  let c = Telemetry.Counters.create ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Native.Mem)
      (struct
        let sink = Runtime.Sink.make ~telemetry:c ()
      end)
  in
  let r = M.create 0 in
  let _ =
    Pram.Native.run_parallel ~procs (fun pid ->
        Runtime.set_pid pid;
        for _ = 1 to reads_per_pid do
          ignore (M.read r)
        done;
        M.write r pid)
  in
  for pid = 0 to procs - 1 do
    check_bool
      (Printf.sprintf "pid %d reads, writes" pid)
      true
      (grid_counts c ~pid = (reads_per_pid, 1))
  done;
  check_int "total reads" (procs * reads_per_pid)
    (Telemetry.Counters.total c Telemetry.Event.Read)

(* --- the grid via the driver observer -------------------------------------- *)

let test_observer_matches_driver_steps () =
  let procs = 3 in
  let c = Telemetry.Counters.create ~procs () in
  let program () =
    let regs = Array.init procs (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for i = 1 to 5 do
        Pram.Memory.Sim.write regs.(pid) i;
        ignore (Pram.Memory.Sim.read regs.((pid + 1) mod procs))
      done
  in
  let d =
    Pram.Driver.create
      ?observer:(Runtime.Sink.observer (Runtime.Sink.make ~telemetry:c ()))
      ~procs program
  in
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  for pid = 0 to procs - 1 do
    let r, w = grid_counts c ~pid in
    check_int
      (Printf.sprintf "pid %d accesses = driver steps" pid)
      (Pram.Driver.steps d pid) (r + w);
    check_bool
      (Printf.sprintf "pid %d reads, writes" pid)
      true
      ((r, w) = (5, 5))
  done

(* Spans wrap operations inside the process body; the journal's per-pid
   order keeps their access counts exact even though the scheduler
   interleaves everything. *)
let test_spans_under_interleaving () =
  let procs = 3 in
  let ops = 4 in
  let j = Tracing.Journal.create ~procs () in
  let program () =
    let regs = Array.init procs (fun _ -> Pram.Memory.Sim.create 0) in
    fun pid ->
      for _ = 1 to ops do
        Tracing.Journal.with_span j ~pid ~op:"rmw" (fun () ->
            let v = Pram.Memory.Sim.read regs.(pid) in
            Pram.Memory.Sim.write regs.(pid) (v + 1))
      done
  in
  let d =
    Pram.Driver.create ~observer:(Tracing.Journal.observer j) ~procs program
  in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed:3 ()) d;
  match Tracing.span_stats (Tracing.archive j) ~op:"rmw" with
  | None -> Alcotest.fail "span stats expected"
  | Some s ->
      check_int "span count" (procs * ops) s.Telemetry.Stats.count;
      check_int "every op is read+write" 2 s.Telemetry.Stats.min;
      check_int "every op is read+write (max)" 2 s.Telemetry.Stats.max

(* --- the Section 6.2 guard ------------------------------------------------- *)

(* cost_formula vs the grid counts of both meters, every variant,
   procs = 1..8: the Instrument wrapper over Direct (solo scan), and the
   driver observer under Sim (all processes contending). *)
let scan_cost_via_instrument ~procs ~variant =
  let c = Telemetry.Counters.create ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Memory.Direct)
      (struct
        let sink = Runtime.Sink.make ~telemetry:c ()
      end)
  in
  let module Scan =
    Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Versioned (M))
  in
  let t = Scan.create ~procs in
  Runtime.set_pid 0;
  let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid:0 ()) in
  ignore (Scan.scan ~variant h 1);
  (grid_counts c ~pid:0, M.registers_created ())

let scan_cost_via_observer ~procs ~variant =
  let c = Telemetry.Counters.create ~procs () in
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = Scan.create ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan.scan ~variant h (pid + 1))
  in
  let d =
    Pram.Driver.create
      ?observer:(Runtime.Sink.observer (Runtime.Sink.make ~telemetry:c ()))
      ~procs program
  in
  (* all processes run (contention): per-pid counts must be oblivious *)
  Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d;
  grid_counts c ~pid:0

let test_cost_formula_matches_counting_backend () =
  List.iter
    (fun variant ->
      for procs = 1 to 8 do
        let formula = Snapshot.Scan.cost_formula ~procs variant in
        let instrumented, regs = scan_cost_via_instrument ~procs ~variant in
        let label what =
          Printf.sprintf "%s procs=%d %s" (vname variant) procs what
        in
        check_bool (label "reads, writes (instrument)") true
          (instrumented = formula);
        (* the grid, the [procs] adaptive escalation flags, the [procs]
           lattice generation registers, and the classifier-tree pool
           ([lattice_pool] trees of [2^levels - 1] vertices with [procs]
           slots each) *)
        let levels = Snapshot.Scan.lattice_levels ~procs in
        let pool_regs =
          Snapshot.Scan.lattice_pool * ((1 lsl levels) - 1) * procs
        in
        check_int (label "grid registers")
          ((procs * (procs + 4)) + pool_regs)
          regs;
        (* round-robin lockstep fires every publish before any collect,
           so even the contended Adaptive run stays on the exact-count
           fast path (random schedules may escalate; see
           test_instrument_equals_driver) *)
        check_bool (label "reads, writes (observer, contended)") true
          (scan_cost_via_observer ~procs ~variant = formula)
      done)
    [
      Snapshot.Scan.Plain;
      Snapshot.Scan.Optimized;
      Snapshot.Scan.Adaptive;
      Snapshot.Scan.Lattice;
    ]

(* The journal meter: one scan per process under a seeded random
   schedule, the context carrying the journal (so Scan brackets each
   scan as a "scan" span) and the driver observer feeding it.  Each
   pid's span, read back from the journal alone, costs exactly
   reads + writes of the formula. *)
let test_span_stats_match_cost_formula () =
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  List.iter
    (fun variant ->
      for procs = 1 to 8 do
        let j = Tracing.Journal.create ~procs () in
        let sink = Runtime.Sink.make ~journal:j () in
        let program () =
          let t = Scan.create ~procs in
          fun pid ->
            let h = Scan.attach t (Runtime.Ctx.make ~sink ~procs ~pid ()) in
            ignore (Scan.scan ~variant h (pid + 1))
        in
        let d =
          Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs
            program
        in
        Pram.Scheduler.run (Pram.Scheduler.random ~seed:(17 + procs) ()) d;
        let a = Tracing.archive j in
        let fr, fw = Snapshot.Scan.cost_formula ~procs variant in
        for pid = 0 to procs - 1 do
          let mine =
            {
              a with
              Tracing.a_events =
                List.filter (fun e -> e.Tracing.pid = pid) a.Tracing.a_events;
            }
          in
          match Tracing.span_stats mine ~op:"scan" with
          | None ->
              Alcotest.failf "%s procs=%d pid=%d: no span" (vname variant)
                procs pid
          | Some s ->
              check_bool
                (Printf.sprintf "%s procs=%d pid=%d: one scan of %d accesses"
                   (vname variant) procs pid (fr + fw))
                true
                (s.Telemetry.Stats.count = 1 && s.Telemetry.Stats.min = fr + fw)
        done
      done)
    (* Adaptive is excluded: random schedules may escalate, making its
       per-pid counts schedule-dependent. *)
    [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized; Snapshot.Scan.Lattice ]

(* --- one access stream, two meters -----------------------------------------
   The Instrument wrapper and the driver observer must report the same
   per-pid grid counts on the same seeded scan workload, procs 1..8.
   Scan's access count is schedule-oblivious, so the contended simulator
   run must agree with the sequential direct run, per pid. *)

let scan_workload_via_instrument ~procs ~variant =
  let c = Telemetry.Counters.create ~procs () in
  let module M =
    Runtime.Instrument
      (Pram.Memory.Direct)
      (struct
        let sink = Runtime.Sink.make ~telemetry:c ()
      end)
  in
  let module Scan =
    Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Versioned (M))
  in
  let t = Scan.create ~procs in
  for pid = 0 to procs - 1 do
    Runtime.set_pid pid;
    let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    ignore (Scan.scan ~variant h (pid + 1))
  done;
  Runtime.set_pid 0;
  Array.init procs (fun pid -> grid_counts c ~pid)

let scan_workload_via_driver ~procs ~variant ~seed =
  let c = Telemetry.Counters.create ~procs () in
  let module Scan = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = Scan.create ~procs in
    fun pid ->
      let h = Scan.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan.scan ~variant h (pid + 1))
  in
  let d =
    Pram.Driver.create
      ?observer:(Runtime.Sink.observer (Runtime.Sink.make ~telemetry:c ()))
      ~procs program
  in
  Pram.Scheduler.run (Pram.Scheduler.random ~seed ()) d;
  Array.init procs (fun pid -> grid_counts c ~pid)

let test_instrument_equals_driver () =
  List.iter
    (fun variant ->
      for procs = 1 to 8 do
        let inst = scan_workload_via_instrument ~procs ~variant in
        let driver =
          scan_workload_via_driver ~procs ~variant ~seed:(41 + procs)
        in
        for pid = 0 to procs - 1 do
          check_bool
            (Printf.sprintf "%s procs=%d pid=%d reads, writes" (vname variant)
               procs pid)
            true
            (inst.(pid) = driver.(pid))
        done
      done)
    (* Adaptive is excluded: random schedules may escalate, making its
       per-pid counts schedule-dependent.  Lattice is included — its
       counts are oblivious for one scan per process (all scans land in
       generation 1, so the fence never retries). *)
    [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized; Snapshot.Scan.Lattice ]

(* --- the adaptive scan's contention event, observed end-to-end ------------- *)

(* Force exactly one escalation under the simulator: the reader stores
   the writer's column-0 epoch during its versioned collect, the writer
   publishes (moving that epoch), and the reader's revalidation must
   escalate.  [retries:1] pins the pre-retry behavior — with the default
   bounded retry the second collect would validate (the writer has
   finished) and no escalation would fire.  The event reaches the
   context's telemetry counters and, from there, the OpenMetrics
   exposition under its registered name — the same surface
   `wfa_cli top` renders. *)
let test_scan_escalation_reaches_exporters () =
  let c = Telemetry.Counters.create ~procs:2 () in
  let module A = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v) in
  let program () =
    let t = A.create ~procs:2 in
    fun pid ->
      let sink = Runtime.Sink.make ~telemetry:c () in
      let h = A.attach ~retries:1 t (Runtime.Ctx.make ~sink ~procs:2 ~pid ()) in
      if pid = 0 then begin
        A.write_l ~variant:Snapshot.Scan.Adaptive h 7;
        0
      end
      else A.read_max ~variant:Snapshot.Scan.Adaptive h
  in
  let d = Pram.Driver.create ~procs:2 program in
  (* reader: escalation-flag pre-read, then the versioned collect of the
     writer's column (recording epoch 0) *)
  Pram.Driver.step d 1;
  Pram.Driver.step d 1;
  (* writer publishes: the column-0 epoch moves to 1 *)
  check_bool "writer finishes" true (Pram.Driver.run_solo d 0);
  (* reader's epoch revalidation sees the moved epoch and escalates *)
  check_bool "reader finishes" true (Pram.Driver.run_solo d 1);
  check_int "reader returns the published value" 7
    (match Pram.Driver.result d 1 with Some v -> v | None -> min_int);
  check_int "exactly one escalation counted" 1
    (Telemetry.Counters.total c Telemetry.Event.Scan_escalation);
  match Telemetry.Openmetrics.parse (Telemetry.Openmetrics.render c) with
  | Error e -> Alcotest.failf "openmetrics rejected its own render: %s" e
  | Ok samples ->
      let value name =
        List.find_map
          (fun s ->
            if
              s.Telemetry.Openmetrics.s_name = "wfa_event_total"
              && List.mem ("event", name) s.Telemetry.Openmetrics.s_labels
            then Some s.Telemetry.Openmetrics.s_value
            else None)
          samples
      in
      check_bool "scan_escalation exported with the count" true
        (value "scan_escalation" = Some 1.0);
      check_bool "seqlock_retry exported (zero in the simulator)" true
        (value "seqlock_retry" = Some 0.0)

(* --- bench JSON round-trip -------------------------------------------------- *)

(* the schedule-exploration coverage family the PR 6 validator requires:
   all five stages, each with the full four-metric family, the clean
   stage clean, the buggy stages finding their bug, random stages with
   sampled = explored > 0 and systematic stages with sampled = 0 *)
let explore_stage_rows ~bench ~procs ~explored ~pruned ~sampled ~violations =
  List.map
    (fun (metric, value) ->
      Experiments.Bench_json.row ~bench ~procs ~backend:"sim" ~metric ~value
        ~unit_:"schedules")
    [
      ("explored", explored);
      ("pruned", pruned);
      ("sampled", sampled);
      ("violations", violations);
    ]

let explore_rows =
  List.concat
    [
      explore_stage_rows ~bench:"explore_scan_dpor" ~procs:2 ~explored:108.0
        ~pruned:38.0 ~sampled:0.0 ~violations:0.0;
      explore_stage_rows ~bench:"explore_counter_bounded" ~procs:3
        ~explored:36.0 ~pruned:0.0 ~sampled:0.0 ~violations:30.0;
      explore_stage_rows ~bench:"explore_lost_update_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:400.0;
      explore_stage_rows ~bench:"explore_racy_max_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:234.0;
      explore_stage_rows ~bench:"explore_collect_uniform" ~procs:6
        ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:110.0;
    ]

(* the store family the PR 7 validator requires: native wall-clock +
   throughput and exact sim ops/entries counters at the full sweep for
   both batching policies, with batched >= unbatched throughput at
   procs >= 4 and entries <= ops *)
let store_stage_rows ~bench ~ops_per_sec ~entries =
  List.concat_map
    (fun procs ->
      [
        Experiments.Bench_json.row ~bench ~procs ~backend:"native"
          ~metric:"wall_ns" ~value:2e7 ~unit_:"ns";
        Experiments.Bench_json.row ~bench ~procs ~backend:"native"
          ~metric:"ops_per_sec" ~value:ops_per_sec ~unit_:"ops/s";
        Experiments.Bench_json.row ~bench ~procs ~backend:"sim" ~metric:"ops"
          ~value:96.0 ~unit_:"ops";
        Experiments.Bench_json.row ~bench ~procs ~backend:"sim"
          ~metric:"entries" ~value:entries ~unit_:"entries";
      ])
    [ 1; 2; 4; 8 ]

let store_rows =
  store_stage_rows ~bench:"store_batched" ~ops_per_sec:4e5 ~entries:24.0
  @ store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5 ~entries:96.0

(* the windowed-store family the PR 8 validator requires: each open-loop
   sweep stage and the read-mix stage at procs 4 native, with a windowed
   w_ops/w_end_ns series whose per-window ops reconcile against the
   stage's "ops" total, plus a target_rate row for open-loop stages *)
let windowed_stage_rows ~bench ~target_rate =
  let row = Experiments.Bench_json.row ~bench ~procs:4 ~backend:"native" in
  let wrow ~window =
    Experiments.Bench_json.wrow ~window ~bench ~procs:4 ~backend:"native"
  in
  [
    row ~metric:"wall_ns" ~value:2e7 ~unit_:"ns";
    row ~metric:"ops_per_sec" ~value:5e4 ~unit_:"ops/s";
    row ~metric:"ops" ~value:400.0 ~unit_:"ops";
    wrow ~window:0 ~metric:"w_ops" ~value:150.0 ~unit_:"ops";
    wrow ~window:1 ~metric:"w_ops" ~value:250.0 ~unit_:"ops";
    wrow ~window:0 ~metric:"w_end_ns" ~value:1e7 ~unit_:"ns";
    wrow ~window:1 ~metric:"w_end_ns" ~value:2e7 ~unit_:"ns";
    wrow ~window:0 ~metric:"w_ops_per_sec" ~value:1.5e4 ~unit_:"ops/s";
    wrow ~window:0 ~metric:"w_latency_p99" ~value:120000.0 ~unit_:"ns";
    wrow ~window:1 ~metric:"w_delta_shard_queue_depth" ~value:250.0
      ~unit_:"events";
  ]
  @
  match target_rate with
  | None -> []
  | Some rate -> [ row ~metric:"target_rate" ~value:rate ~unit_:"ops/s" ]

let windowed_rows =
  List.concat
    [
      windowed_stage_rows ~bench:"store_openloop_r2000"
        ~target_rate:(Some 2000.0);
      windowed_stage_rows ~bench:"store_openloop_r5000"
        ~target_rate:(Some 5000.0);
      windowed_stage_rows ~bench:"store_openloop_r10000"
        ~target_rate:(Some 10000.0);
      windowed_stage_rows ~bench:"store_batched_readmix" ~target_rate:None;
    ]

let test_bench_json_roundtrip () =
  (* the universal wall-clock family the PR 5 validator requires at the
     full sweep, for both universal benches *)
  let universal_rows =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun procs ->
            [
              Experiments.Bench_json.row ~bench ~procs ~backend:"native"
                ~metric:"wall_ns" ~value:1e7 ~unit_:"ns";
              Experiments.Bench_json.row ~bench ~procs ~backend:"native"
                ~metric:"ops_per_sec" ~value:1e5 ~unit_:"ops/s";
            ])
          [ 1; 2; 4; 8 ])
      [ "universal_counter"; "universal_gset" ]
  in
  let rows =
    [
      Experiments.Bench_json.row ~bench:"scan_plain_uncontended" ~procs:2
        ~backend:"sim" ~metric:"reads" ~value:7.0 ~unit_:"accesses";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:1
        ~backend:"native" ~metric:"ops_per_sec" ~value:1.5e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:2
        ~backend:"native" ~metric:"ops_per_sec" ~value:2.5e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:4
        ~backend:"native" ~metric:"ops_per_sec" ~value:3e6 ~unit_:"ops/s";
      Experiments.Bench_json.row ~bench:"counter_inc" ~procs:8
        ~backend:"native" ~metric:"ops_per_sec" ~value:4e6 ~unit_:"ops/s";
    ]
    @ universal_rows @ explore_rows @ store_rows @ windowed_rows
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json rows)
   with
  | Ok n -> check_int "row count survives round-trip" (List.length rows) n
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* a sim scan row contradicting the formula must be rejected *)
  let bad =
    Experiments.Bench_json.row ~bench:"scan_plain_uncontended" ~procs:2
      ~backend:"sim" ~metric:"reads" ~value:6.0 ~unit_:"accesses"
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json (bad :: List.tl rows))
   with
  | Ok _ -> Alcotest.fail "formula violation must be rejected"
  | Error _ -> ());
  (* wall-clock rows are schema-checked: wrong unit or a non-positive
     span must be rejected (but no magnitude thresholds) *)
  let wrong_unit =
    Experiments.Bench_json.row ~bench:"universal_counter" ~procs:1
      ~backend:"native" ~metric:"wall_ns" ~value:1e7 ~unit_:"ms"
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json (wrong_unit :: rows))
   with
  | Ok _ -> Alcotest.fail "wall_ns with unit \"ms\" must be rejected"
  | Error _ -> ());
  (* dropping one universal coverage row must be flagged *)
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "universal_gset"
                 && r.Experiments.Bench_json.procs = 8
                 && r.Experiments.Bench_json.metric = "wall_ns"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing universal wall_ns coverage accepted"
  | Error _ -> ());
  (* the incremental mode may never replay more than the reference *)
  let replay_pair v =
    [
      Experiments.Bench_json.row ~bench:"universal_counter" ~procs:2
        ~backend:"sim" ~metric:"spec_replays" ~value:v ~unit_:"calls";
      Experiments.Bench_json.row ~bench:"universal_counter" ~procs:2
        ~backend:"sim" ~metric:"spec_replays_reference" ~value:100.0
        ~unit_:"calls";
    ]
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json (rows @ replay_pair 40.0))
   with
  | Ok _ -> ()
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json (rows @ replay_pair 140.0))
   with
  | Ok _ -> Alcotest.fail "spec_replays above reference accepted"
  | Error _ -> ());
  (* explore coverage gates: a clean stage reporting a violation, a
     random stage whose sampled count disagrees with explored, a buggy
     stage that failed to find its bug, and a dropped metric row must
     all be flagged *)
  let swap_stage bench stage =
    List.filter (fun r -> r.Experiments.Bench_json.bench <> bench) rows @ stage
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_scan_dpor"
             (explore_stage_rows ~bench:"explore_scan_dpor" ~procs:2
                ~explored:108.0 ~pruned:38.0 ~sampled:0.0 ~violations:1.0)))
   with
  | Ok _ -> Alcotest.fail "violation in the clean explore stage accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_racy_max_uniform"
             (explore_stage_rows ~bench:"explore_racy_max_uniform" ~procs:6
                ~explored:400.0 ~pruned:0.0 ~sampled:250.0 ~violations:234.0)))
   with
  | Ok _ -> Alcotest.fail "random stage with sampled <> explored accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (swap_stage "explore_collect_uniform"
             (explore_stage_rows ~bench:"explore_collect_uniform" ~procs:6
                ~explored:400.0 ~pruned:0.0 ~sampled:400.0 ~violations:0.0)))
   with
  | Ok _ -> Alcotest.fail "injected bug not found but accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "explore_counter_bounded"
                 && r.Experiments.Bench_json.metric = "pruned"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing explore metric row accepted"
  | Error _ -> ());
  (* store gates (PR 7): batched throughput below unbatched at procs >= 4,
     sim entries exceeding ops, batched entries above the unbatched
     baseline, and dropped store coverage must all be flagged; the same
     store-only rows must pass under the Store scope but fail the full
     validator (which demands every other family too) *)
  let replace_store bench stage =
    List.filter (fun r -> r.Experiments.Bench_json.bench <> bench) rows @ stage
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_batched"
             (store_stage_rows ~bench:"store_batched" ~ops_per_sec:1e5
                ~entries:24.0)))
   with
  | Ok _ -> Alcotest.fail "batched slower than unbatched at procs >= 4 accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_unbatched"
             (store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5
                ~entries:97.0)))
   with
  | Ok _ -> Alcotest.fail "sim store entries above ops accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (replace_store "store_batched"
             (store_stage_rows ~bench:"store_batched" ~ops_per_sec:4e5
                ~entries:96.0
             |> List.map (fun r ->
                    if r.Experiments.Bench_json.metric = "entries" then
                      Experiments.Bench_json.row ~bench:"store_batched"
                        ~procs:r.Experiments.Bench_json.procs ~backend:"sim"
                        ~metric:"entries" ~value:96.5 ~unit_:"entries"
                    else r))))
   with
  | Ok _ -> Alcotest.fail "non-integer sim store counter accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "store_unbatched"
                 && r.Experiments.Bench_json.procs = 4
                 && r.Experiments.Bench_json.metric = "ops_per_sec"))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing store throughput coverage accepted"
  | Error _ -> ());
  let store_family = store_rows @ windowed_rows in
  (match
     Experiments.Bench_json.validate_string
       ~scope:Experiments.Bench_json.Store
       (Experiments.Bench_json.to_json store_family)
   with
  | Ok n ->
      check_int "store scope passes store-only rows"
        (List.length store_family) n
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json store_family)
   with
  | Ok _ -> Alcotest.fail "store-only rows passed the full validator"
  | Error _ -> ());
  (* series gates (PR 8): per-window ops that no longer reconcile with
     the stage total, a dropped windowed series, a w_-prefixed metric
     without a window, a non-contiguous window index, and a stale
     target_rate must all be flagged; the windowed rows alone must pass
     under the Series scope *)
  let map_windowed f =
    List.map
      (fun r ->
        if
          r.Experiments.Bench_json.bench = "store_openloop_r5000"
          && r.Experiments.Bench_json.window <> None
        then f r
        else r)
      rows
  in
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (map_windowed (fun r ->
               if r.Experiments.Bench_json.metric = "w_ops" then
                 { r with Experiments.Bench_json.value = 1.0 }
               else r)))
   with
  | Ok _ -> Alcotest.fail "window ops not summing to the stage total accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (List.filter
             (fun r ->
               not
                 (r.Experiments.Bench_json.bench = "store_batched_readmix"
                 && r.Experiments.Bench_json.window <> None))
             rows))
   with
  | Ok _ -> Alcotest.fail "missing windowed series accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (Experiments.Bench_json.row ~bench:"store_openloop_r2000" ~procs:4
             ~backend:"native" ~metric:"w_ops" ~value:3.0 ~unit_:"ops"
          :: rows))
   with
  | Ok _ -> Alcotest.fail "w_-prefixed metric without a window accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (map_windowed (fun r ->
               if r.Experiments.Bench_json.window = Some 1 then
                 { r with Experiments.Bench_json.window = Some 2 }
               else r)))
   with
  | Ok _ -> Alcotest.fail "non-contiguous window indices accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       (Experiments.Bench_json.to_json
          (List.map
             (fun r ->
               if
                 r.Experiments.Bench_json.bench = "store_openloop_r10000"
                 && r.Experiments.Bench_json.metric = "target_rate"
               then { r with Experiments.Bench_json.value = 9000.0 }
               else r)
             rows))
   with
  | Ok _ -> Alcotest.fail "target_rate contradicting the stage name accepted"
  | Error _ -> ());
  (match
     Experiments.Bench_json.validate_string
       ~scope:Experiments.Bench_json.Series
       (Experiments.Bench_json.to_json windowed_rows)
   with
  | Ok n ->
      check_int "series scope passes windowed rows"
        (List.length windowed_rows) n
  | Error errs -> Alcotest.fail (String.concat "; " errs));
  (* and broken syntax is a parse error, not a crash *)
  match Experiments.Bench_json.validate_string "[{\"bench\": }]" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "stats over 1..100" `Quick test_histogram_stats;
          Alcotest.test_case "singleton" `Quick test_histogram_single;
          Alcotest.test_case "empty/singleton/pair edge cases" `Quick
            test_stats_edge_cases;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "instrument over Direct" `Quick
            test_instrument_direct;
          Alcotest.test_case "instrument over native domains" `Quick
            test_instrument_native_domains;
          Alcotest.test_case "observer matches driver steps" `Quick
            test_observer_matches_driver_steps;
          Alcotest.test_case "spans exact under interleaving" `Quick
            test_spans_under_interleaving;
        ] );
      ( "cost-formula",
        [
          Alcotest.test_case "Section 6.2 formulas, procs 1..8" `Quick
            test_cost_formula_matches_counting_backend;
          Alcotest.test_case "journal span_stats per pid, procs 1..8" `Quick
            test_span_stats_match_cost_formula;
        ] );
      ( "sink-equivalence",
        [
          Alcotest.test_case "Instrument = driver observer, procs 1..8"
            `Quick test_instrument_equals_driver;
        ] );
      ( "contention-events",
        [
          Alcotest.test_case "escalation reaches counters and exporters"
            `Quick test_scan_escalation_reaches_exporters;
        ] );
      ( "bench-json",
        [
          Alcotest.test_case "round-trip + schema gates" `Quick
            test_bench_json_roundtrip;
        ] );
    ]
