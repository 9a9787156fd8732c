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

(* --- bench JSON gates ---------------------------------------------------------- *)

module B = Experiments.Bench_json

let validate ?only rows = B.validate_string ?only (B.to_json rows)

(* the schedule-exploration family: all five stages, each with the full
   four-metric family, the clean stage clean, the buggy stages finding
   their bug, random stages with sampled = explored > 0 and systematic
   stages with sampled = 0 *)
let explore_stage_rows ~bench ~procs ~explored ~pruned ~sampled ~violations =
  List.map
    (fun (metric, value) ->
      B.row ~bench ~procs ~backend:"sim" ~metric ~value ~unit_:"schedules")
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

(* the store family: native wall-clock + throughput and exact sim
   ops/entries counters at the full sweep for both batching policies,
   with batched >= unbatched throughput at procs >= 4 and entries <= ops *)
let store_stage_rows ~bench ~ops_per_sec ~entries =
  List.concat_map
    (fun procs ->
      [
        B.row ~bench ~procs ~backend:"native" ~metric:"wall_ns" ~value:2e7
          ~unit_:"ns";
        B.row ~bench ~procs ~backend:"native" ~metric:"ops_per_sec"
          ~value:ops_per_sec ~unit_:"ops/s";
        B.row ~bench ~procs ~backend:"sim" ~metric:"ops" ~value:96.0
          ~unit_:"ops";
        B.row ~bench ~procs ~backend:"sim" ~metric:"entries" ~value:entries
          ~unit_:"entries";
      ])
    [ 1; 2; 4; 8 ]

let store_rows =
  store_stage_rows ~bench:"store_batched" ~ops_per_sec:4e5 ~entries:24.0
  @ store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5 ~entries:96.0

(* the windowed store stages: each open-loop sweep stage and the
   read-mix stage at procs 4 native, with a windowed w_ops/w_end_ns
   series whose per-window ops reconcile against the stage's "ops"
   total, plus a target_rate row for open-loop stages *)
let windowed_stage_rows ~bench ~target_rate =
  let row = B.row ~bench ~procs:4 ~backend:"native" in
  let wrow ~window = B.wrow ~window ~bench ~procs:4 ~backend:"native" in
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

(* sim scan rows at their Section 6.2 formula values for the two
   cross-variant gates (uncontended adaptive vs optimized, contended
   lattice vs optimized), plus the native wall_ns rows of the adaptive
   and lattice stages at procs 8 *)
let scan_rows =
  List.concat_map
    (fun procs ->
      List.concat_map
        (fun (bench, variant) ->
          let reads, writes = Snapshot.Scan.cost_formula ~procs variant in
          [
            B.row ~bench ~procs ~backend:"sim" ~metric:"reads"
              ~value:(float_of_int reads) ~unit_:"accesses";
            B.row ~bench ~procs ~backend:"sim" ~metric:"writes"
              ~value:(float_of_int writes) ~unit_:"accesses";
          ])
        [
          ("scan_opt_uncontended", Snapshot.Scan.Optimized);
          ("scan_adaptive_uncontended", Snapshot.Scan.Adaptive);
          ("scan_opt_contended", Snapshot.Scan.Optimized);
          ("scan_lattice_contended", Snapshot.Scan.Lattice);
        ])
    [ 4; 8 ]
  @ List.map
      (fun bench ->
        B.row ~bench ~procs:8 ~backend:"native" ~metric:"wall_ns" ~value:3e6
          ~unit_:"ns")
      [
        "scan_adaptive_uncontended";
        "scan_adaptive_contended";
        "scan_lattice_uncontended";
        "scan_lattice_contended";
      ]

(* the universal wall-clock family at the full sweep, for both universal
   benches *)
let universal_rows =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun procs ->
          [
            B.row ~bench ~procs ~backend:"native" ~metric:"wall_ns" ~value:1e7
              ~unit_:"ns";
            B.row ~bench ~procs ~backend:"native" ~metric:"ops_per_sec"
              ~value:1e5 ~unit_:"ops/s";
          ])
        [ 1; 2; 4; 8 ])
    [ "universal_counter"; "universal_gset" ]

(* a file carrying every family, well-formed *)
let rows =
  [
    B.row ~bench:"scan_plain_uncontended" ~procs:2 ~backend:"sim"
      ~metric:"reads" ~value:7.0 ~unit_:"accesses";
    B.row ~bench:"counter_inc" ~procs:1 ~backend:"native"
      ~metric:"ops_per_sec" ~value:1.5e6 ~unit_:"ops/s";
    B.row ~bench:"counter_inc" ~procs:2 ~backend:"native"
      ~metric:"ops_per_sec" ~value:2.5e6 ~unit_:"ops/s";
    B.row ~bench:"counter_inc" ~procs:4 ~backend:"native"
      ~metric:"ops_per_sec" ~value:3e6 ~unit_:"ops/s";
    B.row ~bench:"counter_inc" ~procs:8 ~backend:"native"
      ~metric:"ops_per_sec" ~value:4e6 ~unit_:"ops/s";
    B.row ~bench:"counter_inc" ~procs:1 ~backend:"native"
      ~metric:"lost_updates" ~value:0.0 ~unit_:"ops";
  ]
  @ universal_rows @ explore_rows @ store_rows @ windowed_rows @ scan_rows

(* [at bench ?procs ?metric r]: [r] belongs to [bench] (and the given
   procs / metric) *)
let at ?procs ?metric ?(windowed = false) bench (r : B.row) =
  r.bench = bench
  && Option.fold ~none:true ~some:(( = ) r.procs) procs
  && Option.fold ~none:true ~some:(( = ) r.metric) metric
  && (r.window <> None) = windowed

let without p = List.filter (fun r -> not (p r))
let set_value p v =
  List.map (fun (r : B.row) -> if p r then { r with value = v } else r)

let replace bench stage =
  without (fun (r : B.row) -> r.bench = bench) rows @ stage

(* Every gate's fixtures as (name, scope, expected verdict, rows): [true]
   means the rows must validate, [false] that some gate must reject
   them.  The scope is [None] for the full validator or [Some family]
   for `--only family`. *)
let gate_fixtures =
  [
    ("every family, well-formed", None, true, rows);
    ( "scan formula violation",
      None,
      false,
      set_value (at "scan_plain_uncontended" ~procs:2 ~metric:"reads") 6.0 rows
    );
    ( "wall_ns with unit ms",
      None,
      false,
      B.row ~bench:"universal_counter" ~procs:1 ~backend:"native"
        ~metric:"wall_ns" ~value:1e7 ~unit_:"ms"
      :: rows );
    ( "wall_ns zero",
      None,
      false,
      set_value (at "universal_counter" ~procs:1 ~metric:"wall_ns") 0.0 rows );
    ( "ops_per_sec zero",
      None,
      false,
      set_value (at "counter_inc" ~procs:1 ~metric:"ops_per_sec") 0.0 rows );
    ( "lost updates",
      None,
      false,
      set_value (at "counter_inc" ~metric:"lost_updates") 3.0 rows );
    ( "no native ops_per_sec at procs 2",
      None,
      false,
      without
        (fun (r : B.row) ->
          r.backend = "native" && r.procs = 2 && r.metric = "ops_per_sec")
        rows );
    ( "missing universal wall_ns",
      None,
      false,
      without (at "universal_gset" ~procs:8 ~metric:"wall_ns") rows );
    ( "spec_replays below reference",
      None,
      true,
      rows
      @ [
          B.row ~bench:"universal_counter" ~procs:2 ~backend:"sim"
            ~metric:"spec_replays" ~value:40.0 ~unit_:"calls";
          B.row ~bench:"universal_counter" ~procs:2 ~backend:"sim"
            ~metric:"spec_replays_reference" ~value:100.0 ~unit_:"calls";
        ] );
    ( "spec_replays above reference",
      None,
      false,
      rows
      @ [
          B.row ~bench:"universal_counter" ~procs:2 ~backend:"sim"
            ~metric:"spec_replays" ~value:140.0 ~unit_:"calls";
          B.row ~bench:"universal_counter" ~procs:2 ~backend:"sim"
            ~metric:"spec_replays_reference" ~value:100.0 ~unit_:"calls";
        ] );
    ( "violation in the clean explore stage",
      None,
      false,
      set_value (at "explore_scan_dpor" ~metric:"violations") 1.0 rows );
    ( "random explore stage with sampled <> explored",
      None,
      false,
      set_value (at "explore_racy_max_uniform" ~metric:"sampled") 250.0 rows );
    ( "injected bug not found",
      None,
      false,
      set_value (at "explore_collect_uniform" ~metric:"violations") 0.0 rows );
    ( "missing explore metric",
      None,
      false,
      without (at "explore_counter_bounded" ~metric:"pruned") rows );
    ( "explore row on the native backend",
      None,
      false,
      List.map
        (fun (r : B.row) ->
          if at "explore_scan_dpor" ~metric:"explored" r then
            { r with backend = "native" }
          else r)
        rows );
    ( "explore row with unit runs",
      None,
      false,
      List.map
        (fun (r : B.row) ->
          if at "explore_scan_dpor" ~metric:"pruned" r then
            { r with unit_ = "runs" }
          else r)
        rows );
    ( "non-integer explore count",
      None,
      false,
      set_value (at "explore_scan_dpor" ~metric:"pruned") 38.5 rows );
    ( "random explore stage that explored nothing",
      None,
      false,
      set_value
        (fun r ->
          at "explore_lost_update_uniform" r
          && (r.metric = "explored" || r.metric = "sampled"))
        0.0 rows );
    ( "systematic explore stage with sampled <> 0",
      None,
      false,
      set_value (at "explore_counter_bounded" ~metric:"sampled") 36.0 rows );
    ( "batched slower than unbatched at procs >= 4",
      None,
      false,
      replace "store_batched"
        (store_stage_rows ~bench:"store_batched" ~ops_per_sec:1e5
           ~entries:24.0) );
    ( "sim store entries above ops",
      None,
      false,
      replace "store_unbatched"
        (store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5
           ~entries:97.0) );
    ( "batched sim entries above unbatched",
      None,
      false,
      replace "store_unbatched"
        (store_stage_rows ~bench:"store_unbatched" ~ops_per_sec:2e5
           ~entries:20.0) );
    ( "non-integer sim store counter",
      None,
      false,
      set_value
        (fun (r : B.row) -> r.bench = "store_batched" && r.metric = "entries")
        23.5 rows );
    ( "missing store throughput",
      None,
      false,
      without (at "store_unbatched" ~procs:4 ~metric:"ops_per_sec") rows );
    ("store scope passes store-only rows", Some B.Store, true,
     store_rows @ windowed_rows);
    ("store-only rows fail the full validator", None, false,
     store_rows @ windowed_rows);
    ( "window ops not summing to the stage total",
      None,
      false,
      set_value (at "store_openloop_r5000" ~metric:"w_ops" ~windowed:true) 1.0
        rows );
    ( "missing windowed series",
      None,
      false,
      without (at "store_batched_readmix" ~windowed:true) rows );
    ( "w_-prefixed metric without a window",
      None,
      false,
      B.row ~bench:"store_openloop_r2000" ~procs:4 ~backend:"native"
        ~metric:"w_ops" ~value:3.0 ~unit_:"ops"
      :: rows );
    ( "unknown windowed metric",
      None,
      false,
      B.wrow ~window:0 ~bench:"store_openloop_r2000" ~procs:4 ~backend:"native"
        ~metric:"w_bogus" ~value:3.0 ~unit_:"ops"
      :: rows );
    ( "non-contiguous window indices",
      None,
      false,
      List.map
        (fun (r : B.row) ->
          if at "store_openloop_r5000" ~windowed:true r && r.window = Some 1
          then { r with window = Some 2 }
          else r)
        rows );
    ( "w_end_ns not increasing",
      None,
      false,
      List.map
        (fun (r : B.row) ->
          if
            at "store_openloop_r5000" ~metric:"w_end_ns" ~windowed:true r
            && r.window = Some 1
          then { r with value = 1e7 }
          else r)
        rows );
    ( "negative windowed delta",
      None,
      false,
      set_value
        (at "store_openloop_r2000" ~metric:"w_delta_shard_queue_depth"
           ~windowed:true)
        (-5.0) rows );
    ( "negative windowed latency",
      None,
      false,
      set_value
        (at "store_openloop_r2000" ~metric:"w_latency_p99" ~windowed:true)
        (-1.0) rows );
    ( "series without an ops total",
      Some B.Series,
      false,
      without (at "store_batched_readmix" ~metric:"ops") windowed_rows );
    ("series scope passes windowed rows", Some B.Series, true, windowed_rows);
    ( "missing windowed-stage wall_ns",
      Some B.Store,
      false,
      without (at "store_openloop_r2000" ~metric:"wall_ns")
        (store_rows @ windowed_rows) );
    ( "missing open-loop target_rate",
      Some B.Store,
      false,
      without (at "store_openloop_r10000" ~metric:"target_rate")
        (store_rows @ windowed_rows) );
    ( "target_rate contradicting the stage name",
      None,
      false,
      set_value (at "store_openloop_r10000" ~metric:"target_rate") 9000.0 rows
    );
    ("scan scope passes scan-only rows", Some B.Scan, true, scan_rows);
    ( "adaptive uncontended costlier than optimized",
      Some B.Scan,
      false,
      set_value (at "scan_adaptive_uncontended" ~procs:4 ~metric:"reads") 40.0
        scan_rows );
    ( "missing scan_adaptive_uncontended rows",
      Some B.Scan,
      false,
      without
        (fun r ->
          at "scan_adaptive_uncontended" ~procs:8 r && r.backend = "sim")
        scan_rows );
    ( "lattice contended costlier than optimized at procs 4",
      Some B.Scan,
      false,
      set_value (at "scan_lattice_contended" ~procs:4 ~metric:"reads") 40.0
        scan_rows );
    ( "lattice contended costlier than optimized at procs 8",
      Some B.Scan,
      false,
      set_value (at "scan_lattice_contended" ~procs:8 ~metric:"writes") 90.0
        scan_rows );
    ( "missing native lattice wall_ns at procs 8",
      Some B.Scan,
      false,
      without (at "scan_lattice_contended" ~procs:8 ~metric:"wall_ns") scan_rows
    );
  ]

let test_bench_gates () =
  let wrong =
    List.filter_map
      (fun (name, only, ok, rows) ->
        match (validate ?only rows, ok) with
        | Ok n, true when n = List.length rows -> None
        | Ok n, true -> Some (Printf.sprintf "%s: row count %d" name n)
        | Error _, false -> None
        | Ok _, false -> Some (name ^ ": accepted")
        | Error errs, true ->
            Some (Printf.sprintf "%s: rejected (%s)" name
                    (String.concat "; " errs)))
      gate_fixtures
  in
  if wrong <> [] then Alcotest.fail (String.concat "\n" wrong);
  (* broken syntax is a parse error, not a crash *)
  match B.validate_string "[{\"bench\": }]" with
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
            test_bench_gates;
        ] );
    ]
