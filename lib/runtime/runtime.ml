(* The per-process execution context (see runtime.mli for the design).

   [Ctx] bundles pid, procs, the observer sink and a lazy deterministic
   RNG once per process; algorithms mint a handle from it at session
   start and the per-call surface carries no cross-cutting arguments. *)

(* One domain-local pid for every instrumentation consumer: a single
   [set_pid] at the top of a domain body attributes both the counter
   grid and the journal. *)
let pid_key = Domain.DLS.new_key (fun () -> 0)
let set_pid p = Domain.DLS.set pid_key p
let current_pid () = Domain.DLS.get pid_key

module Rng = struct
  (* The exact state formula [Workload] used, so seeded workloads
     generated before the refactor are bit-identical after it.  Folding
     the pid into the init array keeps scripts a pure function of
     (seed, pid) regardless of the order harnesses visit pids. *)
  let state ~seed ~pid = Random.State.make [| seed; pid; 0x5eed |]
end

module Sink = struct
  type t = {
    journal : Tracing.Journal.t option;
    telemetry : Telemetry.Counters.t option;
  }

  let none = { journal = None; telemetry = None }
  let make ?journal ?telemetry () = { journal; telemetry }
  let journal t = t.journal
  let telemetry t = t.telemetry

  (* The one access feed: a count in the pid's grid row (family 0) and,
     with a journal attached, an [Access] event. *)
  let record_access t ~pid ~kind ~reg_id ~reg_name =
    (match t.telemetry with
    | None -> ()
    | Some c ->
        Telemetry.Counters.record c ~pid ~family:0
          (match (kind : Pram.Trace.kind) with
          | Pram.Trace.Read -> Telemetry.Event.Read
          | Pram.Trace.Write -> Telemetry.Event.Write));
    match t.journal with
    | None -> ()
    | Some j -> Tracing.Journal.access j ~pid ~kind ~reg_id ~reg_name

  let observer t =
    match (t.journal, t.telemetry) with
    | None, None -> None
    | _ ->
        Some
          (fun (a : Pram.Trace.access) ->
            record_access t ~pid:a.pid ~kind:a.kind ~reg_id:a.reg_id
              ~reg_name:a.reg_name)
end

(* Accesses are fed when they complete at this layer: after the
   underlying read returns and after the underlying write is applied.
   Ids are allocated atomically so the wrapper is usable over native
   domains; the id counter doubles as the register footprint. *)
module Instrument (M : Pram.Memory.S) (S : sig
  val sink : Sink.t
end) =
struct
  type 'a reg = {
    r : 'a M.reg;
    id : int;
    name : string;
  }

  let next_id = Atomic.make 0
  let registers_created () = Atomic.get next_id

  let create ?name init =
    let id = 1 + Atomic.fetch_and_add next_id 1 in
    let name =
      match name with Some n -> n | None -> Printf.sprintf "h%d" id
    in
    { r = M.create ~name init; id; name }

  let read rg =
    let v = M.read rg.r in
    Sink.record_access S.sink ~pid:(current_pid ()) ~kind:Pram.Trace.Read
      ~reg_id:rg.id ~reg_name:rg.name;
    v

  let write rg v =
    M.write rg.r v;
    Sink.record_access S.sink ~pid:(current_pid ()) ~kind:Pram.Trace.Write
      ~reg_id:rg.id ~reg_name:rg.name
end

module Ctx = struct
  type t = {
    pid : int;
    procs : int;
    sink : Sink.t;
    seed : int;
    mutable rng : Random.State.t option;
        (* lazily built so contexts that never draw randomness allocate
           no state; deterministic in (seed, pid), so laziness is not
           observable *)
  }

  let make ?(sink = Sink.none) ?(seed = 0) ~procs ~pid () =
    if procs <= 0 then invalid_arg "Runtime.Ctx.make: procs must be positive";
    if pid < 0 || pid >= procs then
      invalid_arg
        (Printf.sprintf "Runtime.Ctx.make: pid %d out of range 0..%d" pid
           (procs - 1));
    { pid; procs; sink; seed; rng = None }

  let pid t = t.pid
  let procs t = t.procs
  let sink t = t.sink
  let journal t = t.sink.Sink.journal
  let telemetry t = t.sink.Sink.telemetry

  let rng t =
    match t.rng with
    | Some st -> st
    | None ->
        let st = Rng.state ~seed:t.seed ~pid:t.pid in
        t.rng <- Some st;
        st

  (* Instrumentation helpers.  The no-journal path of each is one
     pattern match and nothing else — no closure beyond what the caller
     already built, no access, no allocation. *)

  let span t ~op f =
    match t.sink.Sink.journal with
    | None -> f ()
    | Some j -> Tracing.Journal.with_span j ~pid:t.pid ~op f

  let annotate t note =
    match t.sink.Sink.journal with
    | None -> ()
    | Some j -> Tracing.Journal.annotate j ~pid:t.pid note

  let annotatef t fmt =
    match t.sink.Sink.journal with
    | None -> Printf.ikfprintf (fun () -> ()) () fmt
    | Some j ->
        Printf.ksprintf (fun s -> Tracing.Journal.annotate j ~pid:t.pid s) fmt
end

(* Point the pram-layer observation hook at a sink's telemetry
   counters.  [Pram.Native] sits below the telemetry library, so it
   exposes a mutable no-op hook instead of importing it; this is the one
   place that closes the loop.  With no telemetry half the hook is reset
   to a no-op. *)
let install_native_hooks (sink : Sink.t) =
  match sink.Sink.telemetry with
  | None -> Pram.Native.on_seqlock_retry := fun () -> ()
  | Some c ->
      let procs = Telemetry.Counters.procs c in
      Pram.Native.on_seqlock_retry :=
        fun () ->
          let pid = current_pid () in
          if pid >= 0 && pid < procs then
            Telemetry.Counters.record c ~pid ~family:0
              Telemetry.Event.Seqlock_retry

let uninstall_native_hooks () = Pram.Native.on_seqlock_retry := fun () -> ()

module Backend = struct
  type kind =
    | Sim
    | Direct
    | Native

  let all = [ Sim; Direct; Native ]
  let name = function Sim -> "sim" | Direct -> "direct" | Native -> "native"

  let of_name = function
    | "sim" -> Some Sim
    | "direct" -> Some Direct
    | "native" -> Some Native
    | _ -> None

  let pp ppf k = Format.pp_print_string ppf (name k)

  let memory : kind -> (module Pram.Memory.S) = function
    | Sim -> (module Pram.Memory.Sim)
    | Direct -> (module Pram.Memory.Direct)
    | Native -> (module Pram.Native.Mem)

  (* Direct and native memory carry the sink through the one wrapper;
     the simulator's feed is the driver observer instead, which
     attributes by firing schedule (fibers share one domain, so
     [set_pid] could not track them). *)
  let instrumented kind sink : (module Pram.Memory.S) =
    let (module M) = memory kind in
    (module Instrument
              (M)
              (struct
                let sink = sink
              end))

  type 'r outcome = {
    results : 'r option array;
    schedule : int list;
  }

  let run kind ?(sink = Sink.none) ?scheduler ?(max_steps = 10_000_000)
      ~procs program =
    match kind with
    | Sim ->
        let mem = (module Pram.Memory.Sim : Pram.Memory.S) in
        let driver =
          Pram.Driver.create ?observer:(Sink.observer sink) ~procs
            (program mem)
        in
        let sched =
          match scheduler with
          | Some s -> s
          | None -> Pram.Scheduler.round_robin ()
        in
        Pram.Scheduler.run ~max_steps sched driver;
        {
          results = Array.init procs (Pram.Driver.result driver);
          schedule = Pram.Driver.schedule driver;
        }
    | Direct ->
        let mem = instrumented Direct sink in
        let body = program mem () in
        let results =
          Array.init procs (fun p ->
              set_pid p;
              let r = body p in
              set_pid 0;
              Some r)
        in
        { results; schedule = [] }
    | Native ->
        let mem = instrumented Native sink in
        let body = program mem () in
        install_native_hooks sink;
        let results =
          Fun.protect
            ~finally:(fun () -> uninstall_native_hooks ())
            (fun () ->
              Pram.Native.run_parallel ~procs (fun p ->
                  set_pid p;
                  body p))
        in
        { results = Array.of_list (List.map Option.some results); schedule = [] }
end
