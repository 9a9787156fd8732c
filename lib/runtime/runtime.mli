(** Per-process execution contexts: one object for pid, memory backend,
    observability, and randomness.

    The asynchronous PRAM model is "a process with an identity executing
    against a memory".  {!Ctx} bundles that identity with its
    cross-cutting companions: construct one context per process at
    session start, mint an algorithm {e handle} from it
    ([X.attach obj ctx]), and every subsequent operation call carries no
    cross-cutting arguments.

    Three design rules hold throughout:

    - {b Off by default is free}: a context with no sink performs no
      accesses and allocates nothing on any instrumentation path (the
      Gc-measured test in [test_tracing] pins this down).
    - {b One pid authority}: a single domain-local {!set_pid} serves
      every instrumentation consumer.
    - {b One instrumentation path}: {!Sink} feeds a single access stream
      to its two consumers — the telemetry counter grid (every count)
      and the tracing journal (the one ordered record) — whether the
      stream originates from the simulator driver ({!Sink.observer}) or
      from the one memory wrapper ({!Instrument}). *)

(** {1 Pid attribution} *)

(** Set the calling domain's pid for {!Instrument} attribution (default
    0).  Native harnesses call it once at the top of each domain body —
    {!Backend.run} does so automatically.  Simulator code never needs
    it: fibers share one domain, and the driver observer attributes by
    firing schedule instead. *)
val set_pid : int -> unit

val current_pid : unit -> int

(** {1 Deterministic randomness} *)

module Rng : sig
  (** [state ~seed ~pid] is the deterministic per-process random state:
      a pure function of [(seed, pid)], so workloads are reproducible
      regardless of the order in which harnesses visit pids.  (This is
      the formula [Workload] has always used; it lives here so contexts
      and workload scripts draw from the same stream definition.) *)
  val state : seed:int -> pid:int -> Random.State.t
end

(** {1 The observer sink} *)

(** The two consumers of the shared-memory access stream: a telemetry
    counter grid and a tracing journal, each optional.  Reads and writes
    land in the grid as {!Telemetry.Event.Read} / [Write] at family 0 of
    the acting pid's row; with a journal attached each access is also
    journalled as an [Access] event. *)
module Sink : sig
  type t

  (** The empty sink: observing nothing, costing nothing. *)
  val none : t

  val make :
    ?journal:Tracing.Journal.t -> ?telemetry:Telemetry.Counters.t -> unit -> t

  val journal : t -> Tracing.Journal.t option

  (** The counter grid: reads and writes are counted here, and
      instrumented algorithms cache it at attach time to bump event
      cells ([double_collect_restart], [store_batch_fallback], ...)
      through the free {!Telemetry.record_opt} guard. *)
  val telemetry : t -> Telemetry.Counters.t option

  (** The streaming hook for [Pram.Driver.create ?observer]: [None] when
      the sink is empty (so an observer-less driver stays on its free
      path), otherwise one callback feeding both consumers. *)
  val observer : t -> (Pram.Trace.access -> unit) option
end

(** [Instrument (M) (S)] is backend [M] with every completed access fed
    to [S.sink], attributed to the calling domain's {!set_pid} — the one
    memory wrapper.  Use it over [Direct] or [Native.Mem]; under
    [Memory.Sim] use the driver observer instead (a wrapper sees an
    access at invocation, not firing, time).  Registers are numbered by
    the wrapper, atomically, so it is safe over native domains. *)
module Instrument (M : Pram.Memory.S) (S : sig
  val sink : Sink.t
end) : sig
  include Pram.Memory.S

  (** Registers created through this instantiation so far — the
      register footprint of whatever was built over it. *)
  val registers_created : unit -> int
end

(** {1 The per-process context} *)

module Ctx : sig
  type t

  (** [make ~procs ~pid ()] builds the context process [pid] carries for
      a session among [procs] processes.  [sink] defaults to
      {!Sink.none} (instrumentation off, zero overhead); [seed] defaults
      to [0] and determines {!rng}.
      @raise Invalid_argument
        if [procs <= 0] or [pid] is out of range. *)
  val make : ?sink:Sink.t -> ?seed:int -> procs:int -> pid:int -> unit -> t

  val pid : t -> int
  val procs : t -> int
  val sink : t -> Sink.t

  (** The journal / counter grid attached to this context's sink, if
      any.  Handles cache these at attach time so per-access hot loops
      can guard with a single allocation-free [match]. *)
  val journal : t -> Tracing.Journal.t option

  val telemetry : t -> Telemetry.Counters.t option

  (** This process's deterministic random state: {!Rng.state} on
      [(seed, pid)], built lazily and cached, so contexts that never
      draw randomness allocate no state. *)
  val rng : t -> Random.State.t

  (** {2 Instrumentation helpers}

      Each is free without a journal: the [None] path is a pattern
      match, with no access and no allocation. *)

  (** [span t ~op f] brackets [f ()] as operation [op] in the journal
      (Invoke/Response events); per-span access counts are derived from
      the journal afterwards ({!Tracing.span_stats}). *)
  val span : t -> op:string -> (unit -> 'a) -> 'a

  (** Free-form journal mark (e.g. ["round 3"]); no-op without a
      journal. *)
  val annotate : t -> string -> unit

  (** Like {!annotate} with a format string; on the no-journal path the
      message is never rendered.  [ikfprintf] still builds small
      per-argument closures, so per-access hot loops should guard with
      an explicit [match] on {!journal} instead (see [Snapshot.Scan]'s
      pass loop). *)
  val annotatef : t -> ('a, unit, string, unit) format4 -> 'a
end

(** {1 Native observation hooks} *)

(** Point [Pram.Native]'s observation hook ([on_seqlock_retry]) at
    [sink]'s telemetry counters, attributing each event to the calling
    domain's {!current_pid} at family 0.
    [Pram] sits below the telemetry library, so the wiring is injected
    here rather than imported there.  {!Backend.run} installs/uninstalls
    around every [Native] run; call it directly only when driving
    [Pram.Native.run_parallel] by hand.  A sink without a telemetry half
    resets the hook to a no-op. *)
val install_native_hooks : Sink.t -> unit

val uninstall_native_hooks : unit -> unit

(** {1 The backend registry} *)

(** The three execution backends, each with its canonical instrumented
    variant, behind one table — so the CLI, the bench pipeline and the
    experiments select backends by name instead of duplicating match
    arms. *)
module Backend : sig
  type kind =
    | Sim  (** effect-handler fibers under {!Pram.Driver} *)
    | Direct  (** immediate accesses, sequential *)
    | Native  (** [Atomic] cells, one OCaml domain per process *)

  val all : kind list
  val name : kind -> string
  val of_name : string -> kind option
  val pp : Format.formatter -> kind -> unit

  (** The uninstrumented memory module for a backend. *)
  val memory : kind -> (module Pram.Memory.S)

  (** The result of one multi-process run: per-pid results ([None] for a
      process that was crashed or never ran to completion) and, on the
      simulator, the fired schedule (empty for the other backends). *)
  type 'r outcome = {
    results : 'r option array;
    schedule : int list;
  }

  (** [run kind ~procs program] executes [program mem () pid] for each
      pid on the chosen backend, with the sink attached the canonical
      way: driver observer under [Sim], {!Instrument}-wrapped memory
      under [Direct]/[Native] (where each body's pid is {!set_pid}
      before it runs).  [scheduler] (default round-robin) and
      [max_steps] (default 1e7; watchdog, see {!Pram.Scheduler.run})
      apply to [Sim] only.  [program] receives the memory module first
      so one functor application serves all backends. *)
  val run :
    kind ->
    ?sink:Sink.t ->
    ?scheduler:'r Pram.Scheduler.t ->
    ?max_steps:int ->
    procs:int ->
    ((module Pram.Memory.S) -> unit -> int -> 'r) ->
    'r outcome
end
