(** Windowed telemetry: the counter grid, a time-series sampler, and
    exporters.

    This library holds every count the repo keeps.  The paper prices
    each construction in shared-register reads and writes per process;
    production systems are diagnosed from the {e other} axis: what
    happened {e per time window}, and {e why} — a throughput collapse
    mid-run, one hot shard, a retry storm.  Both live on one grid:

    - {!Counters}: per-(pid, family) cache-line-padded event counters
      over a closed vocabulary ({!Event}) — register reads and writes
      (the paper's cost unit, fed by [Runtime.Sink]) and the mechanical
      causes of contention: double-collect restarts, seqlock retries,
      scan escalations, store batch fallbacks, store rebuilds, shard
      queue depth.  A family is the object-level attribution axis
      (shard index for the store, register family otherwise); each pid
      increments only its own cells, so recording is uncontended.
    - {!Stats} / {!Histogram}: exact nearest-rank summaries of integer
      samples (latencies, per-span access counts).
    - {!Sampler}: snapshots counter totals and a latency reservoir on a
      clock interval into a ring of fixed-width {!Window}s, giving
      per-window ops/sec, p50/p99 latency, and per-event deltas.
    - exporters: OpenMetrics/Prometheus text ({!Openmetrics}) and the
      windowed [series] rows of the bench JSON pipeline (emitted by
      [Experiments.Bench_json]).

    Everything follows the repo's off-by-default discipline: the grid
    rides in [Runtime.Sink] next to the tracing journal, handles cache
    the [Counters.t option] at attach time, and the [None] guard
    ({!record_opt}) is a single pattern match — zero accesses, zero
    allocation (pinned by the Gc-measured test in [test_tracing]). *)

(** Summary statistics of an integer sample.

    Percentile convention: {b nearest-rank}.  For a sample of [count]
    observations sorted ascending, the p99 is the value at 1-based rank
    [max 1 (ceil (0.99 * count))] — no interpolation.  Consequences
    worth knowing when reading reports: stats are only defined on
    non-empty samples ({!Histogram.stats} returns [None] when empty); on
    a singleton the p99, min, max and mean all equal the one
    observation; and for any [count < 100] the rank rounds up to
    [count], so the p99 equals the max. *)
module Stats : sig
  type t = {
    count : int;
    min : int;
    max : int;
    mean : float;
    p50 : int;  (** value at rank [max 1 (ceil 0.50*count)] (nearest-rank) *)
    p99 : int;  (** value at rank [max 1 (ceil 0.99*count)] (nearest-rank) *)
  }

  val pp : Format.formatter -> t -> unit
end

(** A growable sample of non-negative integer observations (latencies,
    per-span access counts).  Not thread-safe on its own. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val count : t -> int

  (** [merge hs] is a fresh histogram holding every observation of
      every [h] in [hs] — exact pooling, so the merged quantiles are
      those of the pooled sample. *)
  val merge : t list -> t

  (** [None] when empty. *)
  val stats : t -> Stats.t option
end

(** The named event classes: register reads and writes, and the
    mechanical causes a p99 regression is attributed to.  The vocabulary
    is closed on purpose: exporters, validators and the [top] renderer
    all enumerate {!all}. *)
module Event : sig
  type t =
    | Read
        (** one completed shared-register read — a step of the paper's
            cost model, fed by [Runtime.Sink] (driver observer on the
            simulator, [Runtime.Instrument] elsewhere) at family 0 *)
    | Write  (** one completed shared-register write, fed likewise *)
    | Double_collect_restart
        (** a double-collect pass observed a changed tag and retried
            (the lock-free baseline's unbounded loop) *)
    | Store_batch_fallback
        (** a store chunk was closed early because the next operation
            broke the commute/read-only check (Property 1 fallback) *)
    | Store_rebuild
        (** an incremental-memo invariant violation forced a full
            history rebuild in a store shard's construction *)
    | Shard_queue_depth
        (** operations drained from a per-key submit queue at flush,
            attributed to the serving shard — per-window deltas are the
            shard's queue throughput *)
    | Seqlock_retry
        (** a versioned-register read in [Pram.Native.Versioned]
            observed a slot older than its epoch anchor and retried
            (the [cpu_relax] back-off loop) *)
    | Scan_escalation
        (** an adaptive scan detected a concurrent writer or full
            collect during its validation window and fell back to the
            paper's double-collect passes *)
    | Classifier_descend
        (** a Lattice scan descended a generation-stamped classifier
            tree (once per attempt; more than one per scan means a
            generation fence forced a retry) *)

  val all : t list

  (** [List.length all]; also the length of every per-event array. *)
  val count : int

  (** A dense index in [0, count): the array key used throughout. *)
  val index : t -> int

  (** The stable snake_case name (OpenMetrics label value, bench-row
      metric suffix). *)
  val name : t -> string

  val of_name : string -> t option
  val pp : Format.formatter -> t -> unit
end

(** Monotone event counters on a [procs x families x events] grid of
    cache-line-padded atomics ([Padding.padded_atomic]).  Each pid is
    expected to bump only its own row, so increments are uncontended;
    reads from other domains are safe at any time (atomic, monotone). *)
module Counters : sig
  type t

  (** [create ~procs ()] allocates the grid; [families] defaults to 1
      (no object-level attribution).
      @raise Invalid_argument if [procs <= 0] or [families <= 0]. *)
  val create : ?families:int -> procs:int -> unit -> t

  val procs : t -> int
  val families : t -> int

  (** [record t ~pid ~family e] adds 1; {!add} adds [n] (useful for
      batch-sized events such as {!Event.Shard_queue_depth}).
      @raise Invalid_argument
        if [pid]/[family] is out of range or [n < 0]. *)
  val record : t -> pid:int -> family:int -> Event.t -> unit

  val add : t -> pid:int -> family:int -> Event.t -> int -> unit
  val get : t -> pid:int -> family:int -> Event.t -> int

  (** Aggregations over the grid. *)
  val total : t -> Event.t -> int

  val pid_total : t -> pid:int -> Event.t -> int
  val family_total : t -> family:int -> Event.t -> int

  (** All event totals at once, indexed by {!Event.index} — the
      snapshot the sampler diffs windows against. *)
  val totals : t -> int array

  (** Zero every cell.  Call only while recorders are quiescent. *)
  val reset : t -> unit
end

(** The free guards for instrumented hot paths: a single match on the
    cached option, nothing else on the [None] path. *)
val record_opt : Counters.t option -> pid:int -> family:int -> Event.t -> unit

val add_opt :
  Counters.t option -> pid:int -> family:int -> Event.t -> int -> unit

(** One closed sampling window. *)
module Window : sig
  type t = {
    index : int;  (** 0-based, contiguous within a run *)
    t_start : float;  (** seconds since sampler creation *)
    t_end : float;  (** [t_start +. interval], strictly increasing *)
    ops : int;  (** operations observed in this window *)
    latency : Stats.t option;
        (** per-operation latency (ns) observed in this window; [None]
            when the window saw no operations *)
    deltas : int array;
        (** counter increments during this window, by {!Event.index};
            non-negative because counters are monotone *)
  }

  val pp : Format.formatter -> t -> unit
end

(** The windowed sampler: feeds completed operations (with latency)
    into the current window and closes windows as the clock crosses
    interval boundaries, diffing {!Counters.totals} at each close.
    Thread-safe: any domain may {!observe}/{!tick} concurrently (one
    mutex; operations arrive at flush granularity, so contention is
    modest and never on the store's own hot path). *)
module Sampler : sig
  type t

  (** [create ~counters ()] starts the clock at creation time.
      [interval] (seconds, default [0.1]) is the fixed window width;
      [capacity] (default [4096]) bounds the ring — when it overflows,
      the oldest window is dropped (and counted in {!dropped}).
      [clock] defaults to [Unix.gettimeofday]; tests inject a manual
      clock for deterministic windows (the simulator has no real time).
      @raise Invalid_argument
        if [interval <= 0] or [capacity <= 0]. *)
  val create :
    ?clock:(unit -> float) ->
    ?interval:float ->
    ?capacity:int ->
    counters:Counters.t ->
    unit ->
    t

  val interval : t -> float

  (** [observe t ~latency_ns] files one completed operation into the
      current window (closing any windows the clock has passed).
      @raise Invalid_argument if [latency_ns < 0]. *)
  val observe : t -> latency_ns:int -> unit

  (** Close any windows the clock has passed without observing an
      operation — the live renderer's heartbeat. *)
  val tick : t -> unit

  (** Close the currently open window (even if the interval has not
      elapsed; its [t_end] is clamped to the interval grid so
      timestamps stay strictly increasing).  Call once, after every
      driving process has finished; later {!observe}/{!tick} calls
      raise [Invalid_argument]. *)
  val finish : t -> unit

  (** Closed windows, in chronological order. *)
  val windows : t -> Window.t list

  (** Windows lost to ring overflow (0 in any healthy run). *)
  val dropped : t -> int

  (** Operations observed since creation, dropped windows included —
      equals the sum of window [ops] exactly when [dropped = 0]. *)
  val total_ops : t -> int
end

(** An immutable rendering of a finished sampler — what the exporters
    and the bench pipeline consume. *)
module Series : sig
  type t = {
    interval : float;
    windows : Window.t list;
    dropped : int;
    total_ops : int;
  }

  val of_sampler : Sampler.t -> t
  val pp : Format.formatter -> t -> unit
end

(** OpenMetrics text exposition (the Prometheus scrape format), plus a
    minimal parser/linter so the round trip is checked by the repo's
    own code rather than asserted. *)
module Openmetrics : sig
  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  (** [render c] is the exposition text: one
      [wfa_event_total{event,pid,family}] counter sample per non-zero
      cell (plus a zero total per event so every class is always
      present), and — when [series] is given — per-window
      [wfa_window_*] gauges (ops, end-seconds, latency quantiles,
      event deltas).  Deterministic: fixed ordering, `# EOF`
      terminated. *)
  val render : ?series:Series.t -> Counters.t -> string

  (** Parse an exposition into samples; [Error] on any malformed line.
      Handles exactly the subset {!render} emits (metric families,
      `# TYPE`/`# HELP`/`# EOF` comments, quoted label values with
      backslash/quote/newline escapes). *)
  val parse : string -> (sample list, string) result

  (** The lint gate: {!parse} succeeds, every sample's family was
      declared by a preceding `# TYPE`, metric and label names are
      valid OpenMetrics identifiers, no (name, labels) pair repeats,
      every value is finite, and the text ends with `# EOF`.  Returns
      the sample count. *)
  val lint : string -> (int, string) result
end
