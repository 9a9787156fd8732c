(** Seeded workload and schedule generators for tests, benches and the
    CLI.  Everything is deterministic in its seed, so experiment rows
    are reproducible end to end. *)

type 'op script = int -> 'op list
(** A script assigns each process its operation list.  Each pid's list is
    a pure function of [(seed, pid)] — in particular it does not depend
    on the order in which pids are first queried — and is memoized, so
    repeated queries return the same (physically equal) list. *)

val counter_script :
  seed:int -> ops_per_proc:int -> Spec.Counter_spec.operation script

val gset_script :
  seed:int -> ops_per_proc:int -> Spec.Gset_spec.operation script

(** Zipfian key popularity: rank [i] (1-based) has weight [1/i^theta];
    [theta = 0] is uniform, [~0.99] the YCSB-style hot-key skew.
    Sampling is O(log keys) binary search over a precomputed CDF. *)
module Zipf : sig
  type t

  (** @raise Invalid_argument if [keys <= 0] or [theta < 0]. *)
  val make : keys:int -> theta:float -> t

  val keys : t -> int

  (** A rank in [0, keys), drawn from the given state. *)
  val sample : t -> Random.State.t -> int
end

(** The stable name of key rank [i] (["k0007"] style), shared by every
    keyed script so harnesses can reconstruct per-key expectations. *)
val key_name : int -> string

(** Keyed traffic scripts: each operation targets a zipfian-drawn key;
    reads appear with probability [read_fraction], the rest are
    commuting mutators (counter: [Inc]/[Dec]; gset: [Add]) — the class
    the store's batching folds.  Pure in [(seed, pid)] like the flat
    scripts.
    @raise Invalid_argument if [read_fraction] is outside [0, 1]. *)
val keyed_counter_script :
  seed:int ->
  keys:int ->
  theta:float ->
  read_fraction:float ->
  ops_per_proc:int ->
  (string * Spec.Counter_spec.operation) script

val keyed_gset_script :
  seed:int ->
  keys:int ->
  theta:float ->
  read_fraction:float ->
  ops_per_proc:int ->
  (string * Spec.Gset_spec.operation) script

(** The traffic front-end: drives one process's keyed operation stream
    against a store-like consumer through [submit]/[flush] closures
    (keeping this module independent of the object layer), measuring
    throughput and per-operation latency. *)
module Traffic : sig
  (** [Closed] issues the next operation as soon as the previous flush
      returns; [Open {rate}] schedules arrivals at [rate] operations per
      second and measures latency from the {e scheduled} arrival, so
      backlog when the system falls behind is charged to the system
      (the coordinated-omission correction). *)
  type loop = Closed | Open of { rate : float }

  type report = {
    ops : int;  (** operations completed *)
    elapsed : float;  (** wall-clock seconds for the whole stream *)
    throughput : float;  (** ops / elapsed *)
    latency : Telemetry.Stats.t option;
        (** per-operation latency in nanoseconds, measured at flush
            granularity (an operation completes when the flush containing
            it returns); [None] when no operation ran *)
    samples : Telemetry.Histogram.t;
        (** the raw latency observations [latency] summarizes *)
  }

  (** [drive ~ops ~submit ~flush ()] pushes each [(key, op)] through
      [submit] and calls [flush] every [flush_every] submissions
      (default 64 — the effective batch-size ceiling) and once at the
      end.  Wall-clock based: meaningful on the native/direct backends.
      [telemetry], when given, receives every completed operation's
      latency via [Telemetry.Sampler.observe] at flush granularity —
      share one sampler across the driving processes to get one
      per-window time series for the whole run ([None] costs one
      pattern match per operation and nothing else).
      @raise Invalid_argument
        if [flush_every <= 0] or an open-loop rate is not positive. *)
  val drive :
    ?telemetry:Telemetry.Sampler.t ->
    ?loop:loop ->
    ?flush_every:int ->
    ops:(string * 'op) list ->
    submit:(string -> 'op -> unit) ->
    flush:(unit -> unit) ->
    unit ->
    report

  (** Merge per-process reports: ops summed, elapsed = the slowest
      process (the parallel span), throughput over that span; latency
      is computed over the pooled samples of every report, so the
      merged p50/p99/mean describe all operations.
      @raise Invalid_argument on an empty list. *)
  val merge : report list -> report
end

(** Inputs for approximate agreement: [procs] values spanning exactly
    [0, delta]. *)
val agreement_inputs : seed:int -> procs:int -> delta:float -> float array

type schedule_kind =
  | Round_robin
  | Uniform of int  (** uniformly random; the int is the seed *)
  | Crashy of int
      (** uniform with 5% crash probability, at least one survivor *)
  | Bursty of int
      (** geometric bursts of one process at a time — adversarial for
          algorithms that rely on interleaving *)

val scheduler_of : schedule_kind -> 'r Pram.Scheduler.t
val pp_schedule_kind : Format.formatter -> schedule_kind -> unit

(** Round-robin plus [seeds] each of uniform, bursty and crashy — the
    standard mix behind "measured worst case" columns. *)
val standard_schedules : seeds:int -> schedule_kind list
