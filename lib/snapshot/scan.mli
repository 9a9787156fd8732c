(** The atomic scan of Section 6 (Figure 5): a wait-free linearizable
    join-semilattice accumulator over an n x (n+2) grid of single-writer
    registers.

    The object has two operations (Section 6): [Write_l v], which folds
    [v] into the abstract join (discarding the scan's internal value),
    and [Read_max], which returns the join of all earlier writes.  Any
    two internal scan values are lattice-comparable (Lemma 32), which
    yields linearizability (Theorem 33).

    NOTE: the combined primitive [scan] — contribute and read the join
    atomically — is strictly stronger than the paper's object and is NOT
    linearizable as a single operation; use [write_l] / [read_max] for
    the linearizable object.  (The test suite exhibits a concrete
    counterexample; see test/test_snapshot.ml.) *)

type variant =
  | Plain  (** exactly Figure 5's counted cost: n^2+n+1 reads, n+2 writes *)
  | Optimized
      (** the Section 6.2 optimizations: n^2-1 reads, n+1 writes
          (own-row mirroring and no final write) *)
  | Adaptive
      (** contention-adaptive: publish, collect column 0 once, and
          validate against the epoch and escalation vectors — 4(n-1)
          reads and at most one write when no writer interferes,
          escalating to the [Optimized] passes (and the paper's proof)
          when one does.  Sound when all concurrent readers of the
          object use [Adaptive]; see DESIGN.md section 14. *)
  | Lattice
      (** sub-quadratic even under contention: each scan announces a
          fresh generation, collects column 0, and descends that
          generation's write-once classifier tree (Attiya-Rachman; the
          one-shot [Lattice_agreement.Classifier] made multi-shot by
          stamping a bounded pool of trees with the generation), mapping
          the agreed pid-set back to the contributors' entry values —
          2(n-1) + n ceil(log2 n) reads and ceil(log2 n) + 3 writes per
          scan, with no contention escalation path.  Sound when all
          concurrent readers of the object use [Lattice]; see DESIGN.md
          section 15. *)

(** Raised internally by the adaptive fast path; never escapes [scan]. *)
exception Escalate

(** Classifier-tree depth of the [Lattice] variant: [ceil(log2 procs)].
    The per-scan lattice cost is [2(procs-1) + lattice_levels * procs]
    reads and [lattice_levels + 3] writes. *)
val lattice_levels : procs:int -> int

(** Size of the [Lattice] variant's classifier-tree pool: generation [g]
    descends tree [g mod lattice_pool], so live memory is
    O(procs log procs) registers per generation while generations run
    unbounded. *)
val lattice_pool : int

module Make (L : Semilattice.S) (M : Pram.Memory.VERSIONED) : sig
  type t

  (** Allocate the grid (plus the per-process escalation flags the
      [Adaptive] variant validates against) for [procs] processes.
      @raise Invalid_argument if [procs <= 0]. *)
  val create : procs:int -> t

  type handle
  (** One process's session with the object: pid, private row mirror,
      adaptive validation scratch, and instrumentation, all drawn from
      the attached context. *)

  (** [attach t ctx] mints the handle process [Ctx.pid ctx] uses for
      every operation on [t].  If the context carries a journal, each
      scan is bracketed as a ["scan"] span with one annotation per pass;
      a sink-less context costs nothing — dispatch happens
      before any span closure is built, so the unobserved adaptive fast
      path allocates nothing at all.  Escalations are reported to the
      context's telemetry counters as [Scan_escalation] at family 0,
      and each [Lattice] descent as [Classifier_descend].

      [retries] (default 2) bounds how many times an [Adaptive] scan
      re-runs the cheap collect before escalating: under transient
      contention a second attempt usually validates, cutting the
      escalation rate without touching the uncontended cost.
      @raise Invalid_argument
        if the context pid exceeds [t]'s procs or [retries < 1]. *)
  val attach : ?retries:int -> t -> Runtime.Ctx.t -> handle

  (** The raw Scan(P, v) primitive of Figure 5: fold [v] into P's row
      and return the accumulated join.  Building block for [write_l] and
      [read_max]; not itself atomic (see above). *)
  val scan : ?variant:variant -> handle -> L.t -> L.t

  (** Contribute a value to the join (the object's write operation).
      Under [Adaptive] and [Lattice] this is the bare publish — one
      column-0 write, zero when the contribution is already contained
      in the published value — since a write needs no return value. *)
  val write_l : ?variant:variant -> handle -> L.t -> unit

  (** Return the join of all earlier contributions (the object's read
      operation).  Under [Adaptive] the bottom contribution is always
      contained, so an uncontended read costs 4(n-1) reads and no
      write; under [Lattice] the publish is likewise skipped. *)
  val read_max : ?variant:variant -> handle -> L.t
end

(** Exact per-Scan access counts of Section 6.2: [(reads, writes)] for
    one Scan among [procs] processes.  Experiment E5 checks measured
    executions against these as equalities.  The [Adaptive] row is the
    uncontended fast path of [scan] (4 reads per peer — escalation
    flag, versioned collect, epoch recheck, flag recheck — plus the
    column-0 publish); a contended scan escalates and additionally pays
    the [Optimized] passes plus two escalation-flag writes.  [read_max]
    skips the write and [write_l] skips the collect, so each costs
    strictly less than the combined formula.

    The [Lattice] row — [2(procs-1) + lattice_levels * procs] reads,
    [lattice_levels + 3] writes (publish, generation announce, per-level
    classifier posts, republish) — holds contended or not: every loop in
    the descent has a fixed trip count, and a workload of one scan per
    process never opens a second generation, so the generation fence
    never forces a retry.  E17 locates the contended crossover against
    [Optimized] (procs >= 4) and [Adaptive]. *)
val cost_formula : procs:int -> variant -> int * int
