(* The atomic scan of Section 6 (Figure 5).

   Processes share an n x (n+2) grid of single-writer registers holding
   join-semilattice elements; process P alone writes row scan[P][.].
   [Scan(P, v)] folds v into P's row and returns the join of everything
   written "so far":

     scan[P][0] := v \/ scan[P][0]
     for i in 1..n+1 do
       for Q in 1..n do
         scan[P][i] := scan[P][i] \/ scan[Q][i-1]
     return scan[P][n+1]

   Lemma 32 shows any two returned values are comparable in the lattice,
   which yields linearizability (Theorem 33).

   Cost accounting (Section 6.2).  The paper counts one read and one write
   for line 2, plus n reads and ONE write per pass — i.e. each pass
   accumulates the joins locally and publishes once.  We implement exactly
   that, in four variants ([Lattice], the sub-quadratic one, is
   documented at [scan_lattice] below and in DESIGN.md section 15):

   - [Plain]:     n^2 + n + 1 reads, n + 2 writes per Scan;
   - [Optimized]: n^2 - 1 reads, n + 1 writes per Scan, by (a) mirroring
     the process's own row locally instead of re-reading it (sound:
     single-writer), and (b) skipping the final write to scan[P][n+1],
     which no other process ever reads;
   - [Adaptive]:  a contention-adaptive fast path over the versioned
     column-0 registers — 4(n-1) reads and at most 1 write when no writer
     interferes, escalating to the [Optimized] passes (and the paper's
     proof) when one does.  See DESIGN.md section 14 for the full
     linearization argument; the shape is:

       publish own contribution into scan[P][0]
       read every peer's escalation flag          (abort if any is odd)
       collect every peer's scan[Q][0] with its epoch
       re-read every peer's epoch                 (abort if any moved)
       re-read every escalation flag              (abort if any moved)
       return the join of the collected column

     If both validations pass, no column-0 write and no full collect
     overlapped the window between the first collect and the last
     re-read, so the collected column is an instantaneous cut S(tau) of
     column 0: column-0 registers are monotone in the lattice, so any
     two cuts are comparable, a full scan that finished before tau
     returns a value below S(tau) (every grid register holds a join of
     column-0 values that had already arrived), and a full scan that
     starts after tau reads the whole column afresh in its first pass.
     The escalation flags (esc[Q], odd while Q runs full passes,
     bumped twice per escalation) exclude exactly the remaining case —
     a full collect overlapping the window.  Escalated scans and
     [Adaptive] write_l publishes are indistinguishable from the
     paper's processes (a publish is a Scan that stopped after line 2,
     which the asynchronous model already allows), so mixed executions
     inherit Lemma 32 unchanged.

     Soundness requires concurrent readers of one object to use
     [Adaptive] (or no variant mixing at all): a raw [Plain]/[Optimized]
     read_max does not announce its passes in esc[.], so a concurrent
     adaptive fast path cannot detect it.  Writers ([write_l]) mix
     freely.

   Per-process state lives in a [handle] minted from a [Runtime.Ctx]:
   the pid, the process's private row mirror, scratch rows for the
   adaptive validation, and the cached journal/telemetry options for the
   hot-loop guards.  The untraced ([Sink.none]) fast path allocates
   nothing: dispatch happens before any span closure is built, the
   collect accumulates through tail recursion instead of a [ref] cell,
   and versioned reads return the backend's stored observation. *)

type variant =
  | Plain
  | Optimized
  | Adaptive
  | Lattice

exception Escalate

(* Classifier-tree depth for the [Lattice] variant: the smallest l with
   2^l >= procs, i.e. ceil(log2 procs) — the depth of the Attiya-Rachman
   classifier tree (see Lattice_agreement). *)
let lattice_levels ~procs =
  let rec go l = if 1 lsl l >= procs then l else go (l + 1) in
  go 0

(* Trees live in a bounded pool indexed by generation mod this size, so
   memory stays O(procs log procs) registers per live generation while
   the generation counter runs unbounded.  Stale stamps are ignored by
   [Stamped_slot.peek], and the generation fence (see [scan_lattice])
   retries any scan whose tree was recycled under it. *)
let lattice_pool = 4

module Make (L : Semilattice.S) (M : Pram.Memory.VERSIONED) = struct
  module Slot = Pram.Memory.Stamped_slot (M)

  (* A classifier-slot payload: the per-pid map from contributor to its
     generation entry value W (the join of everything that contributor
     had absorbed when it entered the generation).  Within one
     generation a pid's entry value is fixed, so merging two maps never
     conflicts; the map's domain is the agreed pid-SET and its range
     joins back to the snapshot value — the "agreed pid-sets to register
     values" mapping. *)
  type wmap = L.t option array

  type t = {
    procs : int;
    grid : L.t M.reg array array;  (* grid.(p).(i), i in 0 .. procs+1 *)
    esc : int M.reg array;
        (* esc.(p): odd while process p runs escalated full passes;
           bumped twice per escalation, so equality across an adaptive
           window proves no full collect overlapped it *)
    mirror : L.t array array;
        (* mirror.(p) is process p's private copy of its own row; row p is
           only ever touched by process p, so this is process-local state
           stored alongside the shared object for convenience. *)
    levels : int;  (* lattice_levels ~procs *)
    gen : int M.reg array;
        (* gen.(p): process p's current Lattice generation, announced
           BEFORE p reads anything generation-scoped (the doorway); it
           is monotone per process, so the post-return fence below can
           detect any concurrent later generation *)
    pool : wmap Slot.slot array array array array;
        (* pool.(g mod lattice_pool).(depth).(index).(pid): the
           generation-stamped classifier trees.  Slot (v, pid) is
           written only by pid (single-writer), at most once per
           generation (each descent visits a vertex once). *)
  }

  let create ~procs =
    if procs <= 0 then invalid_arg "Scan.create: procs must be positive";
    let levels = lattice_levels ~procs in
    {
      procs;
      grid =
        Array.init procs (fun p ->
            Array.init (procs + 2) (fun i ->
                M.create ~name:(Printf.sprintf "scan[%d][%d]" p i) L.bottom));
      esc =
        Array.init procs (fun p ->
            M.create ~name:(Printf.sprintf "scan.esc[%d]" p) 0);
      mirror = Array.init procs (fun _ -> Array.make (procs + 2) L.bottom);
      levels;
      gen =
        Array.init procs (fun p ->
            M.create ~name:(Printf.sprintf "scan.gen[%d]" p) 0);
      pool =
        Array.init lattice_pool (fun k ->
            Array.init levels (fun d ->
                Array.init (1 lsl d) (fun i ->
                    Array.init procs (fun p ->
                        Slot.make
                          ~name:
                            (Printf.sprintf "scan.la%d[%d][%d][%d]" k d i p)
                          ()))));
    }

  type handle = {
    obj : t;
    pid : int;
    ctx : Runtime.Ctx.t;
    journal : Tracing.Journal.t option;
        (* cached from [ctx] at attach time so the per-pass hot loop can
           guard on it with a single allocation-free match, and [scan]
           skips the span bracket without one — the unobserved path
           never builds a closure *)
    tel : Telemetry.Counters.t option;
        (* cached (and range-checked) at attach: escalations bump
           [Scan_escalation] through the free [record_opt] guard *)
    eps : int array;  (* scratch: collected column-0 epochs, by pid *)
    escs : int array;  (* scratch: collected escalation flags, by pid *)
    mutable esc_next : int;  (* private mirror of esc.(pid) *)
    retries : int;
        (* [Adaptive]: fast-collect attempts before escalating *)
    mutable own_gen : int;  (* private mirror of gen.(pid) *)
  }

  let attach ?(retries = 2) obj ctx =
    if retries < 1 then invalid_arg "Scan.attach: retries must be >= 1";
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf "Scan.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    let tel =
      match Runtime.Ctx.telemetry ctx with
      | Some c when pid < Telemetry.Counters.procs c -> Some c
      | _ -> None
    in
    {
      obj;
      pid;
      ctx;
      journal = Runtime.Ctx.journal ctx;
      tel;
      eps = Array.make obj.procs 0;
      escs = Array.make obj.procs 0;
      esc_next = 0;
      retries;
      own_gen = 0;
    }

  let scan_plain h v =
    let t = h.obj in
    let n = t.procs in
    let row = t.grid.(h.pid) in
    let mir = t.mirror.(h.pid) in
    (* line 2: 1 read + 1 write *)
    let v0 = L.join v (M.read row.(0)) in
    M.write row.(0) v0;
    mir.(0) <- v0;
    (* n+1 passes of n reads + 1 write each *)
    for i = 1 to n + 1 do
      (* inline guard, not Ctx.annotatef: this is the per-pass hot loop,
         and the match keeps the untraced path at literally zero extra
         allocation (ikfprintf builds small per-argument closures) *)
      (match h.journal with
      | None -> ()
      | Some j ->
          Tracing.Journal.annotate j ~pid:h.pid
            (Printf.sprintf "scan pass %d/%d" i (n + 1)));
      let acc = ref mir.(i) in
      for q = 0 to n - 1 do
        acc := L.join !acc (M.read t.grid.(q).(i - 1))
      done;
      M.write row.(i) !acc;
      mir.(i) <- !acc
    done;
    mir.(n + 1)

  (* The Section 6.2 pass loop, shared by [scan_optimized] and the
     adaptive escalation (which has already published its contribution
     into column 0 via the mirror). *)
  let passes_optimized h =
    let t = h.obj in
    let n = t.procs in
    let row = t.grid.(h.pid) in
    let mir = t.mirror.(h.pid) in
    for i = 1 to n + 1 do
      (* inline guard, not Ctx.annotatef: this is the per-pass hot loop,
         and the match keeps the untraced path at literally zero extra
         allocation (ikfprintf builds small per-argument closures) *)
      (match h.journal with
      | None -> ()
      | Some j ->
          Tracing.Journal.annotate j ~pid:h.pid
            (Printf.sprintf "scan pass %d/%d" i (n + 1)));
      (* own column contributes via the mirror; peers via shared reads *)
      let acc = ref (L.join mir.(i) mir.(i - 1)) in
      for q = 0 to n - 1 do
        if q <> h.pid then acc := L.join !acc (M.read t.grid.(q).(i - 1))
      done;
      if i <= n then begin
        M.write row.(i) !acc;
        mir.(i) <- !acc
      end
      else mir.(i) <- !acc
    done;
    mir.(n + 1)

  let scan_optimized h v =
    let t = h.obj in
    let row = t.grid.(h.pid) in
    let mir = t.mirror.(h.pid) in
    let v0 = L.join v mir.(0) in
    M.write row.(0) v0;
    mir.(0) <- v0;
    passes_optimized h

  (* Publish the contribution into the process's column-0 register via
     the mirror.  Skipped when the join is already contained in the
     published value — sound (the abstract state is unchanged) and
     essential: it keeps concurrent [read_max]s, whose contribution is
     bottom, from bumping each other's epochs into escalation. *)
  let publish h v =
    let mir = h.obj.mirror.(h.pid) in
    let v0 = L.join v mir.(0) in
    if not (L.equal v0 mir.(0)) then begin
      M.write h.obj.grid.(h.pid).(0) v0;
      mir.(0) <- v0
    end

  (* Tail-recursive so the fast path allocates no [ref] cell. *)
  let rec collect_column0 t h n q acc =
    if q >= n then acc
    else if q = h.pid then collect_column0 t h n (q + 1) acc
    else begin
      let pv = M.read_versioned t.grid.(q).(0) in
      h.eps.(q) <- M.version pv;
      collect_column0 t h n (q + 1) (L.join acc (M.value pv))
    end

  (* One fast attempt: collect column 0 under the epoch/escalation
     validation protocol.  Raises [Escalate] on any detected writer. *)
  let attempt_fast h =
    let t = h.obj in
    let n = t.procs in
    (* escalation pre-read: anyone mid-full-collect defeats the window *)
    for q = 0 to n - 1 do
      if q <> h.pid then begin
        let e = M.read t.esc.(q) in
        if e land 1 = 1 then raise_notrace Escalate;
        h.escs.(q) <- e
      end
    done;
    let acc = collect_column0 t h n 0 t.mirror.(h.pid).(0) in
    (* epoch revalidation: a moved epoch means a write landed inside the
       window and the collect may not be a cut *)
    for q = 0 to n - 1 do
      if q <> h.pid && M.epoch t.grid.(q).(0) <> h.eps.(q) then
        raise_notrace Escalate
    done;
    (* escalation revalidation: exact equality also catches a full
       collect that started and finished entirely inside the window *)
    for q = 0 to n - 1 do
      if q <> h.pid && M.read t.esc.(q) <> h.escs.(q) then
        raise_notrace Escalate
    done;
    acc

  (* Writer detected: announce the full collect in esc.(pid) (odd while
     running), then fall back to the paper's passes — from here on the
     execution is exactly a Section 6 Scan and Lemma 32 applies. *)
  let escalate h =
    Telemetry.record_opt h.tel ~pid:h.pid ~family:0
      Telemetry.Event.Scan_escalation;
    (match h.journal with
    | None -> ()
    | Some j ->
        Tracing.Journal.annotate j ~pid:h.pid "scan escalate: writer detected");
    h.esc_next <- h.esc_next + 1;
    M.write h.obj.esc.(h.pid) h.esc_next;
    let r = passes_optimized h in
    h.esc_next <- h.esc_next + 1;
    M.write h.obj.esc.(h.pid) h.esc_next;
    r

  (* Bounded retry: the cheap collect is re-run up to [h.retries] times
     before paying for the Optimized passes — a single racing writer
     invalidates one window, not the whole fast path.  A module-level
     function (not a local [let rec]) so the uncontended path builds no
     closure; the zero-allocation test in test_tracing pins this. *)
  let rec attempt_bounded h k =
    match attempt_fast h with
    | acc -> acc
    | exception Escalate ->
        if k > 1 then attempt_bounded h (k - 1) else escalate h

  let scan_adaptive h v =
    publish h v;
    if h.obj.procs = 1 then h.obj.mirror.(h.pid).(0)
    else attempt_bounded h h.retries

  (* --- the Lattice variant ------------------------------------------- *)

  (* Threshold of classifier vertex (depth d, index i): the midpoint of
     its interval of [0, procs] after d binary splits — identical to
     Lattice_agreement.Classifier, so the per-generation tree is exactly
     the model-checked one-shot classifier. *)
  let threshold ~procs ~depth ~index =
    let width =
      float_of_int procs /. float_of_int (1 lsl (depth + 1))
    in
    let lo =
      float_of_int procs *. float_of_int index /. float_of_int (1 lsl depth)
    in
    lo +. width

  (* One Scan in O(n log n) accesses, contended or not (DESIGN.md §15):

       publish own contribution into scan[P][0]             (<= 1 write)
       announce a fresh generation g in gen[P]              (1 write)
       collect column 0 into the entry value W              (n-1 reads)
       descend the generation-g classifier tree with the
         singleton map {P -> W}; each vertex: post own map,
         peek all n slots, union the same-generation maps,
         go right (adopting the union) iff its domain size
         exceeds the vertex threshold                       (log n x (n reads + 1 write))
       R := join of the final map's range
       fold R back into scan[P][0]                          (1 write)
       fence: re-read every gen[Q]; if any generation above
         g appeared, retry from the announce with W := R    (n-1 reads)
       return R

     Within a generation the tree is the one-shot classifier over the
     write-once (per stamp) slots, so agreed maps — and hence their
     joined values — are pairwise comparable.  Across generations the
     announce-before-collect doorway and the publish-before-fence order
     close the race: either a finishing scan sees the later generation
     in its fence and retries into it, or the later scan's collect
     (which runs after its announce) sees the finished scan's result in
     column 0.  Retries are bounded by concurrent generation advances
     (none when uncontended; the committed bench schedules take none),
     and every access count above is otherwise a fixed loop, so the
     formula holds contended or not. *)
  let scan_lattice h v =
    publish h v;
    let t = h.obj in
    let n = t.procs in
    if n = 1 then t.mirror.(h.pid).(0)
    else begin
      let rec attempt ~target w =
        Telemetry.record_opt h.tel ~pid:h.pid ~family:0
          Telemetry.Event.Classifier_descend;
        (* doorway: announce the generation before reading anything
           generation-scoped *)
        let g = max (h.own_gen + 1) target in
        h.own_gen <- g;
        M.write t.gen.(h.pid) g;
        (match h.journal with
        | None -> ()
        | Some j ->
            Tracing.Journal.annotate j ~pid:h.pid
              (Printf.sprintf "lattice descend: generation %d" g));
        (* entry value: everything already absorbed, own row mirror, and
           a fresh column-0 collect (run after the announce — the fence
           argument needs collects of later generations to see earlier
           generations' published results) *)
        let w = ref (L.join w t.mirror.(h.pid).(0)) in
        for q = 0 to n - 1 do
          if q <> h.pid then w := L.join !w (M.read t.grid.(q).(0))
        done;
        let tree = t.pool.(g mod lattice_pool) in
        let own = Array.make n None in
        own.(h.pid) <- Some !w;
        let m = ref own in
        let index = ref 0 in
        for depth = 0 to t.levels - 1 do
          let vx = tree.(depth).(!index) in
          Slot.post vx.(h.pid) ~stamp:g !m;
          let u = Array.copy !m in
          for q = 0 to n - 1 do
            match Slot.peek vx.(q) ~stamp:g with
            | Some mq ->
                Array.iteri
                  (fun r wr ->
                    (* a pid's entry value is fixed within a generation,
                       so first-wins merging loses nothing *)
                    match (wr, u.(r)) with
                    | Some _, None -> u.(r) <- wr
                    | _ -> ())
                  mq
            | None -> ()
          done;
          let cardinal = ref 0 in
          Array.iter (function Some _ -> incr cardinal | None -> ()) u;
          let k = threshold ~procs:n ~depth ~index:!index in
          if float_of_int !cardinal > k then begin
            m := u;
            index := (2 * !index) + 1
          end
          else index := 2 * !index
        done;
        (* map the agreed pid-set back to values: join the entry value
           of every agreed contributor *)
        let r =
          Array.fold_left
            (fun acc entry ->
              match entry with Some wq -> L.join acc wq | None -> acc)
            L.bottom !m
        in
        (* publish the result into own column 0 (unconditionally — the
           access count must not depend on containment), so any later
           generation's collect absorbs it *)
        let mir = t.mirror.(h.pid) in
        let v0 = L.join r mir.(0) in
        M.write t.grid.(h.pid).(0) v0;
        mir.(0) <- v0;
        (* fence: a later generation may have recycled our tree — its
           scans did not classify against us, so retry into it *)
        let gmax = ref g in
        for q = 0 to n - 1 do
          if q <> h.pid then gmax := max !gmax (M.read t.gen.(q))
        done;
        if !gmax > g then attempt ~target:!gmax r else r
      in
      attempt ~target:0 L.bottom
    end

  let scan_variant h v = function
    | Plain -> scan_plain h v
    | Optimized -> scan_optimized h v
    | Adaptive -> scan_adaptive h v
    | Lattice -> scan_lattice h v

  let scan ?(variant = Optimized) h v =
    match h.journal with
    | None -> scan_variant h v variant
    | Some _ ->
        Runtime.Ctx.span h.ctx ~op:"scan" (fun () -> scan_variant h v variant)

  (* The two operations of the atomic scan object (Section 6): Write_L
     discards the scan's return value; ReadMax contributes bottom.
     Under [Adaptive] and [Lattice], a write needs no return value, so
     it is exactly the publish — one column-0 write (zero when the
     contribution is already contained), no collect, no validation, no
     classifier descent. *)
  let write_l ?(variant = Optimized) h v =
    match variant with
    | Adaptive | Lattice -> (
        match h.journal with
        | None -> publish h v
        | Some _ -> Runtime.Ctx.span h.ctx ~op:"scan" (fun () -> publish h v))
    | (Plain | Optimized) as variant -> ignore (scan ~variant h v)

  let read_max ?variant h = scan ?variant h L.bottom
end

(* Exact per-Scan access counts (Section 6.2), used by experiment E5:
   (reads, writes) for one Scan by one process among [procs].  The
   [Adaptive] row is the UNCONTENDED fast path (4 reads per peer: flag,
   versioned collect, epoch recheck, flag recheck; one column-0 write) —
   a contended scan escalates and additionally pays the [Optimized]
   passes plus two escalation-flag writes.  [Adaptive] [read_max] skips
   the write (bottom is always contained) and [write_l] skips the
   collect, so each costs strictly less than the combined formula.

   The [Lattice] row holds CONTENDED OR NOT: every loop in the descent
   is fixed-trip (collect n-1; ceil(log2 n) levels of n slot peeks and
   one post; fence n-1), so the count is schedule-oblivious as long as
   no concurrent scan opens a later generation (which single-scan-per-
   process workloads, the committed bench stages included, never do) —
   each generation retry repeats the whole body once more.  Writes:
   publish, announce, one post per level, result republish. *)
let cost_formula ~procs = function
  | Plain -> ((procs * procs) + procs + 1, procs + 2)
  | Optimized -> ((procs * procs) - 1, procs + 1)
  | Adaptive -> (4 * (procs - 1), 1)
  | Lattice ->
      if procs = 1 then (0, 1)
      else
        let levels = lattice_levels ~procs in
        ((2 * (procs - 1)) + (levels * procs), levels + 3)
