(* The wait-free universal construction of Figure 4 (Section 5.4).

   Any object whose operations pairwise commute or overwrite (Property 1)
   gets a wait-free linearizable implementation from single-writer
   registers:

   - the object is represented by its PRECEDENCE GRAPH of entries, rooted
     in an n-slot anchor array where slot P points to P's latest entry;
   - to execute an operation, a process (1) takes an atomic snapshot of
     the anchor (the Section 6 scan), (2) builds the linearization graph
     (Figure 3) of every entry reachable from the snapshot, (3) replays
     the canonical linearization through the sequential specification to
     compute its response, and (4) publishes a new entry, whose
     [preceding] array is the snapshot, with a single write (via the
     scan-based anchor update);
   - Theorem 26 shows the shared graph always remains linearizable,
     because dominated operations sit before their dominators and
     commuting operations may be ordered freely (Lemmas 16-25).

   Each operation costs one snapshot plus one anchor update — O(n^2)
   reads and writes of synchronization overhead (experiment E6) — plus
   the local graph work.  In [Reference] mode that local work replays the
   WHOLE history from scratch on every operation (O(m) per op, O(m^2)
   for a run of m ops — the price of full generality the paper's closing
   remark alludes to).  The default [Incremental] mode memoizes the
   replayed prefix and merges each new snapshot as a delta; see
   DESIGN.md §10 for the soundness argument against Lemmas 16-25 and the
   exact conditions under which the memo falls back to a full rebuild. *)

module Make (O : Spec.Object_spec.S) (M : Pram.Memory.VERSIONED) = struct
  type entry = {
    e_pid : int;
    e_seq : int;  (* per-process operation counter, from 1 *)
    e_depth : int;  (* longest preceding-chain below this entry *)
    e_op : O.operation;
    e_resp : O.response;
    e_preceding : entry option array;  (* the snapshot at creation *)
  }

  (* Entries are uniquely identified by (pid, seq); equality on slots is
     identity on those keys. *)
  module Anchor_value = struct
    type t = entry option

    let default = None

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> x.e_pid = y.e_pid && x.e_seq = y.e_seq
      | None, Some _ | Some _, None -> false

    let pp ppf = function
      | None -> Format.pp_print_string ppf "-"
      | Some e -> Format.fprintf ppf "%a@@p%d.%d" O.pp_operation e.e_op e.e_pid e.e_seq
  end

  module Anchor = Snapshot.Snapshot_array.Make (Anchor_value) (M)

  type t = {
    procs : int;
    anchor : Anchor.t;
    seq : int array;  (* private per-process counters *)
  }

  let create ~procs =
    { procs; anchor = Anchor.create ~procs; seq = Array.make procs 0 }

  type mode = Incremental | Reference

  (* Per-handle memo for the incremental mode (PR 5).

     Invariants (DESIGN.md §10):
     - the committed set is exactly {(p, s) | 1 <= s <= m_hwm.(p)}: a
       process's entries are chained through its own anchor slot, so the
       entries of each pid reachable from any view form a contiguous
       seq range (downward closure);
     - [m_state] is the fold of the committed entries' operations, in
       SOME precedence-respecting order, from [O.initial];
     - [m_ops] maps every distinct non-read-only committed operation
       value to the per-pid maximum committed seq carrying it — the
       summary that lets a delta entry check "does every conflicting
       committed entry precede me?" in O(procs) without a graph walk;
     - [m_canonical]: every pair of committed entries either commutes,
       has a read-only member, or is precedence-ordered.  Under this
       invariant EVERY precedence-respecting fold of the committed set
       reaches the same state, so [m_state] equals what the from-scratch
       linearization would compute — regardless of how the Figure 3
       dominance-edge tie-breaks shake out on the grown graph.  Once a
       non-commuting concurrent pair is committed (only a rebuild does
       that) the flag drops and every later operation replays from
       scratch: correctness never depends on the lingraph ordering the
       old pair the same way twice. *)
  type memo = {
    mutable m_state : O.state;
    m_hwm : int array;  (* committed high-water mark per pid *)
    m_ops : (O.operation, int array) Hashtbl.t;
    mutable m_committed : int;
    mutable m_canonical : bool;
    (* introspection counters for the O(delta) regression tests *)
    mutable m_replays : int;  (* O.apply calls replaying history entries *)
    mutable m_merges : int;
    mutable m_rebuilds : int;
  }

  type stats = {
    committed : int;
    spec_replays : int;
    merges : int;
    rebuilds : int;
    canonical : bool;
  }

  type handle = {
    obj : t;
    pid : int;
    ctx : Runtime.Ctx.t;
    anchor : Anchor.handle;  (* the underlying snapshot-array session *)
    journal : Tracing.Journal.t option;
        (* cached from [ctx] at attach time: the execute hot path guards
           its annotations with a single allocation-free match, and
           [execute] skips the span bracket without one, so the
           unobserved path never builds a closure *)
    mode : mode;
    variant : Snapshot.Scan.variant;  (* the anchor's scan variant *)
    memo : memo;  (* counters only in [Reference] mode *)
  }

  (* Anchor sessions default to the contention-adaptive scan: O(procs)
     synchronization per snapshot when no writer interferes, the paper's
     double-collect under contention.  [attach ?variant] can select
     another variant — notably [Lattice] for O(procs log procs)
     synchronization even under contention — but ALL handles of one
     object must use the same one: both Adaptive and Lattice are sound
     only when every concurrent reader announces through the same
     protocol (see Scan). *)
  let default_variant = Snapshot.Scan.Adaptive

  let fresh_memo procs =
    {
      m_state = O.initial;
      m_hwm = Array.make procs 0;
      m_ops = Hashtbl.create 16;
      m_committed = 0;
      m_canonical = true;
      m_replays = 0;
      m_merges = 0;
      m_rebuilds = 0;
    }

  let attach ?(mode = Incremental) ?(variant = default_variant) obj ctx =
    let pid = Runtime.Ctx.pid ctx in
    if pid >= obj.procs then
      invalid_arg
        (Printf.sprintf
           "Construction.attach: ctx pid %d but object has %d procs" pid
           obj.procs);
    {
      obj;
      pid;
      ctx;
      anchor = Anchor.attach obj.anchor ctx;
      journal = Runtime.Ctx.journal ctx;
      mode;
      variant;
      memo = fresh_memo obj.procs;
    }

  let stats h =
    {
      committed = h.memo.m_committed;
      spec_replays = h.memo.m_replays;
      merges = h.memo.m_merges;
      rebuilds = h.memo.m_rebuilds;
      canonical = h.memo.m_canonical;
    }

  let mode h = h.mode

  (* The causal past of an entry (or of a view), as a per-pid seq vector:
     pid p's entries in the past are exactly seqs 1..past.(p), because
     each entry chains to its own predecessor through its anchor slot and
     snapshots are monotone (see DESIGN.md §10, "contiguity"). *)
  let past_of_view view =
    Array.map (function None -> 0 | Some e -> e.e_seq) view

  let depth_of_view view =
    Array.fold_left
      (fun acc pred ->
        match pred with None -> acc | Some p -> max acc (1 + p.e_depth))
      0 view

  (* ------------------------------------------------------------------ *)
  (* From-scratch path (Reference mode, and the incremental rebuild).    *)

  (* Collect every entry reachable from the view through [preceding]
     pointers.  Entries are keyed by (pid, seq). *)
  let collect_entries view =
    let table = Hashtbl.create 64 in
    let rec visit = function
      | None -> ()
      | Some e ->
          let key = (e.e_pid, e.e_seq) in
          if not (Hashtbl.mem table key) then begin
            Hashtbl.add table key e;
            Array.iter visit e.e_preceding
          end
    in
    Array.iter visit view;
    table

  (* Canonical node numbering: (pid, seq) lexicographic is NOT consistent
     with precedence; instead sort by a precedence-respecting key.  Every
     [preceding] pointer goes from a new entry to strictly older ones, so
     the DEPTH of an entry (longest preceding-chain, stored at creation)
     is a precedence rank; ties broken by (pid, seq) give a canonical
     order that every process computes identically from the same graph. *)
  let by_canonical_key a b =
    let c = compare a.e_depth b.e_depth in
    if c <> 0 then c else compare (a.e_pid, a.e_seq) (b.e_pid, b.e_seq)

  let order_entries table =
    List.sort by_canonical_key (Hashtbl.fold (fun _ e acc -> e :: acc) table [])

  (* The linearization of the graph rooted at [view]: Figure 4's line 7. *)
  let linearization_of_view view =
    let table = collect_entries view in
    let nodes = Array.of_list (order_entries table) in
    let k = Array.length nodes in
    let index = Hashtbl.create 64 in
    Array.iteri (fun i e -> Hashtbl.add index (e.e_pid, e.e_seq) i) nodes;
    let precedence_edges = ref [] in
    Array.iteri
      (fun i e ->
        Array.iter
          (function
            | None -> ()
            | Some p ->
                let j = Hashtbl.find index (p.e_pid, p.e_seq) in
                (* p precedes e: edge j -> i *)
                precedence_edges := (j, i) :: !precedence_edges)
          e.e_preceding)
      nodes;
    let dominates i j =
      let a = nodes.(i) and b = nodes.(j) in
      Spec.Object_spec.dominates
        (module O)
        ~p:a.e_op ~p_pid:a.e_pid ~q:b.e_op ~q_pid:b.e_pid
    in
    let order =
      Lingraph.linearize ~nodes:k ~precedence_edges:!precedence_edges
        ~dominates
    in
    List.map (fun i -> nodes.(i)) order

  (* Replay a linearization through the sequential specification. *)
  let state_of_linearization lin =
    List.fold_left (fun s e -> fst (O.apply s e.e_op)) O.initial lin

  (* ------------------------------------------------------------------ *)
  (* Incremental path: delta collection, safety checks, merge, rebuild.  *)

  (* Entries reachable from [view] but not yet committed, in canonical
     (depth, pid, seq) order — which respects precedence, since depth
     strictly increases along preceding-chains.  The committed set is
     downward-closed, so cutting the walk at [seq <= hwm] is exact. *)
  let collect_delta memo view =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec visit = function
      | None -> ()
      | Some e ->
          if e.e_seq > memo.m_hwm.(e.e_pid) then begin
            let key = (e.e_pid, e.e_seq) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key e;
              Array.iter visit e.e_preceding;
              acc := e :: !acc
            end
          end
    in
    Array.iter visit view;
    List.sort by_canonical_key !acc

  (* May [d] (with causal past [past]) be appended behind the committed
     prefix without changing the reachable state?  Yes if it is
     read-only, or if every committed entry it does not commute with
     precedes it (in which case every precedence-respecting order already
     agrees on their relative position). *)
  let safe_wrt_committed memo d past =
    O.reads_only d.e_op
    || (try
          Hashtbl.iter
            (fun q maxseq ->
              if not (O.commutes d.e_op q) then
                Array.iteri
                  (fun p s -> if s > past.(p) then raise Exit)
                  maxseq)
            memo.m_ops;
          true
        with Exit -> false)

  (* Pairwise condition inside the delta: every precedence-incomparable
     pair must commute or contain a read-only member.  [delta] is in
     canonical order, so for i < j entry j never precedes entry i; i
     precedes j iff i's seq is within j's causal past. *)
  let delta_pairs_safe delta pasts =
    try
      Array.iteri
        (fun j dj ->
          if not (O.reads_only dj.e_op) then
            for i = 0 to j - 1 do
              let di = delta.(i) in
              if
                (not (O.reads_only di.e_op))
                && (not (O.commutes di.e_op dj.e_op))
                && di.e_seq > pasts.(j).(di.e_pid)
              then raise Exit
            done)
        delta;
      true
    with Exit -> false

  (* Fold [e] into the committed prefix: state, high-water mark, and the
     distinct-operation summary.  [apply_op] is false when the state
     contribution was already accounted for (the caller's own entry,
     whose apply also produced the response). *)
  let commit memo e ~apply_op =
    if apply_op then begin
      memo.m_state <- fst (O.apply memo.m_state e.e_op);
      memo.m_replays <- memo.m_replays + 1
    end;
    if e.e_seq > memo.m_hwm.(e.e_pid) then memo.m_hwm.(e.e_pid) <- e.e_seq;
    if not (O.reads_only e.e_op) then begin
      let maxseq =
        match Hashtbl.find_opt memo.m_ops e.e_op with
        | Some a -> a
        | None ->
            let a = Array.make (Array.length memo.m_hwm) 0 in
            Hashtbl.add memo.m_ops e.e_op a;
            a
      in
      if e.e_seq > maxseq.(e.e_pid) then maxseq.(e.e_pid) <- e.e_seq
    end;
    memo.m_committed <- memo.m_committed + 1

  (* Recompute the memo from scratch: the Reference linearization of the
     whole view, folded entry by entry while re-deriving the canonicity
     flag (checking each entry against the summary of its predecessors —
     the linearization respects precedence, so each unordered pair is
     examined exactly once, at its later member). *)
  let rebuild memo view =
    memo.m_rebuilds <- memo.m_rebuilds + 1;
    let lin = linearization_of_view view in
    memo.m_state <- O.initial;
    Array.fill memo.m_hwm 0 (Array.length memo.m_hwm) 0;
    Hashtbl.reset memo.m_ops;
    memo.m_committed <- 0;
    memo.m_canonical <- true;
    List.iter
      (fun e ->
        if not (safe_wrt_committed memo e (past_of_view e.e_preceding)) then
          memo.m_canonical <- false;
        commit memo e ~apply_op:true)
      lin;
    List.length lin

  (* Bring the memo up to date with [view]; returns the number of
     history entries replayed for this advance. *)
  let advance memo view =
    if not memo.m_canonical then rebuild memo view
    else
      match collect_delta memo view with
      | [] -> 0
      | delta ->
          let darr = Array.of_list delta in
          let pasts = Array.map (fun e -> past_of_view e.e_preceding) darr in
          let safe =
            (try
               Array.iteri
                 (fun i d ->
                   if not (safe_wrt_committed memo d pasts.(i)) then
                     raise Exit)
                 darr;
               true
             with Exit -> false)
            && delta_pairs_safe darr pasts
          in
          if safe then begin
            memo.m_merges <- memo.m_merges + 1;
            Array.iter (fun d -> commit memo d ~apply_op:true) darr;
            Array.length darr
          end
          else rebuild memo view

  (* Inline journal guard, not Ctx.annotate/annotatef: this is the
     per-operation hot path, and the match keeps the unobserved path at
     literally zero extra allocation (ikfprintf builds small
     per-argument closures even when dropping its output). *)
  let annotate h msg =
    match h.journal with
    | None -> ()
    | Some j -> Tracing.Journal.annotate j ~pid:h.pid msg

  (* Figure 4: execute an invocation — the span-less body, so that the
     [Sink.none] path never builds the span closure. *)
  let execute_inner h op =
    let t = h.obj and pid = h.pid in
    (* Step 1: atomic snapshot of the anchor, linearize (from scratch or
       by delta-merge), compute the response. *)
    annotate h "snapshot";
    let view = Anchor.snapshot ~variant:h.variant h.anchor in
    let state, replayed =
      match h.mode with
      | Reference ->
          let lin = linearization_of_view view in
          let n = List.length lin in
          h.memo.m_replays <- h.memo.m_replays + n;
          (state_of_linearization lin, n)
      | Incremental ->
          let n = advance h.memo view in
          (h.memo.m_state, n)
    in
    (match h.journal with
    | None -> ()
    | Some j ->
        Tracing.Journal.annotate j ~pid:h.pid
          (Printf.sprintf "replay %d entries" replayed));
    let state', resp = O.apply state op in
    t.seq.(pid) <- t.seq.(pid) + 1;
    let e =
      {
        e_pid = pid;
        e_seq = t.seq.(pid);
        e_depth = depth_of_view view;
        e_op = op;
        e_resp = resp;
        e_preceding = view;
      }
    in
    (* Step 2: write out the entry. *)
    annotate h "publish";
    Anchor.update ~variant:h.variant h.anchor (Some e);
    (match h.mode with
    | Incremental ->
        (* The caller's own entry is preceded by everything committed
           (its view is a later snapshot than every merged one), so
           appending it is always canonical; its state contribution is
           the apply that produced the response. *)
        h.memo.m_state <- state';
        commit h.memo e ~apply_op:false
    | Reference -> ());
    resp

  let execute h op =
    match h.journal with
    | None -> execute_inner h op
    | Some _ ->
        Runtime.Ctx.span h.ctx ~op:"uc.execute" (fun () -> execute_inner h op)

  (* Read-only variant: linearizes the current graph and applies [op] to
     the resulting state without publishing an entry.  Valid only for
     operations that do not change the state (e.g. a counter's read); the
     result is still linearizable because such operations commute with or
     are overwritten by everything.  Exposed for the E9 ablation. *)
  let query h op =
    let view = Anchor.snapshot ~variant:h.variant h.anchor in
    let state =
      match h.mode with
      | Reference -> state_of_linearization (linearization_of_view view)
      | Incremental ->
          ignore (advance h.memo view);
          h.memo.m_state
    in
    snd (O.apply state op)

  (* Introspection for tests and benches. *)
  let history_size h =
    let view = Anchor.snapshot ~variant:h.variant h.anchor in
    Hashtbl.length (collect_entries view)
end

(* Check Property 1 over a finite universe of operations; returns the
   first violating pair.  The universal construction is only correct for
   objects satisfying Property 1 (e.g. it must reject the queue). *)
let check_property1 (type op) (module O : Spec.Object_spec.S with type operation = op)
    (ops : op list) =
  let violation =
    List.find_map
      (fun p ->
        List.find_map
          (fun q ->
            if Spec.Object_spec.property1_pair (module O) p q then None
            else Some (p, q))
          ops)
      ops
  in
  match violation with
  | None -> Ok ()
  | Some (p, q) ->
      Error
        (Format.asprintf "operations %a and %a neither commute nor overwrite"
           O.pp_operation p O.pp_operation q)
