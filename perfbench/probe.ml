(* The benchmark's own instrumentation: a nanosecond clock, an in-memory
   span buffer, and the counting/timing wrappers passed into the measured
   layers as their [O] (object spec) and [M] (memory) functor arguments.
   Nothing here reaches inside a layer: every number is taken at a call
   the layer's public interface already makes. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- spans ----------------------------------------------------------------- *)

module Span = struct
  type kind =
    | Execute
    | Query
    | Submit
    | Flush
    | Update
    | Snapshot
    | Spec_apply
    | Spec_commutes
    | Spec_reads_only

  let name = function
    | Execute -> "store.execute"
    | Query -> "store.query"
    | Submit -> "store.submit"
    | Flush -> "store.flush"
    | Update -> "scan.update"
    | Snapshot -> "scan.snapshot"
    | Spec_apply -> "spec.apply"
    | Spec_commutes -> "spec.commutes"
    | Spec_reads_only -> "spec.reads_only"

  (* One buffer per client, preallocated so recording never allocates.
     Spans past [capacity] are counted in [dropped] but not kept; the
     per-layer numbers come from exact counters and timers kept beside
     the spans, so a full buffer loses nothing but detail. *)
  type buf = {
    kind : kind array;
    start : int array;
    stop : int array;
    parent : int array;
    mutable len : int;
    mutable dropped : int;
    mutable current : int;  (** the open caller span, or -1 *)
  }

  let capacity = 1 lsl 16

  let make () =
    {
      kind = Array.make capacity Execute;
      start = Array.make capacity 0;
      stop = Array.make capacity 0;
      parent = Array.make capacity (-1);
      len = 0;
      dropped = 0;
      current = -1;
    }

  let clear b =
    b.len <- 0;
    b.dropped <- 0;
    b.current <- -1

  let record b k ~start ~stop ~parent =
    if b.len < capacity then begin
      let i = b.len in
      b.kind.(i) <- k;
      b.start.(i) <- start;
      b.stop.(i) <- stop;
      b.parent.(i) <- parent;
      b.len <- i + 1;
      i
    end
    else begin
      b.dropped <- b.dropped + 1;
      -1
    end

  (* Open a caller span: children recorded until [close] name it as
     their parent.  Its stop time is filled in by [close]. *)
  let open_ b k ~start =
    let i = record b k ~start ~stop:start ~parent:(-1) in
    b.current <- i;
    i

  let close b i ~stop =
    if i >= 0 then b.stop.(i) <- stop;
    b.current <- -1

  (* Chrome trace-event JSON ("X" complete events, microseconds); the
     parent index rides in [args] so the causal link survives.  [first]
     says whether no event has been written to [oc] yet. *)
  let write_json oc ~first ~tid b =
    for i = 0 to b.len - 1 do
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if !first then "" else ",\n")
        (name b.kind.(i))
        tid
        (float_of_int b.start.(i) /. 1e3)
        (float_of_int (b.stop.(i) - b.start.(i)) /. 1e3)
        i b.parent.(i);
      first := false
    done
end

(* --- the traced object spec ------------------------------------------------ *)

(* Exact call counts and time spent inside the spec, for the
   single-domain store workloads (the globals below are not domain-safe
   and need not be).  [buf] holds the spans of a traced store round:
   store calls, and the spec calls parented to the store call open in it. *)
module Spec_probe = struct
  let apply_calls = ref 0
  let commutes_calls = ref 0
  let reads_only_calls = ref 0
  let ns = ref 0
  let buf = Span.make ()

  let reset () =
    apply_calls := 0;
    commutes_calls := 0;
    reads_only_calls := 0;
    ns := 0
end

module Traced_counter : Spec.Object_spec.S
  with type state = Spec.Counter_spec.state
   and type operation = Spec.Counter_spec.operation
   and type response = Spec.Counter_spec.response = struct
  include Spec.Counter_spec
  module C = Spec.Counter_spec
  module P = Spec_probe

  let note kind counter t0 =
    let t1 = now_ns () in
    incr counter;
    P.ns := !P.ns + (t1 - t0);
    ignore (Span.record P.buf kind ~start:t0 ~stop:t1 ~parent:P.buf.Span.current)

  let apply s op =
    let t0 = now_ns () in
    let r = C.apply s op in
    note Span.Spec_apply P.apply_calls t0;
    r

  let commutes p q =
    let t0 = now_ns () in
    let r = C.commutes p q in
    note Span.Spec_commutes P.commutes_calls t0;
    r

  let reads_only p =
    let t0 = now_ns () in
    let r = C.reads_only p in
    note Span.Spec_reads_only P.reads_only_calls t0;
    r
end

(* --- the counting memory --------------------------------------------------- *)

(* [M] with read/write counters.  A read is any access that loads shared
   state — [read], [read_versioned] and [epoch] — which is how
   [Snapshot.Scan.cost_formula] counts.  The counters are plain refs: this
   memory is only used from one domain. *)
module Counted (M : Pram.Memory.VERSIONED) : sig
  include Pram.Memory.VERSIONED

  val totals : unit -> int * int
  val reset : unit -> unit
end = struct
  let reads = ref 0
  let writes = ref 0

  type 'a reg = 'a M.reg
  type 'a versioned = 'a M.versioned

  let create = M.create
  let value = M.value
  let version = M.version

  let read r =
    incr reads;
    M.read r

  let read_versioned r =
    incr reads;
    M.read_versioned r

  let epoch r =
    incr reads;
    M.epoch r

  let write r v =
    incr writes;
    M.write r v

  let totals () = (!reads, !writes)

  let reset () =
    reads := 0;
    writes := 0
end
