(** Cache-line padding for contended heap blocks.

    OCaml's allocator packs small blocks densely, so atomics allocated
    by different domains often share a cache line and ping-pong it under
    contention (false sharing).  [Atomic.make_contended] solves this
    from OCaml 5.2 onward; this module provides the same remedy on the
    5.1 runtime this library also supports.  Used by {!Native} for its
    registers (and by the telemetry counter grid). *)

(** Padded block size in words (16 = 128 bytes on 64-bit: an x86 cache
    line plus its adjacent-line prefetcher pair). *)
val words : int

(** [copy_as_padded v] is [v] re-allocated as a [words]-word block (tail
    filled with zeros) so it owns its cache line(s).  Field reads and
    writes — including [Atomic] operations, which act on field 0 — see
    exactly the original value; [Obj.size]-sensitive operations
    (structural comparison, marshalling) do not, so use only for cells
    accessed through [Atomic] or mutable fields.  Immediates, non-tag-0
    blocks and blocks already [words] long or longer are returned
    unchanged. *)
val copy_as_padded : 'a -> 'a

(** [padded_atomic v] is [copy_as_padded (Atomic.make v)]: an atomic
    register on its own cache line. *)
val padded_atomic : 'a -> 'a Atomic.t
