(** Scheduling policies over {!Driver}.

    A scheduler inspects the execution (statuses and pending accesses —
    the view of a full-information adversary) and decides the next action.
    The asynchronous PRAM model places no fairness constraints on
    schedulers; wait-freedom is exactly robustness against every policy
    expressible here, including ones that crash processes. *)

type action =
  | Step of int  (** fire this process's pending access *)
  | Crash of int  (** halt this process forever *)
  | Stop  (** end the run *)

type 'r t = 'r Driver.t -> action

(** Drive [driver] with [sched] until quiescence, [Stop], or [max_steps]
    scheduled actions (a watchdog against non-wait-free implementations).
    Every action — [Step] {e and} [Crash] — consumes one unit of budget,
    so a scheduler stuck re-crashing a dead process fails loudly instead
    of spinning.  [on_action] observes each decision just before it is
    applied (so a harness can attribute scheduler decisions, e.g. crash
    counts, without wrapping the policy).
    @raise Failure if the budget is exhausted. *)
val run :
  ?max_steps:int -> ?on_action:(action -> unit) -> 'r t -> 'r Driver.t -> unit

(** Fair round-robin over runnable processes. *)
val round_robin : unit -> 'r t

(** Uniform random scheduling, deterministic in [seed].  If [crash_prob]
    is positive, each decision may crash a random runnable process while
    more than [min_alive] processes remain un-crashed. *)
val random : ?crash_prob:float -> ?min_alive:int -> seed:int -> unit -> 'r t

(** Replay an explicit pid sequence, stopping at its end or at the first
    non-runnable pid. *)
val of_list : int list -> 'r t

(** Replay an encoded action sequence as recorded by {!Explore}
    (crashes encoded as [-1 - p]), skipping steps of processes that are
    no longer runnable; used to re-drive counterexample schedules. *)
val of_encoded : int list -> 'r t

(** Run process 0 to completion, then process 1, and so on. *)
val sequential : unit -> 'r t

(** Step any process about to access register [reg_id]; otherwise defer to
    [fallback]. *)
val prefer_register : reg_id:int -> 'r t -> 'r t

(** Probabilistic Concurrency Testing (PCT): random priorities, highest
    runnable first, with [depth] {e distinct} random priority-demotion
    points over an assumed execution length of [max_steps]; at a change
    point the current leader is demoted below every priority seen so far
    and the demotion takes effect immediately (the new leader is stepped,
    not the demoted process).  For a bug requiring [d] ordering
    constraints, PCT finds it with probability [>= 1/(n * k^(d-1))] — a
    far better bug-finder per schedule than uniform random for small
    depth. *)
val pct : seed:int -> depth:int -> max_steps:int -> unit -> 'r t

(** The demotion points the [pct] scheduler derives from
    [(seed, depth, max_steps)]: [min depth (max 1 max_steps)] distinct
    step indices in [0, max 1 max_steps), in draw order.  Exposed for
    tests and introspection. *)
val pct_change_points : seed:int -> depth:int -> max_steps:int -> int list
