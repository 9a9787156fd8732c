(** Wait-free approximate agreement (Section 4, Figures 1 and 2).

    The object's abstract state is a set [X] of inputs and a set [Y] of
    outputs; [input] adds to [X], and [output] returns a value such that
    [range Y] stays inside [range X] with diameter below [epsilon]
    (Figure 1).  The implementation is the round-based midpoint protocol
    of Figure 2; see the implementation file for the one clarification it
    needs around never-written (round 0, bottom) entries.

    Verified properties (tests + experiments E1-E4):
    - validity and epsilon-agreement under arbitrary schedules and
      crashes, including exhaustively on small configurations;
    - wait-freedom within Theorem 5's step bound;
    - susceptibility to the Lemma 6 adversary, exactly as the lower
      bound demands. *)

type entry = { round : int; prefer : float }

module Make (M : Pram.Memory.S) : sig
  type t

  (** [create ~procs ~epsilon] allocates the n-entry register array.
      @raise Invalid_argument if [procs <= 0] or [epsilon <= 0]. *)
  val create : procs:int -> epsilon:float -> t

  type handle

  (** [attach t ctx] is process [Ctx.pid ctx]'s session with [t].  If
      the context carries a journal, each [output] is bracketed as an
      ["aa.output"] span with one annotation per advance / rescan /
      decide; a sink-less context costs nothing.
      @raise Invalid_argument if the context pid exceeds [t]'s procs. *)
  val attach : t -> Runtime.Ctx.t -> handle

  (** Contribute an input value; only the process's first [input] has an
      effect (Figure 2, lines 1-5). *)
  val input : handle -> float -> unit

  (** Run the agreement loop to a decision (Figure 2, lines 7-22).
      Requires a prior [input] by this process.
      @raise Invalid_argument otherwise. *)
  val output : handle -> float

  (** Current round of a process's entry (0 before its input) — test and
      bench introspection, not part of the object's interface. *)
  val round_of : t -> pid:int -> int
end

(** Theorem 5's explicit upper bound on steps per process:
    [(2n+1) * (log2(delta/epsilon) + 3) + 2]. *)
val step_bound : procs:int -> delta:float -> epsilon:float -> float

(** Lemma 6's lower bound: [floor(log3(delta/epsilon))] steps can be
    forced by an adversary. *)
val adversary_bound : delta:float -> epsilon:float -> int
