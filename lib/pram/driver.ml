(* The asynchronous-PRAM execution engine.

   A driver owns [procs] processes, each an OCaml 5 fiber created with
   [Effect.Deep.match_with].  A process runs local computation for free;
   whenever it performs a shared-memory access (an effect from
   [Sim_effects]) it suspends, and the access becomes "pending".  Calling
   [step d p] fires process [p]'s pending access atomically and resumes the
   fiber until its next access (or completion).  One [step] is therefore
   exactly one read or write — the step unit of the paper's cost model.

   The engine is deterministic: a program (a [setup] function that
   allocates fresh registers and returns the per-process body) replayed
   under the same schedule produces the same execution.  [replay] exploits
   this to implement the "clone the execution" oracle needed by the
   Lemma 6 adversary, where continuations themselves cannot be copied. *)

type pending = {
  kind : Trace.kind;
  reg_id : int;
  reg_name : string;
  fire : unit -> unit;
      (* executes the access and resumes the fiber up to its next
         suspension point (or completion) *)
}

type 'r cell =
  | Not_started
  | Suspended of pending
  | Finished of 'r
  | Crashed

type status =
  | Running  (** has a pending shared-memory access *)
  | Done
  | Halted  (** crashed by the scheduler; will never take another step *)

type pending_view = {
  v_kind : Trace.kind;
  v_reg_id : int;
  v_reg_name : string;
}

type 'r t = {
  procs : int;
  body : int -> 'r;
  cells : 'r cell array;
  steps : int array;
  mutable total_steps : int;
  mutable schedule_rev : int list;
  mutable trace_rev : Trace.access list;
  record_trace : bool;
  observer : (Trace.access -> unit) option;
      (* called once per fired access, in firing order; the sink's
         counter grid and journal plug in here without the driver
         depending on them *)
}

exception Process_not_runnable of int

(* Launch process [p]: run its body until the first shared-memory access
   (recording it as pending) or until completion.  Local computation costs
   nothing in the step model. *)
let start_process (type r) (t : r t) p =
  let open Effect.Deep in
  match_with
    (fun () ->
      let result = t.body p in
      t.cells.(p) <- Finished result)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sim_effects.Read reg ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.cells.(p) <-
                    Suspended
                      {
                        kind = Trace.Read;
                        reg_id = Register.id reg;
                        reg_name = Register.name reg;
                        fire = (fun () -> continue k (Register.get reg));
                      })
          | Sim_effects.Write (reg, v) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.cells.(p) <-
                    Suspended
                      {
                        kind = Trace.Write;
                        reg_id = Register.id reg;
                        reg_name = Register.name reg;
                        fire =
                          (fun () ->
                            Register.set reg v;
                            continue k ());
                      })
          | _ -> None);
    }

let create ?(record_trace = false) ?observer ~procs setup =
  if procs <= 0 then invalid_arg "Driver.create: procs must be positive";
  (* Make register ids a function of the step sequence alone, so that
     explorers can compare ids across instances replaying the same
     prefix (see Register.reset_ids). *)
  Register.reset_ids ();
  let body = setup () in
  {
    procs;
    body;
    cells = Array.make procs Not_started;
    steps = Array.make procs 0;
    total_steps = 0;
    schedule_rev = [];
    trace_rev = [];
    record_trace;
    observer;
  }

(* Processes start lazily: the prologue (local code before the first
   shared access) runs at the process's first [step] or when its pending
   access is first inspected.  This matters for history recording: a
   process's first invocation event is stamped when the scheduler first
   gives it control, not at [create] time, so real-time precedence between
   operations of different processes is captured faithfully. *)
let ensure_started t p =
  match t.cells.(p) with Not_started -> start_process t p | _ -> ()

let procs t = t.procs

let status t p =
  match t.cells.(p) with
  | Not_started | Suspended _ -> Running
  | Finished _ -> Done
  | Crashed -> Halted

let pending t p =
  ensure_started t p;
  match t.cells.(p) with
  | Not_started -> assert false
  | Suspended pd ->
      Some { v_kind = pd.kind; v_reg_id = pd.reg_id; v_reg_name = pd.reg_name }
  | Finished _ | Crashed -> None

type lookahead =
  | Lk_unknown
  | Lk_access of pending_view
  | Lk_done

(* Like [pending], but never forces a [Not_started] process: its
   prologue (which may record history events) keeps running at its first
   [step], exactly as under any other scheduler.  Explore's DPOR uses
   this and treats [Lk_unknown] as dependent with everything. *)
let lookahead t p =
  match t.cells.(p) with
  | Not_started -> Lk_unknown
  | Suspended pd ->
      Lk_access
        { v_kind = pd.kind; v_reg_id = pd.reg_id; v_reg_name = pd.reg_name }
  | Finished _ | Crashed -> Lk_done

let result t p = match t.cells.(p) with Finished r -> Some r | _ -> None
let steps t p = t.steps.(p)
let total_steps t = t.total_steps
let runnable t p =
  match t.cells.(p) with Not_started | Suspended _ -> true | _ -> false

let runnable_list t =
  let rec collect p acc =
    if p < 0 then acc else collect (p - 1) (if runnable t p then p :: acc else acc)
  in
  collect (t.procs - 1) []

let all_quiescent t = runnable_list t = []

let step t p =
  ensure_started t p;
  match t.cells.(p) with
  | Not_started -> assert false
  | Finished _ ->
      (* the lazy start ran the whole body without any shared access;
         treat the step as the (free) completion of the process *)
      ()
  | Suspended pd ->
      if t.record_trace || Option.is_some t.observer then begin
        let access =
          {
            Trace.step = t.total_steps;
            pid = p;
            reg_id = pd.reg_id;
            reg_name = pd.reg_name;
            kind = pd.kind;
          }
        in
        if t.record_trace then t.trace_rev <- access :: t.trace_rev;
        match t.observer with Some f -> f access | None -> ()
      end;
      t.steps.(p) <- t.steps.(p) + 1;
      t.total_steps <- t.total_steps + 1;
      t.schedule_rev <- p :: t.schedule_rev;
      pd.fire ()
  | Crashed -> raise (Process_not_runnable p)

let crash t p =
  (* Dropping the continuation abandons the fiber; its stack is reclaimed
     by the GC.  A crashed process never takes another step — the
     strongest failure the wait-free condition must tolerate. *)
  match t.cells.(p) with
  | Not_started | Suspended _ -> t.cells.(p) <- Crashed
  | Finished _ -> ()
  | Crashed -> ()

let schedule t = List.rev t.schedule_rev
let trace t = List.rev t.trace_rev

let run_solo ?(max_steps = max_int) t p =
  let rec loop budget =
    if not (runnable t p) then true
    else if budget = 0 then false
    else begin
      step t p;
      loop (budget - 1)
    end
  in
  loop max_steps

let replay ?record_trace ?observer ~procs setup sched =
  let t = create ?record_trace ?observer ~procs setup in
  List.iter (fun p -> step t p) sched;
  t
