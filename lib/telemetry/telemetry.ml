(* Windowed telemetry (see telemetry.mli for the design).

   Layout notes:

   - [Histogram] keeps raw observations: exact quantiles, O(1) insert,
     and the sample sizes here (operations per run or window) never
     justify bucketing.
   - [Counters] is a dense [pid][family][event] grid of
     [Padding.padded_atomic] cells.  Padding every cell is memory-greedy
     (128 bytes per counter) but the grids are small (procs x shards x
     events) and it guarantees no two pids' increments ever share a
     cache line — the whole point of per-domain attribution.
   - [Sampler] owns one mutex.  Operations reach it at flush granularity
     (Workload.Traffic batches tens of ops per flush), so the lock is
     far off the store's CAS/snapshot hot paths; the telemetry-disabled
     path never takes it (the [record_opt] guard is a pattern match).
   - Window close diffs [Counters.totals] against the previous close.
     Counters are monotone, so deltas are non-negative even though other
     domains keep incrementing mid-diff; an increment that straddles a
     close lands in one window or the next, never in neither. *)

module Stats = struct
  type t = {
    count : int;
    min : int;
    max : int;
    mean : float;
    p50 : int;
    p99 : int;
  }

  let pp ppf s =
    Format.fprintf ppf "n=%d min=%d mean=%.1f p50=%d p99=%d max=%d" s.count
      s.min s.mean s.p50 s.p99 s.max
end

module Histogram = struct
  type t = {
    mutable data : int array;
    mutable len : int;
  }

  let create () = { data = Array.make 16 0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (max 16 (2 * t.len)) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let count t = t.len

  let merge hs =
    let data = Array.concat (List.map (fun h -> Array.sub h.data 0 h.len) hs) in
    { data; len = Array.length data }

  let stats t =
    if t.len = 0 then None
    else begin
      let sorted = Array.sub t.data 0 t.len in
      Array.sort compare sorted;
      let total = Array.fold_left ( + ) 0 sorted in
      (* nearest-rank quantiles: the smallest value with at least the
         requested fraction of the sample at or below it *)
      let rank q =
        max 1 (int_of_float (ceil (q *. float_of_int t.len)))
      in
      Some
        {
          Stats.count = t.len;
          min = sorted.(0);
          max = sorted.(t.len - 1);
          mean = float_of_int total /. float_of_int t.len;
          p50 = sorted.(rank 0.50 - 1);
          p99 = sorted.(rank 0.99 - 1);
        }
    end
end

module Event = struct
  type t =
    | Read
    | Write
    | Double_collect_restart
    | Store_batch_fallback
    | Store_rebuild
    | Shard_queue_depth
    | Seqlock_retry
    | Scan_escalation
    | Classifier_descend

  let all =
    [
      Read;
      Write;
      Double_collect_restart;
      Store_batch_fallback;
      Store_rebuild;
      Shard_queue_depth;
      Seqlock_retry;
      Scan_escalation;
      Classifier_descend;
    ]

  let count = List.length all

  let index = function
    | Read -> 0
    | Write -> 1
    | Double_collect_restart -> 2
    | Store_batch_fallback -> 3
    | Store_rebuild -> 4
    | Shard_queue_depth -> 5
    | Seqlock_retry -> 6
    | Scan_escalation -> 7
    | Classifier_descend -> 8

  let name = function
    | Read -> "read"
    | Write -> "write"
    | Double_collect_restart -> "double_collect_restart"
    | Store_batch_fallback -> "store_batch_fallback"
    | Store_rebuild -> "store_rebuild"
    | Shard_queue_depth -> "shard_queue_depth"
    | Seqlock_retry -> "seqlock_retry"
    | Scan_escalation -> "scan_escalation"
    | Classifier_descend -> "classifier_descend"

  let of_name s = List.find_opt (fun e -> name e = s) all
  let pp ppf e = Format.pp_print_string ppf (name e)
end

module Counters = struct
  type t = {
    c_procs : int;
    c_families : int;
    (* cells.(pid).(family).(Event.index e) *)
    cells : int Atomic.t array array array;
  }

  let create ?(families = 1) ~procs () =
    if procs <= 0 then invalid_arg "Telemetry.Counters.create: procs <= 0";
    if families <= 0 then
      invalid_arg "Telemetry.Counters.create: families <= 0";
    {
      c_procs = procs;
      c_families = families;
      cells =
        Array.init procs (fun _ ->
            Array.init families (fun _ ->
                Array.init Event.count (fun _ -> Pram.Padding.padded_atomic 0)));
    }

  let procs t = t.c_procs
  let families t = t.c_families

  let check t ~pid ~family =
    if pid < 0 || pid >= t.c_procs then
      invalid_arg
        (Printf.sprintf "Telemetry.Counters: pid %d out of range 0..%d" pid
           (t.c_procs - 1));
    if family < 0 || family >= t.c_families then
      invalid_arg
        (Printf.sprintf "Telemetry.Counters: family %d out of range 0..%d"
           family (t.c_families - 1))

  let add t ~pid ~family e n =
    check t ~pid ~family;
    if n < 0 then invalid_arg "Telemetry.Counters.add: negative increment";
    let cell = t.cells.(pid).(family).(Event.index e) in
    (* single-writer per cell in practice, but fetch_and_add keeps it
       correct even if an event is ever attributed cross-pid *)
    ignore (Atomic.fetch_and_add cell n)

  let record t ~pid ~family e = add t ~pid ~family e 1

  let get t ~pid ~family e =
    check t ~pid ~family;
    Atomic.get t.cells.(pid).(family).(Event.index e)

  let fold t e f acc =
    let i = Event.index e in
    let acc = ref acc in
    for pid = 0 to t.c_procs - 1 do
      for family = 0 to t.c_families - 1 do
        acc := f !acc ~pid ~family (Atomic.get t.cells.(pid).(family).(i))
      done
    done;
    !acc

  let total t e = fold t e (fun acc ~pid:_ ~family:_ v -> acc + v) 0

  let pid_total t ~pid e =
    check t ~pid ~family:0;
    fold t e (fun acc ~pid:p ~family:_ v -> if p = pid then acc + v else acc) 0

  let family_total t ~family e =
    check t ~pid:0 ~family;
    fold t e
      (fun acc ~pid:_ ~family:f v -> if f = family then acc + v else acc)
      0

  let totals t = Array.of_list (List.map (total t) Event.all)

  let reset t =
    Array.iter
      (fun by_family ->
        Array.iter (fun row -> Array.iter (fun c -> Atomic.set c 0) row)
          by_family)
      t.cells
end

let record_opt c ~pid ~family e =
  match c with None -> () | Some c -> Counters.record c ~pid ~family e

let add_opt c ~pid ~family e n =
  match c with None -> () | Some c -> Counters.add c ~pid ~family e n

module Window = struct
  type t = {
    index : int;
    t_start : float;
    t_end : float;
    ops : int;
    latency : Stats.t option;
    deltas : int array;
  }

  let pp ppf w =
    Format.fprintf ppf "@[<h>w%d [%.3f,%.3f) ops=%d" w.index w.t_start w.t_end
      w.ops;
    (match w.latency with
    | Some s -> Format.fprintf ppf " lat(%a)" Stats.pp s
    | None -> ());
    List.iter
      (fun e ->
        let d = w.deltas.(Event.index e) in
        if d > 0 then Format.fprintf ppf " %a=+%d" Event.pp e d)
      Event.all;
    Format.fprintf ppf "@]"
end

module Sampler = struct
  type t = {
    clock : unit -> float;
    s_interval : float;
    capacity : int;
    counters : Counters.t;
    epoch : float;  (* clock () at create; window times are relative *)
    lock : Mutex.t;
    (* everything below is guarded by [lock] *)
    closed : Window.t Queue.t;
    mutable s_dropped : int;
    mutable s_total_ops : int;
    mutable next_index : int;  (* index of the currently open window *)
    mutable cur_start : float;  (* relative start of the open window *)
    mutable cur_ops : int;
    mutable cur_hist : Histogram.t;
    mutable prev_totals : int array;  (* counter totals at last close *)
    mutable finished : bool;
  }

  let create ?clock ?(interval = 0.1) ?(capacity = 4096) ~counters () =
    if interval <= 0.0 then
      invalid_arg "Telemetry.Sampler.create: interval <= 0";
    if capacity <= 0 then invalid_arg "Telemetry.Sampler.create: capacity <= 0";
    let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
    {
      clock;
      s_interval = interval;
      capacity;
      counters;
      epoch = clock ();
      lock = Mutex.create ();
      closed = Queue.create ();
      s_dropped = 0;
      s_total_ops = 0;
      next_index = 0;
      cur_start = 0.0;
      cur_ops = 0;
      cur_hist = Histogram.create ();
      prev_totals = Counters.totals counters;
      finished = false;
    }

  let interval t = t.s_interval

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  (* Close the open window, ending it at [t_end] (relative seconds).
     Caller holds the lock and guarantees [t_end > cur_start]. *)
  let close_current t ~t_end =
    let now_totals = Counters.totals t.counters in
    let deltas =
      Array.init Event.count (fun i ->
          (* monotone counters: clamp anyway so a reset mid-run degrades
             to a zero delta instead of a validator-visible negative *)
          max 0 (now_totals.(i) - t.prev_totals.(i)))
    in
    let w =
      {
        Window.index = t.next_index;
        t_start = t.cur_start;
        t_end;
        ops = t.cur_ops;
        latency = Histogram.stats t.cur_hist;
        deltas;
      }
    in
    Queue.push w t.closed;
    if Queue.length t.closed > t.capacity then begin
      ignore (Queue.pop t.closed);
      t.s_dropped <- t.s_dropped + 1
    end;
    t.prev_totals <- now_totals;
    t.next_index <- t.next_index + 1;
    t.cur_start <- t_end;
    t.cur_ops <- 0;
    t.cur_hist <- Histogram.create ()

  (* Close every window the clock has fully passed.  Holds the lock. *)
  let catch_up t =
    let now = t.clock () -. t.epoch in
    while now >= t.cur_start +. t.s_interval do
      close_current t ~t_end:(t.cur_start +. t.s_interval)
    done

  let check_live t name =
    if t.finished then
      invalid_arg (Printf.sprintf "Telemetry.Sampler.%s: finished" name)

  let observe t ~latency_ns =
    if latency_ns < 0 then
      invalid_arg "Telemetry.Sampler.observe: negative latency";
    locked t (fun () ->
        check_live t "observe";
        catch_up t;
        t.cur_ops <- t.cur_ops + 1;
        t.s_total_ops <- t.s_total_ops + 1;
        Histogram.add t.cur_hist latency_ns)

  let tick t =
    locked t (fun () ->
        check_live t "tick";
        catch_up t)

  let finish t =
    locked t (fun () ->
        check_live t "finish";
        catch_up t;
        (* close the partial tail on the interval grid so t_end stays
           strictly increasing even for an empty final window *)
        close_current t ~t_end:(t.cur_start +. t.s_interval);
        t.finished <- true)

  let windows t = locked t (fun () -> List.of_seq (Queue.to_seq t.closed))
  let dropped t = locked t (fun () -> t.s_dropped)
  let total_ops t = locked t (fun () -> t.s_total_ops)
end

module Series = struct
  type t = {
    interval : float;
    windows : Window.t list;
    dropped : int;
    total_ops : int;
  }

  let of_sampler s =
    {
      interval = Sampler.interval s;
      windows = Sampler.windows s;
      dropped = Sampler.dropped s;
      total_ops = Sampler.total_ops s;
    }

  let pp ppf s =
    Format.fprintf ppf "@[<v>series interval=%.3fs windows=%d ops=%d%s"
      s.interval (List.length s.windows) s.total_ops
      (if s.dropped > 0 then Printf.sprintf " dropped=%d" s.dropped else "");
    List.iter (fun w -> Format.fprintf ppf "@,  %a" Window.pp w) s.windows;
    Format.fprintf ppf "@]"
end

module Openmetrics = struct
  type sample = {
    s_name : string;
    s_labels : (string * string) list;
    s_value : float;
  }

  (* ---- rendering ---- *)

  let escape_label v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let render_labels buf labels =
    if labels <> [] then begin
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'
    end

  let render_value v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let sample buf name labels v =
    Buffer.add_string buf name;
    render_labels buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (render_value v);
    Buffer.add_char buf '\n'

  let family buf ~name ~typ ~help =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help)

  let render ?series c =
    let buf = Buffer.create 4096 in
    (* counter grid: one family, (event, pid, family) labels.  In the
       OpenMetrics counter convention the sample name carries a _total
       suffix on the family name. *)
    family buf ~name:"wfa_event" ~typ:"counter"
      ~help:"contention events by class, pid and object family";
    List.iter
      (fun e ->
        (* always emit the per-event grand total so every class is
           present even when it never fired *)
        sample buf "wfa_event_total"
          [ ("event", Event.name e) ]
          (float_of_int (Counters.total c e));
        for pid = 0 to Counters.procs c - 1 do
          for fam = 0 to Counters.families c - 1 do
            let v = Counters.get c ~pid ~family:fam e in
            if v > 0 then
              sample buf "wfa_event_total"
                [
                  ("event", Event.name e);
                  ("pid", string_of_int pid);
                  ("family", string_of_int fam);
                ]
                (float_of_int v)
          done
        done)
      Event.all;
    (match series with
    | None -> ()
    | Some (s : Series.t) ->
        family buf ~name:"wfa_window_ops" ~typ:"gauge"
          ~help:"operations completed in each sampling window";
        family buf ~name:"wfa_window_end_seconds" ~typ:"gauge"
          ~help:"window end time, seconds since sampler start";
        family buf ~name:"wfa_window_latency_ns" ~typ:"gauge"
          ~help:"per-window operation latency quantiles in nanoseconds";
        family buf ~name:"wfa_window_event_delta" ~typ:"gauge"
          ~help:"contention-counter increments within each window";
        List.iter
          (fun (w : Window.t) ->
            let wlab = ("window", string_of_int w.index) in
            sample buf "wfa_window_ops" [ wlab ] (float_of_int w.ops);
            sample buf "wfa_window_end_seconds" [ wlab ] w.t_end;
            (match w.latency with
            | None -> ()
            | Some st ->
                sample buf "wfa_window_latency_ns"
                  [ wlab; ("quantile", "0.5") ]
                  (float_of_int st.Stats.p50);
                sample buf "wfa_window_latency_ns"
                  [ wlab; ("quantile", "0.99") ]
                  (float_of_int st.Stats.p99));
            List.iter
              (fun e ->
                let d = w.deltas.(Event.index e) in
                if d > 0 then
                  sample buf "wfa_window_event_delta"
                    [ wlab; ("event", Event.name e) ]
                    (float_of_int d))
              Event.all)
          s.windows);
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf

  (* ---- parsing / linting ---- *)

  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

  let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

  let valid_name s =
    String.length s > 0
    && is_name_start s.[0]
    && String.for_all is_name_char s

  (* Parse one sample line: NAME ['{' k="v" (',' k="v")* '}'] ' ' VALUE *)
  let parse_sample lineno line =
    let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    let n = String.length line in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do incr i done;
    if !i = 0 then err "expected metric name"
    else begin
      let name = String.sub line 0 !i in
      let labels = ref [] in
      let ok = ref (Ok ()) in
      (if !i < n && line.[!i] = '{' then begin
         incr i;
         let stop = ref false in
         while (not !stop) && Result.is_ok !ok do
           if !i < n && line.[!i] = '}' then begin
             incr i;
             stop := true
           end
           else begin
             (* label name *)
             let k0 = !i in
             while !i < n && is_name_char line.[!i] do incr i done;
             if !i = k0 then ok := err "expected label name"
             else begin
               let k = String.sub line k0 (!i - k0) in
               if !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"'
               then ok := err "expected =\" after label name"
               else begin
                 i := !i + 2;
                 let buf = Buffer.create 16 in
                 let closed = ref false in
                 while (not !closed) && Result.is_ok !ok do
                   if !i >= n then ok := err "unterminated label value"
                   else
                     match line.[!i] with
                     | '"' ->
                         incr i;
                         closed := true
                     | '\\' ->
                         if !i + 1 >= n then
                           ok := err "dangling escape in label value"
                         else begin
                           (match line.[!i + 1] with
                           | '\\' -> Buffer.add_char buf '\\'
                           | '"' -> Buffer.add_char buf '"'
                           | 'n' -> Buffer.add_char buf '\n'
                           | c ->
                               ok :=
                                 err
                                   (Printf.sprintf "bad escape \\%c in value"
                                      c));
                           i := !i + 2
                         end
                     | c ->
                         Buffer.add_char buf c;
                         incr i
                 done;
                 if Result.is_ok !ok then begin
                   labels := (k, Buffer.contents buf) :: !labels;
                   if !i < n && line.[!i] = ',' then incr i
                   else if !i < n && line.[!i] = '}' then ()
                   else if !i >= n then ok := err "unterminated label set"
                   else
                     ok :=
                       err
                         (Printf.sprintf "unexpected %c after label value"
                            line.[!i])
                 end
               end
             end
           end
         done
       end);
      match !ok with
      | Error _ as e -> e
      | Ok () ->
          if !i >= n || line.[!i] <> ' ' then
            err "expected space before value"
          else begin
            let vstr = String.sub line (!i + 1) (n - !i - 1) in
            match float_of_string_opt (String.trim vstr) with
            | None -> err (Printf.sprintf "bad value %S" vstr)
            | Some v ->
                Ok
                  { s_name = name; s_labels = List.rev !labels; s_value = v }
          end
    end

  let parse text =
    let lines = String.split_on_char '\n' text in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
          if line = "" then go acc (lineno + 1) rest
          else if String.length line > 0 && line.[0] = '#' then
            go acc (lineno + 1) rest
          else begin
            match parse_sample lineno line with
            | Ok s -> go (s :: acc) (lineno + 1) rest
            | Error _ as e -> e
          end
    in
    go [] 1 lines

  (* Family name of a sample: counter samples carry a _total suffix on
     the family name declared by # TYPE. *)
  let sample_family name =
    match String.length name with
    | n when n > 6 && String.sub name (n - 6) 6 = "_total" ->
        [ name; String.sub name 0 (n - 6) ]
    | _ -> [ name ]

  let lint text =
    let lines = String.split_on_char '\n' text in
    (* structural: must end with "# EOF" as the last non-empty line *)
    let last_nonempty =
      List.fold_left (fun acc l -> if l = "" then acc else Some l) None lines
    in
    if last_nonempty <> Some "# EOF" then Error "missing # EOF terminator"
    else begin
      let declared = Hashtbl.create 8 in
      let seen = Hashtbl.create 64 in
      let count = ref 0 in
      let rec go lineno = function
        | [] -> Ok !count
        | "" :: rest -> go (lineno + 1) rest
        | line :: rest when String.length line > 0 && line.[0] = '#' -> begin
            match String.split_on_char ' ' line with
            | "#" :: "EOF" :: [] -> go (lineno + 1) rest
            | "#" :: "TYPE" :: name :: kind :: [] ->
                if not (valid_name name) then
                  Error
                    (Printf.sprintf "line %d: invalid family name %S" lineno
                       name)
                else if not (List.mem kind [ "counter"; "gauge" ]) then
                  Error
                    (Printf.sprintf "line %d: unknown type %S" lineno kind)
                else begin
                  Hashtbl.replace declared name ();
                  go (lineno + 1) rest
                end
            | "#" :: "HELP" :: name :: _ ->
                if not (valid_name name) then
                  Error
                    (Printf.sprintf "line %d: invalid family name %S" lineno
                       name)
                else go (lineno + 1) rest
            | _ ->
                Error (Printf.sprintf "line %d: malformed comment" lineno)
          end
        | line :: rest -> begin
            match parse_sample lineno line with
            | Error _ as e -> e
            | Ok s ->
                if not (valid_name s.s_name) then
                  Error
                    (Printf.sprintf "line %d: invalid metric name %S" lineno
                       s.s_name)
                else if
                  not
                    (List.exists (Hashtbl.mem declared)
                       (sample_family s.s_name))
                then
                  Error
                    (Printf.sprintf "line %d: sample %s has no # TYPE" lineno
                       s.s_name)
                else if
                  List.exists (fun (k, _) -> not (valid_name k)) s.s_labels
                then Error (Printf.sprintf "line %d: invalid label name" lineno)
                else if not (Float.is_finite s.s_value) then
                  Error
                    (Printf.sprintf "line %d: non-finite value" lineno)
                else begin
                  let key = (s.s_name, List.sort compare s.s_labels) in
                  if Hashtbl.mem seen key then
                    Error
                      (Printf.sprintf "line %d: duplicate sample %s" lineno
                         s.s_name)
                  else begin
                    Hashtbl.add seen key ();
                    incr count;
                    go (lineno + 1) rest
                  end
                end
          end
      in
      go 1 lines
    end
end
