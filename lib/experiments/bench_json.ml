(* The JSON bench pipeline: one flat row schema shared by
   `bench/main.exe -- --json` and `wfa_cli bench`, written to
   BENCH_PR10.json and uploaded by CI.

     { "bench": "scan_plain_contended", "procs": 4, "backend": "sim",
       "metric": "reads", "value": 21, "unit": "accesses" }

   Rows carrying an optional 7th field "window" are time-series samples
   (PR 8): the value of a w_-prefixed metric during one fixed-width
   telemetry sampling window of the stage's run, validated by their own
   series gates (monotone window timestamps, non-negative deltas, ops
   reconciliation against the run total).

   Three backends feed rows:

   - "sim":    exact step counts from the deterministic simulator, fed
               through a Runtime.Sink attached as a Driver observer
               (counts from the telemetry grid, spans and register
               identity from the journal).  Machine-independent; the
               scan rows must equal Scan.cost_formula (the validator
               re-checks this), and the universal-construction rows
               carry the spec-replay counts that separate the
               incremental memo (PR 5) from the from-scratch Reference
               mode.
   - "native": wall-clock measurements over real OCaml domains
               (Atomic registers), at procs in {1,2,4,8} — contended and
               uncontended variants of the hot paths, each with the
               wall_ns / ops_per_sec / ns_per_op metric family.
   - "direct": single-threaded wall-clock of the remaining flagship ops
               (universal counter in both construction modes, agreement,
               lingraph build), the B4-B6 counterparts.

   Everything is deterministic in structure (same benches, same procs
   sweep) so trajectory tooling can diff files across PRs; only
   wall-clock values vary by machine. *)

(* --- rows and JSON emission ----------------------------------------------- *)

type row = {
  bench : string;
  procs : int;
  backend : string;
  metric : string;
  value : float;
  unit_ : string;
  window : int option;
      (* PR 8: [Some i] marks a windowed time-series sample — the value
         of a [w_]-prefixed metric in the i-th sampling window of the
         stage's run.  [None] rows are the flat schema unchanged, so
         every pre-series consumer keeps parsing committed files. *)
}

let row ~bench ~procs ~backend ~metric ~value ~unit_ =
  (* JSON has no encoding for non-finite numbers; a non-finite value here
     is always a measurement bug, so fail loudly rather than emit it. *)
  if not (Float.is_finite value) then
    failwith
      (Printf.sprintf "Bench_json: non-finite value for %s/%s" bench metric);
  { bench; procs; backend; metric; value; unit_; window = None }

let wrow ~window ~bench ~procs ~backend ~metric ~value ~unit_ =
  if window < 0 then
    failwith
      (Printf.sprintf "Bench_json: negative window for %s/%s" bench metric);
  { (row ~bench ~procs ~backend ~metric ~value ~unit_) with
    window = Some window }

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let row_to_json r =
  let window =
    match r.window with
    | None -> ""
    | Some w -> Printf.sprintf ", \"window\": %d" w
  in
  Printf.sprintf
    "{\"bench\": \"%s\", \"procs\": %d, \"backend\": \"%s\", \"metric\": \
     \"%s\", \"value\": %s, \"unit\": \"%s\"%s}"
    (escape_string r.bench) r.procs (escape_string r.backend)
    (escape_string r.metric) (number_to_string r.value)
    (escape_string r.unit_) window

let to_json rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      Buffer.add_string buf (row_to_json r))
    rows;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let write_file ~path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json rows))

let pp_row ppf r =
  Format.fprintf ppf "%-36s procs=%d %-7s %-24s %14s %s%s" r.bench r.procs
    r.backend r.metric (number_to_string r.value) r.unit_
    (match r.window with
    | None -> ""
    | Some w -> Printf.sprintf " [w%d]" w)

let pp_rows ppf rows =
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) rows

(* --- a minimal JSON reader (validation only) ------------------------------ *)

(* The repo deliberately has no JSON dependency; this parser covers the
   full JSON grammar minimally so the validator checks real syntax, not
   just our own printer's habits. *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; loop ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; loop ()
            | Some 'r' -> advance (); Buffer.add_char buf '\r'; loop ()
            | Some 'b' -> advance (); Buffer.add_char buf '\b'; loop ()
            | Some 'f' -> advance (); Buffer.add_char buf '\012'; loop ()
            | Some ('"' | '\\' | '/') ->
                Buffer.add_char buf (Option.get (peek ()));
                advance ();
                loop ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* non-ASCII escapes are preserved loosely; the bench
                   schema is ASCII-only so this path never fires on our
                   own files *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?';
                loop ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match float_of_string_opt tok with
      | Some f when Float.is_finite f -> f
      | _ -> fail (Printf.sprintf "bad number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, v) :: acc)
              | _ -> fail "expected , or }"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Arr [] end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ]"
            in
            Arr (items [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error "trailing garbage after JSON value"
      else Ok v
    with Bad msg -> Error msg
end

(* --- schema validation ----------------------------------------------------- *)

let row_of_json = function
  | Json.Obj fields -> (
      let find k = List.assoc_opt k fields in
      let str k =
        match find k with
        | Some (Json.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "field %S missing or not a string" k)
      in
      let num k =
        match find k with
        | Some (Json.Num f) -> Ok f
        | _ -> Error (Printf.sprintf "field %S missing or not a number" k)
      in
      let has_window = find "window" <> None in
      let expected_fields = if has_window then 7 else 6 in
      if List.length fields <> expected_fields then
        Error
          "row must have exactly the 6 schema fields (plus an optional \
           \"window\")"
      else
        let window =
          if not has_window then Ok None
          else
            match num "window" with
            | Error e -> Error e
            | Ok w when not (Float.is_integer w) || w < 0.0 ->
                Error "\"window\" must be a non-negative integer"
            | Ok w -> Ok (Some (int_of_float w))
        in
        match (str "bench", num "procs", str "backend", str "metric",
               num "value", str "unit", window)
        with
        | Ok bench, Ok procs, Ok backend, Ok metric, Ok value, Ok unit_,
          Ok window ->
            if not (Float.is_integer procs) || procs < 0.0 then
              Error "\"procs\" must be a non-negative integer"
            else if backend <> "sim" && backend <> "native"
                    && backend <> "direct"
            then Error (Printf.sprintf "unknown backend %S" backend)
            else
              Ok
                {
                  bench;
                  procs = int_of_float procs;
                  backend;
                  metric;
                  value;
                  unit_;
                  window;
                }
        | Error e, _, _, _, _, _, _
        | _, Error e, _, _, _, _, _
        | _, _, Error e, _, _, _, _
        | _, _, _, Error e, _, _, _
        | _, _, _, _, Error e, _, _
        | _, _, _, _, _, Error e, _
        | _, _, _, _, _, _, Error e -> Error e)
  | _ -> Error "row is not an object"

(* Wall-clock rows are schema-checked but not threshold-gated: the span
   and throughput must merely be positive and carry the right unit —
   actual magnitudes are machine-dependent.  Shared by the full
   validator and the store-scoped one. *)
let wallclock_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun r ->
      match r.metric with
      | "wall_ns" ->
          if r.unit_ <> "ns" then
            err "%s procs=%d: wall_ns rows must have unit \"ns\", got %S"
              r.bench r.procs r.unit_;
          if r.value <= 0.0 then
            err "%s procs=%d: wall_ns must be positive, got %s" r.bench
              r.procs (number_to_string r.value)
      | "ops_per_sec" ->
          if r.value <= 0.0 then
            err "%s procs=%d: ops_per_sec must be positive, got %s" r.bench
              r.procs (number_to_string r.value)
      | _ -> ())
    rows;
  List.rev !errors

(* The PR 7 keyed-store gates.  Both store benches must cover the full
   sweep on both measuring backends; the sim counters are exact, so
   entries never exceed ops (batching only merges) and the batched
   handle never publishes more entries than the unbatched baseline; on
   native, folding runs of commuting operations must actually pay off
   once there is real contention (procs >= 4). *)
let store_benches = [ "store_batched"; "store_unbatched" ]

let store_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let find ~backend ~bench ~procs ~metric =
    List.find_opt
      (fun r ->
        r.backend = backend && r.bench = bench && r.procs = procs
        && r.metric = metric)
      rows
  in
  List.iter
    (fun bench ->
      List.iter
        (fun p ->
          List.iter
            (fun (backend, metric) ->
              if find ~backend ~bench ~procs:p ~metric = None then
                err "no %s %s row for %s procs=%d" backend metric bench p)
            [
              ("native", "wall_ns");
              ("native", "ops_per_sec");
              ("sim", "ops");
              ("sim", "entries");
            ])
        [ 1; 2; 4; 8 ])
    store_benches;
  List.iter
    (fun r ->
      if r.backend = "sim" && List.mem r.bench store_benches then
        if r.value < 0.0 || Float.rem r.value 1.0 <> 0.0 then
          err "sim %s procs=%d: %s must be a non-negative integer, got %s"
            r.bench r.procs r.metric (number_to_string r.value))
    rows;
  List.iter
    (fun bench ->
      List.iter
        (fun p ->
          match
            ( find ~backend:"sim" ~bench ~procs:p ~metric:"entries",
              find ~backend:"sim" ~bench ~procs:p ~metric:"ops" )
          with
          | Some e, Some o when e.value > o.value ->
              err "sim %s procs=%d: %s entries exceed %s ops" bench p
                (number_to_string e.value) (number_to_string o.value)
          | _ -> ())
        [ 1; 2; 4; 8 ])
    store_benches;
  List.iter
    (fun p ->
      match
        ( find ~backend:"sim" ~bench:"store_batched" ~procs:p ~metric:"entries",
          find ~backend:"sim" ~bench:"store_unbatched" ~procs:p
            ~metric:"entries" )
      with
      | Some b, Some u when b.value > u.value ->
          err
            "sim procs=%d: batched store published %s entries, more than \
             the unbatched baseline's %s"
            p (number_to_string b.value) (number_to_string u.value)
      | _ -> ())
    [ 1; 2; 4; 8 ];
  List.iter
    (fun p ->
      match
        ( find ~backend:"native" ~bench:"store_batched" ~procs:p
            ~metric:"ops_per_sec",
          find ~backend:"native" ~bench:"store_unbatched" ~procs:p
            ~metric:"ops_per_sec" )
      with
      | Some b, Some u when b.value < u.value ->
          err
            "native procs=%d: batched store throughput (%s ops/s) below \
             unbatched (%s ops/s) — batching must pay off under contention"
            p (number_to_string b.value) (number_to_string u.value)
      | _ -> ())
    [ 4; 8 ];
  List.rev !errors

(* The PR 8 windowed-series gates.  Series rows ([window = Some i],
   metric prefixed [w_]) are per-sampling-window samples from a
   Telemetry.Sampler attached to a stage's run.  Checked per
   (bench, procs, backend) group:

   - the windowed vocabulary is closed ([w_ops], [w_end_ns],
     [w_ops_per_sec], [w_latency_p50]/[w_latency_p99], and
     [w_delta_<event>] over the telemetry event classes);
   - [w_ops] and [w_end_ns] cover contiguous windows 0..k-1 and the
     end timestamps are strictly increasing (the monotone-clock grid);
   - ops and deltas are non-negative integers (counters are monotone);
   - the sum of per-window ops equals the stage's non-windowed "ops"
     total — so a sampler that dropped windows (ring overflow) cannot
     masquerade as full coverage. *)
let w_delta_prefix = "w_delta_"

let is_windowed_metric m =
  String.length m >= 2 && String.sub m 0 2 = "w_"

let known_windowed_metric m =
  List.mem m [ "w_ops"; "w_end_ns"; "w_ops_per_sec"; "w_latency_p50";
               "w_latency_p99" ]
  ||
  let lp = String.length w_delta_prefix in
  String.length m > lp
  && String.sub m 0 lp = w_delta_prefix
  && Telemetry.Event.of_name (String.sub m lp (String.length m - lp)) <> None

let series_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun r ->
      match r.window with
      | Some _ ->
          if not (known_windowed_metric r.metric) then
            err "%s procs=%d: unknown windowed metric %S" r.bench r.procs
              r.metric
      | None ->
          if is_windowed_metric r.metric then
            err "%s procs=%d: metric %S is w_-prefixed but has no window"
              r.bench r.procs r.metric)
    rows;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.window with
      | None -> ()
      | Some w ->
          let key = (r.bench, r.procs, r.backend) in
          let prev =
            Option.value (Hashtbl.find_opt groups key) ~default:[]
          in
          Hashtbl.replace groups key ((w, r) :: prev))
    rows;
  let sorted_metric wrows m =
    List.filter (fun (_, r) -> r.metric = m) wrows
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let check_contiguous bench procs m indexed =
    List.iteri
      (fun i (w, _) ->
        if w <> i then
          err "%s procs=%d: %s windows are not contiguous from 0 (saw %d \
               at position %d)"
            bench procs m w i)
      indexed
  in
  let non_negative_integer v = v >= 0.0 && Float.is_integer v in
  Hashtbl.iter
    (fun (bench, procs, backend) wrows ->
      let w_ops = sorted_metric wrows "w_ops" in
      let w_end = sorted_metric wrows "w_end_ns" in
      if w_ops = [] then
        err "%s procs=%d: windowed rows without a w_ops series" bench procs;
      check_contiguous bench procs "w_ops" w_ops;
      check_contiguous bench procs "w_end_ns" w_end;
      if List.length w_end <> List.length w_ops then
        err "%s procs=%d: w_end_ns covers %d windows but w_ops covers %d"
          bench procs (List.length w_end) (List.length w_ops);
      let rec strictly_increasing = function
        | (_, a) :: ((_, b) :: _ as rest) ->
            if b.value <= a.value then
              err "%s procs=%d: w_end_ns not strictly increasing at window \
                   %d (%s then %s)"
                bench procs
                (Option.value b.window ~default:(-1))
                (number_to_string a.value) (number_to_string b.value);
            strictly_increasing rest
        | _ -> ()
      in
      strictly_increasing w_end;
      List.iter
        (fun (w, r) ->
          let lp = String.length w_delta_prefix in
          let is_delta =
            String.length r.metric > lp && String.sub r.metric 0 lp
                                           = w_delta_prefix
          in
          if
            (r.metric = "w_ops" || is_delta)
            && not (non_negative_integer r.value)
          then
            err "%s procs=%d window %d: %s must be a non-negative integer, \
                 got %s"
              bench procs w r.metric (number_to_string r.value);
          if
            (r.metric = "w_latency_p50" || r.metric = "w_latency_p99"
            || r.metric = "w_ops_per_sec")
            && r.value < 0.0
          then
            err "%s procs=%d window %d: %s must be non-negative, got %s"
              bench procs w r.metric (number_to_string r.value))
        wrows;
      let sum =
        List.fold_left (fun acc (_, r) -> acc +. r.value) 0.0 w_ops
      in
      match
        List.find_opt
          (fun r ->
            r.window = None && r.bench = bench && r.procs = procs
            && r.backend = backend && r.metric = "ops")
          rows
      with
      | None ->
          err "%s procs=%d: windowed series has no %s \"ops\" total row to \
               reconcile against"
            bench procs backend
      | Some total ->
          if sum <> total.value then
            err "%s procs=%d: per-window ops sum to %s but the run total is \
                 %s (windows dropped?)"
              bench procs (number_to_string sum)
              (number_to_string total.value))
    groups;
  List.rev !errors

(* The PR 8 windowed store stages: the open-loop arrival-rate sweep and
   the 50% read mix, procs 4 native, each with a full windowed series.
   Gated on presence so the committed trajectory keeps them. *)
let openloop_rates = [ 2_000.0; 5_000.0; 10_000.0 ]

let openloop_bench_name rate =
  Printf.sprintf "store_openloop_r%d" (int_of_float rate)

let readmix_bench = "store_batched_readmix"

let windowed_stage_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let stages =
    List.map (fun r -> (openloop_bench_name r, Some r)) openloop_rates
    @ [ (readmix_bench, None) ]
  in
  List.iter
    (fun (bench, rate) ->
      let has metric windowed =
        List.exists
          (fun r ->
            r.bench = bench && r.procs = 4 && r.backend = "native"
            && r.metric = metric
            && (r.window <> None) = windowed)
          rows
      in
      List.iter
        (fun metric ->
          if not (has metric false) then
            err "no native %s row for %s procs=4" metric bench)
        [ "wall_ns"; "ops_per_sec"; "ops" ];
      if not (has "w_ops" true) then
        err "no windowed w_ops series for %s procs=4" bench;
      match rate with
      | None -> ()
      | Some rate -> (
          match
            List.find_opt
              (fun r ->
                r.bench = bench && r.procs = 4 && r.backend = "native"
                && r.metric = "target_rate")
              rows
          with
          | None -> err "no target_rate row for %s procs=4" bench
          | Some r ->
              if r.value <> rate then
                err "%s: target_rate row says %s, stage name says %s" bench
                  (number_to_string r.value) (number_to_string rate)))
    stages;
  List.rev !errors

(* The scan-family gates, shared between the full [All] pass and the
   scan-only [Scan] scope: simulator scan rows must equal the Section
   6.2 formulas (they are exact counts, not measurements; the adaptive
   formula applies to the uncontended stage only, since a contended
   scan may escalate; the lattice formula applies to BOTH stages, since
   the classifier-tree scan's count is schedule-oblivious), the adaptive
   fast path may never cost more simulator accesses than the Optimized
   passes it replaces, and the contended lattice scan must beat (or
   tie) contended Optimized at procs >= 4 — the E17 crossover, pinned
   where the formulas guarantee it. *)
let scan_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let scan_formula bench procs =
    let formula variant = Snapshot.Scan.cost_formula ~procs variant in
    if String.length bench >= 10 && String.sub bench 0 10 = "scan_plain" then
      Some (formula Snapshot.Scan.Plain)
    else if String.length bench >= 8 && String.sub bench 0 8 = "scan_opt" then
      Some (formula Snapshot.Scan.Optimized)
    else if bench = "scan_adaptive_uncontended" then
      (* only the uncontended fast path has an exact count: a contended
         adaptive scan may escalate, adding the Optimized passes *)
      Some (formula Snapshot.Scan.Adaptive)
    else if
      String.length bench >= 12 && String.sub bench 0 12 = "scan_lattice"
    then
      (* contended or not: every descent costs the same ceil(log2 n)
         levels, and the one-scan-per-process sim workload all lands in
         generation 1 with no fence retries *)
      Some (formula Snapshot.Scan.Lattice)
    else None
  in
  List.iter
    (fun r ->
      if r.backend = "sim" then
        match scan_formula r.bench r.procs with
        | Some (reads, writes) ->
            let expect =
              match r.metric with
              | "reads" -> Some reads
              | "writes" -> Some writes
              | _ -> None
            in
            Option.iter
              (fun expected ->
                if r.value <> float_of_int expected then
                  err
                    "sim %s procs=%d: %s = %s, cost_formula says %d"
                    r.bench r.procs r.metric (number_to_string r.value)
                    expected)
              expect
        | None -> ())
    rows;
  (* the headline gate: uncontended adaptive must beat (or tie) the
     Optimized variant in TOTAL simulator accesses at every measured
     procs — reads alone would be the wrong comparison, since the
     adaptive fast path trades one saved write for extra validation
     reads at small n *)
  let sim_total bench procs =
    let get metric =
      List.find_opt
        (fun r ->
          r.bench = bench && r.procs = procs && r.backend = "sim"
          && r.metric = metric)
        rows
    in
    match (get "reads", get "writes") with
    | Some r, Some w -> Some (r.value +. w.value)
    | _ -> None
  in
  List.iter
    (fun procs ->
      match
        ( sim_total "scan_adaptive_uncontended" procs,
          sim_total "scan_opt_uncontended" procs )
      with
      | Some a, Some o ->
          if a > o then
            err
              "sim procs=%d: adaptive uncontended scan costs %s accesses, \
               more than optimized's %s"
              procs (number_to_string a) (number_to_string o)
      | None, Some _ ->
          err "no sim scan_adaptive_uncontended rows for procs=%d" procs
      | _ -> ())
    [ 1; 2; 4; 8 ];
  (* the E17 crossover gate: under contention the lattice scan's
     2(n-1) + n ceil(log2 n) + ceil(log2 n) + 3 total accesses must
     come in at or under contended Optimized's n^2 + n at procs >= 4
     (at procs <= 3 Optimized is still cheaper; the formulas cross
     between 3 and 4) *)
  List.iter
    (fun procs ->
      match
        ( sim_total "scan_lattice_contended" procs,
          sim_total "scan_opt_contended" procs )
      with
      | Some l, Some o ->
          if l > o then
            err
              "sim procs=%d: contended lattice scan costs %s accesses, \
               more than optimized's %s"
              procs (number_to_string l) (number_to_string o)
      | None, Some _ ->
          err "no sim scan_lattice_contended rows for procs=%d" procs
      | _ -> ())
    [ 4; 8 ];
  List.rev !errors

(* Cross-checks beyond well-formedness: the scan gates above, native
   throughput coverage of the full procs sweep, and no native counter
   run may have lost updates. *)
let semantic_checks rows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun p ->
      let covered =
        List.exists
          (fun r ->
            r.backend = "native" && r.procs = p && r.metric = "ops_per_sec")
          rows
      in
      if not covered then
        err "no native ops_per_sec row for procs=%d" p)
    [ 1; 2; 4; 8 ];
  List.iter
    (fun r ->
      if r.metric = "lost_updates" && r.value <> 0.0 then
        err "%s procs=%d lost %s updates" r.bench r.procs
          (number_to_string r.value))
    rows;
  (* The PR 5 universal benches must cover the full sweep with the
     wall-clock family. *)
  List.iter
    (fun bench ->
      List.iter
        (fun p ->
          List.iter
            (fun metric ->
              let covered =
                List.exists
                  (fun r ->
                    r.backend = "native" && r.bench = bench && r.procs = p
                    && r.metric = metric)
                  rows
              in
              if not covered then
                err "no native %s row for %s procs=%d" metric bench p)
            [ "wall_ns"; "ops_per_sec" ])
        [ 1; 2; 4; 8 ])
    [ "universal_counter"; "universal_gset" ];
  (* Sim replay counts are deterministic, so the memoized mode may never
     replay more history entries than the from-scratch mode it must
     match byte-for-byte. *)
  List.iter
    (fun r ->
      if r.backend = "sim" && r.metric = "spec_replays" then
        List.iter
          (fun r' ->
            if
              r'.backend = "sim" && r'.bench = r.bench && r'.procs = r.procs
              && r'.metric = "spec_replays_reference"
              && r.value > r'.value
            then
              err
                "sim %s procs=%d: incremental spec_replays (%s) exceeds \
                 reference (%s)"
                r.bench r.procs (number_to_string r.value)
                (number_to_string r'.value))
          rows)
    rows;
  (* Schedule-exploration coverage (PR 6): every explore_* row is an
     exact schedule count (unit "schedules", non-negative integer); each
     stage must emit the full explored/pruned/sampled/violations family;
     the clean atomic-scan stage must stay clean, while each
     injected-bug stage must actually surface its bug — the whole point
     of committing the counts.  Random stages sample (sampled = explored
     > 0); systematic stages do not (sampled = 0). *)
  let explore_stages =
    [
      ("explore_scan_dpor", `Systematic, `Clean);
      ("explore_counter_bounded", `Systematic, `Buggy);
      ("explore_lost_update_uniform", `Random, `Buggy);
      ("explore_racy_max_uniform", `Random, `Buggy);
      ("explore_collect_uniform", `Random, `Buggy);
    ]
  in
  let is_explore bench =
    String.length bench >= 8 && String.sub bench 0 8 = "explore_"
  in
  List.iter
    (fun r ->
      if is_explore r.bench then begin
        if r.backend <> "sim" then
          err "%s procs=%d: explore rows must have backend \"sim\", got %S"
            r.bench r.procs r.backend;
        if r.unit_ <> "schedules" then
          err "%s procs=%d: explore rows must have unit \"schedules\", got %S"
            r.bench r.procs r.unit_;
        if r.value < 0.0 || Float.rem r.value 1.0 <> 0.0 then
          err "%s procs=%d: %s must be a non-negative integer, got %s"
            r.bench r.procs r.metric (number_to_string r.value)
      end)
    rows;
  let explore_metric bench metric =
    List.find_opt
      (fun r -> r.bench = bench && r.metric = metric)
      rows
  in
  List.iter
    (fun (bench, kind, verdict) ->
      let get metric =
        match explore_metric bench metric with
        | Some r -> Some r.value
        | None ->
            err "no %s row for %s" metric bench;
            None
      in
      let explored = get "explored" in
      let _pruned = get "pruned" in
      let sampled = get "sampled" in
      let violations = get "violations" in
      Option.iter
        (fun v ->
          match verdict with
          | `Clean ->
              if v <> 0.0 then
                err "%s: expected a clean exploration, found %s violation(s)"
                  bench (number_to_string v)
          | `Buggy ->
              if v < 1.0 then
                err "%s: injected bug not found within the budget" bench)
        violations;
      match (kind, explored, sampled) with
      | `Random, Some e, Some s ->
          if s <> e || e <= 0.0 then
            err
              "%s: random search must have sampled = explored > 0 \
               (explored=%s, sampled=%s)"
              bench (number_to_string e) (number_to_string s)
      | `Systematic, _, Some s ->
          if s <> 0.0 then
            err "%s: systematic search must have sampled = 0, got %s" bench
              (number_to_string s)
      | _ -> ())
    explore_stages;
  List.rev !errors @ scan_checks rows @ wallclock_checks rows
  @ store_checks rows @ series_checks rows @ windowed_stage_checks rows

(* [Store] restricts the semantic pass to the checks a store-only file
   can satisfy (per-row wall-clock sanity plus the store_* and windowed
   gates), so `wfa store-bench --json` output is CI-gateable without
   carrying every other bench family.  [Series] is the structural
   series pass alone — it gates any file containing windowed rows
   (`bench-validate --only series`) without requiring stage coverage.
   [Scan] is the scan-family pass (formula equalities plus the
   adaptive-beats-optimized access gate) with per-row wall-clock
   sanity, for `bench-validate --only scan`. *)
type scope = All | Store | Series | Scan

let checks_for scope rows =
  match scope with
  | All -> semantic_checks rows
  | Store ->
      wallclock_checks rows @ store_checks rows @ series_checks rows
      @ windowed_stage_checks rows
  | Series -> series_checks rows
  | Scan -> scan_checks rows @ wallclock_checks rows

let validate_string ?(scope = All) contents =
  match Json.parse contents with
  | Error e -> Error [ Printf.sprintf "invalid JSON: %s" e ]
  | Ok (Json.Arr items) when items <> [] -> (
      let rows, errs =
        List.fold_left
          (fun (rows, errs) (i, item) ->
            match row_of_json item with
            | Ok r -> (r :: rows, errs)
            | Error e ->
                (rows, Printf.sprintf "row %d: %s" i e :: errs))
          ([], [])
          (List.mapi (fun i x -> (i, x)) items)
      in
      match List.rev errs with
      | _ :: _ as errs -> Error errs
      | [] -> (
          match checks_for scope (List.rev rows) with
          | [] -> Ok (List.length rows)
          | errs -> Error errs))
  | Ok (Json.Arr []) -> Error [ "empty bench file: no rows" ]
  | Ok _ -> Error [ "top-level JSON value must be an array of rows" ]

let validate_file ?(scope = All) ~path () =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error [ e ]
  | contents -> validate_string ~scope contents

(* --- measurement: simulator step counts ----------------------------------- *)

let procs_sweep = [ 1; 2; 4; 8 ]

module Scan_sim = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Sim_v)

let variant_name = function
  | Snapshot.Scan.Plain -> "scan_plain"
  | Snapshot.Scan.Optimized -> "scan_opt"
  | Snapshot.Scan.Adaptive -> "scan_adaptive"
  | Snapshot.Scan.Lattice -> "scan_lattice"

(* One scan per process; [contended] interleaves all of them round-robin,
   otherwise only pid 0 runs.  Counts come from the sink's driver
   observer — reads and writes from the counter grid, the registers
   touched from the journal — so the rows exercise the same layer users
   get; wait-freedom makes the counts schedule-oblivious, which the
   validator pins down against the formulas. *)
let sim_scan_rows ~variant ~procs ~contended =
  let counters = Telemetry.Counters.create ~procs () in
  let journal = Tracing.Journal.create ~procs () in
  let sink = Runtime.Sink.make ~journal ~telemetry:counters () in
  let program () =
    let t = Scan_sim.create ~procs in
    fun pid ->
      let h = Scan_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      ignore (Scan_sim.scan ~variant h (pid + 1))
  in
  let d =
    Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs program
  in
  if contended then
    Pram.Scheduler.run (Pram.Scheduler.round_robin ()) d
  else ignore (Pram.Driver.run_solo d 0);
  let touched =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           match e.Tracing.ev with
           | Tracing.Access { reg_id; _ } -> Some reg_id
           | _ -> None)
         (Tracing.Journal.events journal))
  in
  let bench =
    Printf.sprintf "%s_%s" (variant_name variant)
      (if contended then "contended" else "uncontended")
  in
  let mk metric e =
    row ~bench ~procs ~backend:"sim" ~metric
      ~value:(float_of_int (Telemetry.Counters.get counters ~pid:0 ~family:0 e))
      ~unit_:"accesses"
  in
  [
    mk "reads" Telemetry.Event.Read;
    mk "writes" Telemetry.Event.Write;
    row ~bench ~procs ~backend:"sim" ~metric:"registers_touched"
      ~value:(float_of_int (List.length touched))
      ~unit_:"registers";
  ]

module UC_sim = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)

(* Per-operation step histogram of the generic universal construction
   under round-robin contention: the history grows with every operation,
   so per-op access counts spread out.  Each operation is an "apply"
   span in a journal fed by the driver observer; the histogram is read
   back from the journal.  Operations come from the seeded workload
   scripts. *)
let sim_universal_rows ~procs ~ops_per_proc =
  let journal = Tracing.Journal.create ~procs () in
  let script = Workload.counter_script ~seed:11 ~ops_per_proc in
  let program () =
    let t = UC_sim.create ~procs in
    fun pid ->
      let h = UC_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      List.iter
        (fun op ->
          ignore
            (Tracing.Journal.with_span journal ~pid ~op:"apply" (fun () ->
                 UC_sim.execute h op)))
        (script pid)
  in
  let d =
    Pram.Driver.create ~observer:(Tracing.Journal.observer journal) ~procs
      program
  in
  Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
  match Tracing.span_stats (Tracing.archive journal) ~op:"apply" with
  | None -> []
  | Some s ->
      let mk metric value =
        row ~bench:"universal_counter_apply" ~procs ~backend:"sim" ~metric
          ~value ~unit_:"accesses"
      in
      [
        mk "steps_min" (float_of_int s.Telemetry.Stats.min);
        mk "steps_mean" s.Telemetry.Stats.mean;
        mk "steps_p99" (float_of_int s.Telemetry.Stats.p99);
        mk "steps_max" (float_of_int s.Telemetry.Stats.max);
      ]

(* PR 5 universal-construction benches: the same deterministic script in
   both construction modes.  Synchronization accesses are identical by
   design (the memo only changes local work — test/test_incremental.ml
   asserts this per schedule); what separates the modes is the number of
   sequential-spec replay calls, emitted side by side so the O(m) vs
   O(m^2) gap is visible in the committed JSON. *)
module Sim_universal (O : Spec.Object_spec.S) = struct
  module U = Universal.Construction.Make (O) (Pram.Memory.Sim_v)

  let run ~procs ~mode ~script =
    let counters = Telemetry.Counters.create ~procs () in
    let sink = Runtime.Sink.make ~telemetry:counters () in
    let replays = Array.make procs 0 in
    let program () =
      let t = U.create ~procs in
      fun pid ->
        let h = U.attach ~mode t (Runtime.Ctx.make ~procs ~pid ()) in
        List.iter (fun op -> ignore (U.execute h op)) (script pid);
        replays.(pid) <- (U.stats h).U.spec_replays
    in
    let d =
      Pram.Driver.create ?observer:(Runtime.Sink.observer sink) ~procs program
    in
    Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
    ( Telemetry.Counters.total counters Telemetry.Event.Read,
      Telemetry.Counters.total counters Telemetry.Event.Write,
      Array.fold_left ( + ) 0 replays )

  let rows ~bench ~procs ~ops_per_proc ~script =
    let reads, writes, inc_replays = run ~procs ~mode:U.Incremental ~script in
    let reads', writes', ref_replays = run ~procs ~mode:U.Reference ~script in
    if reads <> reads' || writes <> writes' then
      failwith
        (Printf.sprintf
           "Bench_json: %s procs=%d: construction modes disagree on \
            synchronization accesses (%d/%d vs %d/%d)"
           bench procs reads writes reads' writes');
    let mk metric value unit_ =
      row ~bench ~procs ~backend:"sim" ~metric
        ~value:(float_of_int value) ~unit_
    in
    [
      mk "reads" reads "accesses";
      mk "writes" writes "accesses";
      mk "ops" (procs * ops_per_proc) "ops";
      mk "spec_replays" inc_replays "calls";
      mk "spec_replays_reference" ref_replays "calls";
    ]
end

module Sim_uc = Sim_universal (Spec.Counter_spec)
module Sim_ug = Sim_universal (Spec.Gset_spec)

(* Commute-heavy scripts (increments/adds with a sprinkling of reads):
   the workload class the paper's Property 1 is about, and the one where
   the incremental memo merges every delta without rebuilds. *)
let bench_counter_script ~ops_per_proc pid =
  List.init ops_per_proc (fun i ->
      if i mod 4 = 3 then Spec.Counter_spec.Read
      else Spec.Counter_spec.Inc (pid + 1))

let bench_gset_script ~ops_per_proc pid =
  List.init ops_per_proc (fun i ->
      if i mod 4 = 3 then Spec.Gset_spec.Members
      else Spec.Gset_spec.Add ((pid * ops_per_proc) + i))

let sim_universal_mode_rows ~quick ~procs =
  let ops_per_proc = if quick then 6 else 12 in
  Sim_uc.rows ~bench:"universal_counter" ~procs ~ops_per_proc
    ~script:(bench_counter_script ~ops_per_proc)
  @ Sim_ug.rows ~bench:"universal_gset" ~procs ~ops_per_proc
      ~script:(bench_gset_script ~ops_per_proc)

module AA_sim = Agreement.Approx_agreement.Make (Pram.Memory.Sim)

let sim_agreement_rows ~procs =
  let program () =
    let t = AA_sim.create ~procs ~epsilon:0.01 in
    fun pid ->
      let h = AA_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      AA_sim.input h 0.5;
      ignore (AA_sim.output h)
  in
  let d = Pram.Driver.create ~procs program in
  ignore (Pram.Driver.run_solo d 0);
  [
    row ~bench:"approx_agreement_solo" ~procs ~backend:"sim" ~metric:"steps"
      ~value:(float_of_int (Pram.Driver.steps d 0))
      ~unit_:"accesses";
  ]

(* --- measurement: keyed store, batched vs unbatched (PR 7) -----------------

   The same zipfian keyed script through Wfa.Store under both batching
   policies.  On the simulator the counters are exact and deterministic:
   ops committed, graph entries published for them (the quantity
   batching shrinks — unbatched publishes exactly one entry per op),
   operations that landed in multi-op entries, chunks closed early by
   the Property 1 check, and sequential-spec replays.  The native rows
   are the wall-clock counterpart, measured through the Workload.Traffic
   front-end so latency percentiles ride along. *)

module Store_sim = Universal.Store.Make (Spec.Counter_spec) (Pram.Memory.Sim_v)
module Store_native =
  Universal.Store.Make (Spec.Counter_spec) (Pram.Native.Versioned)

let store_bench_name = function
  | Universal.Store.Unbatched -> "store_unbatched"
  | Universal.Store.Batched _ -> "store_batched"

let sim_store_rows ~quick ~procs =
  let ops_per_proc = if quick then 6 else 12 in
  let script =
    Workload.keyed_counter_script ~seed:13 ~keys:8 ~theta:0.9
      ~read_fraction:0.0 ~ops_per_proc
  in
  let run batching =
    let stats = Array.make procs None in
    let program () =
      let t = Store_sim.create ~shards:4 ~procs () in
      fun pid ->
        let h =
          Store_sim.attach ~batching t (Runtime.Ctx.make ~procs ~pid ())
        in
        List.iter (fun (key, op) -> Store_sim.submit h ~key op) (script pid);
        ignore (Store_sim.flush h);
        stats.(pid) <- Some (Store_sim.stats h)
    in
    let d = Pram.Driver.create ~procs program in
    Pram.Scheduler.run ~max_steps:50_000_000 (Pram.Scheduler.round_robin ()) d;
    Array.fold_left
      (fun (ops, entries, batched, fallbacks, replays) -> function
        | None -> (ops, entries, batched, fallbacks, replays)
        | Some s ->
            ( ops + s.Store_sim.ops,
              entries + s.Store_sim.entries,
              batched + s.Store_sim.batched_ops,
              fallbacks + s.Store_sim.fallbacks,
              replays + s.Store_sim.spec_replays ))
      (0, 0, 0, 0, 0) stats
  in
  List.concat_map
    (fun batching ->
      let ops, entries, batched_ops, fallbacks, spec_replays = run batching in
      let bench = store_bench_name batching in
      let mk metric value unit_ =
        row ~bench ~procs ~backend:"sim" ~metric
          ~value:(float_of_int value) ~unit_
      in
      [
        mk "ops" ops "ops";
        mk "entries" entries "entries";
        mk "batched_ops" batched_ops "ops";
        mk "fallbacks" fallbacks "chunks";
        mk "spec_replays" spec_replays "calls";
      ])
    [ Universal.Store.Batched 8; Universal.Store.Unbatched ]

(* --- measurement: schedule-exploration coverage (PR 6) ---------------------

   The ways search (Pram.Explore.search) emits explored/pruned/sampled
   counters; committing them makes schedule-coverage regressions
   diffable across PRs, the same way the step counts pin the cost
   formulas.  Fixtures are the injected-bug corpus:

   - explore_scan_dpor:          atomic scan, parallel unbounded DPOR —
                                 must stay clean (violations = 0);
   - explore_counter_bounded:    lost-update counter under the default
                                 pre-emption bound — the bug needs one
                                 pre-emption, so bounded DPOR finds it;
   - explore_*_uniform (procs 6): seeded uniform sampling on the
                                 lost-update counter, the racy max
                                 register, and the naive collect — each
                                 must surface >= 1 violation within the
                                 budget (the collect's is a real-time
                                 -order bug systematic DPOR misses).

   All stages are deterministic (fixed seeds, jobs-independent task
   partition), so the committed counts are exactly reproducible. *)

(* Every process increments a shared counter non-atomically (read, then
   write v+1).  The final value is [procs] iff no update was lost; the
   register is smuggled out of the setup closure by reference, relying
   on the explorer's leaf-instance invariant. *)
let lost_update_instance ~procs () =
  let cell = ref None in
  let setup () =
    let r = Pram.Memory.Sim.create 0 in
    cell := Some r;
    fun _pid ->
      let v = Pram.Memory.Sim.read r in
      Pram.Memory.Sim.write r (v + 1)
  in
  Pram.Explore.instance setup ~check:(fun _d _sched ->
      match !cell with
      | Some r -> Pram.Register.get r = procs
      | None -> true)

(* Each process proposes pid+1 with a racy read-test-write maximum: a
   process holding a stale read can overwrite a larger proposal, so the
   final value can undershoot the true maximum [procs]. *)
let racy_max_instance ~procs () =
  let cell = ref None in
  let setup () =
    let r = Pram.Memory.Sim.create 0 in
    cell := Some r;
    fun pid ->
      let v = Pram.Memory.Sim.read r in
      if v < pid + 1 then Pram.Memory.Sim.write r (pid + 1)
  in
  Pram.Explore.instance setup ~check:(fun _d _sched ->
      match !cell with
      | Some r -> Pram.Register.get r = procs
      | None -> true)

module Scan_spec_nm = Snapshot.Scan_spec.Make (Semilattice.Nat_max)
module Scan_lin = Lincheck.Make (Scan_spec_nm)

(* The 2-process atomic-scan fixture from the exhaustive tests (writer +
   two scanners' worth of history), checked through the full
   linearizability oracle. *)
let scan_mk () =
  let procs = 2 in
  let recorder = ref (Spec.History.Recorder.create ()) in
  let program () =
    recorder := Spec.History.Recorder.create ();
    let t = Scan_sim.create ~procs in
    fun pid ->
      let h = Scan_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      if pid = 0 then begin
        ignore
          (Spec.History.Recorder.record !recorder ~pid (`Write_l 1) (fun () ->
               Scan_sim.write_l h 1;
               `Unit));
        ignore
          (Spec.History.Recorder.record !recorder ~pid `Read_max (fun () ->
               `Join (Scan_sim.read_max h)))
      end
      else
        ignore
          (Spec.History.Recorder.record !recorder ~pid `Read_max (fun () ->
               `Join (Scan_sim.read_max h)))
  in
  (recorder, program)

module Collect_sim =
  Snapshot.Collect.Make (Snapshot.Slot_value.Int) (Pram.Memory.Sim)
module Collect_spec6 =
  Snapshot.Array_spec.Make
    (Snapshot.Slot_value.Int)
    (struct
      let procs = 6
    end)
module Collect_check6 = Lincheck.Make (Collect_spec6)

let collect6_mk () =
  let procs = 6 in
  let recorder = ref (Spec.History.Recorder.create ()) in
  let program () =
    recorder := Spec.History.Recorder.create ();
    let t = Collect_sim.create ~procs in
    fun pid ->
      let h = Collect_sim.attach t (Runtime.Ctx.make ~procs ~pid ()) in
      if pid < procs - 1 then
        ignore
          (Spec.History.Recorder.record !recorder ~pid
             (`Update (pid, pid + 10)) (fun () ->
               Collect_sim.update h (pid + 10);
               `Unit))
      else
        ignore
          (Spec.History.Recorder.record !recorder ~pid `Snapshot (fun () ->
               `View (Collect_sim.snapshot h)))
  in
  (recorder, program)

let coverage_rows ~bench ~procs (o : Pram.Explore.outcome) =
  let mk metric value =
    row ~bench ~procs ~backend:"sim" ~metric ~value:(float_of_int value)
      ~unit_:"schedules"
  in
  [
    mk "explored" o.coverage.Pram.Explore.cov_explored;
    mk "pruned" o.coverage.Pram.Explore.cov_pruned;
    mk "sampled" o.coverage.Pram.Explore.cov_sampled;
    mk "violations" (List.length o.failures);
  ]

let explore_rows ~quick =
  let samples = if quick then 400 else 1_200 in
  let seed = 2026 in
  let uniform = Pram.Explore.Way.Uniform { seed; count = samples } in
  let scan_dpor =
    (Scan_lin.search_check ~way:Pram.Explore.Way.systematic ~jobs:2 ~procs:2
       scan_mk)
      .Pram.Explore.r_outcome
  in
  let counter_bounded =
    Pram.Explore.search
      ~way:(Pram.Explore.Way.Systematic Pram.Explore.Bounds.default)
      ~jobs:2 ~procs:3 (lost_update_instance ~procs:3)
  in
  let lost_uniform =
    Pram.Explore.search ~way:uniform ~jobs:2 ~procs:6
      (lost_update_instance ~procs:6)
  in
  let racy_uniform =
    Pram.Explore.search ~way:uniform ~jobs:2 ~procs:6
      (racy_max_instance ~procs:6)
  in
  let collect_uniform =
    (Collect_check6.search_check ~way:uniform ~jobs:2 ~shrink:false ~procs:6
       collect6_mk)
      .Pram.Explore.r_outcome
  in
  List.concat
    [
      coverage_rows ~bench:"explore_scan_dpor" ~procs:2 scan_dpor;
      coverage_rows ~bench:"explore_counter_bounded" ~procs:3 counter_bounded;
      coverage_rows ~bench:"explore_lost_update_uniform" ~procs:6 lost_uniform;
      coverage_rows ~bench:"explore_racy_max_uniform" ~procs:6 racy_uniform;
      coverage_rows ~bench:"explore_collect_uniform" ~procs:6 collect_uniform;
    ]

let sim_rows ~quick =
  let sweep = procs_sweep in
  List.concat
    [
      List.concat_map
        (fun procs ->
          List.concat_map
            (fun variant ->
              List.concat_map
                (fun contended -> sim_scan_rows ~variant ~procs ~contended)
                [ false; true ])
            [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized;
              Snapshot.Scan.Adaptive; Snapshot.Scan.Lattice ])
        sweep;
      List.concat_map
        (fun procs ->
          sim_universal_rows ~procs ~ops_per_proc:(if quick then 4 else 8))
        (if quick then [ 1; 2; 4 ] else sweep);
      (* the mode-comparison rows keep the full sweep even under --quick:
         the validator requires universal coverage at procs 1/2/4/8 *)
      List.concat_map (fun procs -> sim_universal_mode_rows ~quick ~procs)
        sweep;
      List.concat_map (fun procs -> sim_agreement_rows ~procs) sweep;
      (* the store counters keep the full sweep under --quick too: the
         validator requires store coverage at procs 1/2/4/8 *)
      List.concat_map (fun procs -> sim_store_rows ~quick ~procs) sweep;
      (* schedule-exploration coverage keeps its full stage list under
         --quick too (smaller sample budgets): the validator gates on
         stage presence and on each seeded stage finding its bug *)
      explore_rows ~quick;
    ]

(* --- measurement: native wall-clock ---------------------------------------- *)

module Counter_native = Universal.Direct.Counter (Pram.Native.Versioned)
module Scan_native = Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Native.Versioned)
module Arr_native =
  Snapshot.Snapshot_array.Make (Snapshot.Slot_value.Int) (Pram.Native.Versioned)

(* The wall-clock metric family (PR 5): every native timing emits the
   raw elapsed span (wall_ns) next to the derived throughput rows, so
   downstream tooling never has to reconstruct one from the other. *)
let throughput_rows ~bench ~procs ~total_ops ~elapsed extra =
  let ops = float_of_int total_ops in
  row ~bench ~procs ~backend:"native" ~metric:"wall_ns"
    ~value:(elapsed *. 1e9) ~unit_:"ns"
  :: row ~bench ~procs ~backend:"native" ~metric:"ops_per_sec"
       ~value:(ops /. elapsed) ~unit_:"ops/s"
  :: row ~bench ~procs ~backend:"native" ~metric:"ns_per_op"
       ~value:(elapsed *. 1e9 /. ops) ~unit_:"ns"
  :: extra

let native_counter_rows ~quick ~procs =
  let ops_per_proc = if quick then 5_000 else 50_000 in
  let counter = Counter_native.create ~procs in
  let _, elapsed =
    Pram.Native.run_parallel_timed ~procs (fun pid ->
        let h = Counter_native.attach counter (Runtime.Ctx.make ~procs ~pid ()) in
        for _ = 1 to ops_per_proc do
          Counter_native.inc h 1
        done)
  in
  let total_ops = procs * ops_per_proc in
  let final =
    Counter_native.read
      (Counter_native.attach counter (Runtime.Ctx.make ~procs ~pid:0 ()))
  in
  throughput_rows ~bench:"counter_inc" ~procs ~total_ops ~elapsed
    [
      row ~bench:"counter_inc" ~procs ~backend:"native"
        ~metric:"lost_updates"
        ~value:(float_of_int (total_ops - final))
        ~unit_:"ops";
    ]

module UC_native = Universal.Construction.Make (Spec.Counter_spec) (Pram.Native.Versioned)
module UG_native = Universal.Construction.Make (Spec.Gset_spec) (Pram.Native.Versioned)

(* Wall-clock of the generic universal construction on real domains
   (incremental mode, the default), one domain per process, every domain
   running the same commute-heavy script as the sim rows.  Uses
   [run_parallel_timed], so spawn/join overhead is inside the span —
   the op counts are sized to dominate it. *)
let native_universal_counter_rows ~quick ~procs =
  let ops_per_proc = if quick then 120 else 600 in
  let t = UC_native.create ~procs in
  let _, elapsed =
    Pram.Native.run_parallel_timed ~procs (fun pid ->
        let h = UC_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
        List.iter
          (fun op -> ignore (UC_native.execute h op))
          (bench_counter_script ~ops_per_proc pid))
  in
  throughput_rows ~bench:"universal_counter" ~procs
    ~total_ops:(procs * ops_per_proc) ~elapsed []

(* Serialize a finished telemetry series as windowed rows: per window
   the op count, the end-of-window timestamp on the sampler's interval
   grid, the derived window throughput, latency quantiles when the
   window saw operations, and the non-zero counter deltas.  The shape
   the [series_checks] validator gates. *)
let series_rows ~bench ~procs ~backend (s : Telemetry.Series.t) =
  List.concat_map
    (fun (w : Telemetry.Window.t) ->
      let mk metric value unit_ =
        wrow ~window:w.Telemetry.Window.index ~bench ~procs ~backend ~metric
          ~value ~unit_
      in
      List.concat
        [
          [
            mk "w_ops" (float_of_int w.Telemetry.Window.ops) "ops";
            mk "w_end_ns" (w.Telemetry.Window.t_end *. 1e9) "ns";
            mk "w_ops_per_sec"
              (float_of_int w.Telemetry.Window.ops /. s.Telemetry.Series.interval)
              "ops/s";
          ];
          (match w.Telemetry.Window.latency with
          | None -> []
          | Some st ->
              [
                mk "w_latency_p50" (float_of_int st.Telemetry.Stats.p50) "ns";
                mk "w_latency_p99" (float_of_int st.Telemetry.Stats.p99) "ns";
              ]);
          List.filter_map
            (fun e ->
              let d =
                w.Telemetry.Window.deltas.(Telemetry.Event.index e)
              in
              if d = 0 then None
              else
                Some
                  (mk
                     (w_delta_prefix ^ Telemetry.Event.name e)
                     (float_of_int d) "events"))
            Telemetry.Event.all;
        ])
    s.Telemetry.Series.windows

(* One native store stage with full telemetry: a counter grid sized to
   the shard count rides in the sink (so the handles attribute
   fallbacks/queue-depth/rebuilds per shard), and one shared sampler
   windows the run.  Returns the classic wall-clock family plus the
   "ops" reconciliation total and the windowed series. *)
let native_store_stage ~bench ~procs ~batching ~read_fraction ~seed ~loop
    ~ops_per_proc ~interval extra =
  let shards = 8 in
  let script =
    Workload.keyed_counter_script ~seed ~keys:32 ~theta:0.9 ~read_fraction
      ~ops_per_proc
  in
  let counters = Telemetry.Counters.create ~families:shards ~procs () in
  let sampler = Telemetry.Sampler.create ~interval ~counters () in
  let sink = Runtime.Sink.make ~telemetry:counters () in
  let t = Store_native.create ~shards ~procs () in
  let flush_every =
    match batching with
    | Universal.Store.Batched n -> n
    | Universal.Store.Unbatched -> 64
  in
  let results, elapsed =
    Pram.Native.run_parallel_timed ~procs (fun pid ->
        let h =
          Store_native.attach ~batching t
            (Runtime.Ctx.make ~sink ~procs ~pid ())
        in
        let report =
          Workload.Traffic.drive ~telemetry:sampler ?loop ~flush_every
            ~ops:(script pid)
            ~submit:(fun key op -> Store_native.submit h ~key op)
            ~flush:(fun () -> ignore (Store_native.flush h))
            ()
        in
        (report, Store_native.stats h))
  in
  Telemetry.Sampler.finish sampler;
  let series = Telemetry.Series.of_sampler sampler in
  let entries =
    List.fold_left (fun a (_, s) -> a + s.Store_native.entries) 0 results
  in
  let merged = Workload.Traffic.merge (List.map fst results) in
  let latency_rows =
    match merged.Workload.Traffic.latency with
    | None -> []
    | Some s ->
        [
          row ~bench ~procs ~backend:"native" ~metric:"latency_p99"
            ~value:(float_of_int s.Telemetry.Stats.p99) ~unit_:"ns";
          row ~bench ~procs ~backend:"native" ~metric:"latency_mean"
            ~value:s.Telemetry.Stats.mean ~unit_:"ns";
        ]
  in
  throughput_rows ~bench ~procs ~total_ops:merged.Workload.Traffic.ops
    ~elapsed
    (row ~bench ~procs ~backend:"native" ~metric:"ops"
       ~value:(float_of_int merged.Workload.Traffic.ops)
       ~unit_:"ops"
     :: row ~bench ~procs ~backend:"native" ~metric:"entries"
          ~value:(float_of_int entries) ~unit_:"entries"
     :: (latency_rows @ extra))
  @ series_rows ~bench ~procs ~backend:"native" series

(* The native store stage: every domain drives its keyed zipfian script
   through the Workload.Traffic front-end (closed loop, flush at the
   batch ceiling), so wall-clock throughput and per-op latency
   percentiles come out of the same run.  Batched vs unbatched on the
   same script is the amortization claim of DESIGN.md §12 in wall-clock
   form; the validator requires batched >= unbatched at procs >= 4. *)
let native_store_rows ~quick ~procs =
  (* quick stays at several hundred ops per domain: shorter runs are
     dominated by domain spawn/flush jitter and the batched-vs-unbatched
     ordering the validator gates on becomes noise on small hosts *)
  let ops_per_proc = if quick then 500 else 1_000 in
  List.concat_map
    (fun batching ->
      native_store_stage
        ~bench:(store_bench_name batching)
        ~procs ~batching ~read_fraction:0.0 ~seed:17 ~loop:None ~ops_per_proc
        ~interval:0.005 [])
    [ Universal.Store.Batched 64; Universal.Store.Unbatched ]

(* The PR 8 windowed stages the validator gates on by name:

   - an open-loop arrival-rate sweep (the ROADMAP item Traffic has
     supported since PR 7 but no bench exercised): each of the 4
     domains offers rate/4 op/s, so the stage's aggregate offered load
     is the advertised rate, and latency is charged from the scheduled
     arrival (coordinated-omission corrected);
   - the 50% read mix, so the read path finally shows in a windowed
     series (every prior store bench ran read_fraction 0.0). *)
let native_store_openloop_rows ~quick ~rate =
  let procs = 4 in
  let ops_per_proc = if quick then 100 else 250 in
  let per_proc_rate = rate /. float_of_int procs in
  native_store_stage
    ~bench:(openloop_bench_name rate)
    ~procs ~batching:(Universal.Store.Batched 64) ~read_fraction:0.0 ~seed:17
    ~loop:(Some (Workload.Traffic.Open { rate = per_proc_rate }))
    ~ops_per_proc ~interval:0.01
    [
      row ~bench:(openloop_bench_name rate) ~procs ~backend:"native"
        ~metric:"target_rate" ~value:rate ~unit_:"ops/s";
    ]

let native_store_readmix_rows ~quick =
  let procs = 4 in
  let ops_per_proc = if quick then 500 else 1_000 in
  native_store_stage ~bench:readmix_bench ~procs
    ~batching:(Universal.Store.Batched 64) ~read_fraction:0.5 ~seed:19
    ~loop:None ~ops_per_proc ~interval:0.005 []

let windowed_store_rows ~quick =
  List.concat_map (fun rate -> native_store_openloop_rows ~quick ~rate)
    openloop_rates
  @ native_store_readmix_rows ~quick

let native_universal_gset_rows ~quick ~procs =
  let ops_per_proc = if quick then 100 else 400 in
  let t = UG_native.create ~procs in
  let _, elapsed =
    Pram.Native.run_parallel_timed ~procs (fun pid ->
        let h = UG_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
        List.iter
          (fun op -> ignore (UG_native.execute h op))
          (bench_gset_script ~ops_per_proc pid))
  in
  throughput_rows ~bench:"universal_gset" ~procs
    ~total_ops:(procs * ops_per_proc) ~elapsed []

(* Contended vs uncontended scan on real domains.  The step counts are
   identical by wait-freedom (the sim rows pin that down); what contention
   changes is the wall-clock cost of the same accesses — cache-line
   traffic on the shared grid — which single-pid benches cannot see. *)
let native_scan_variant_rows ~quick ~variant ~procs ~contended =
  let scans = if quick then 500 else 5_000 in
  let t = Scan_native.create ~procs in
  let body pid () =
    let h = Scan_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
    for i = 1 to scans do
      ignore (Scan_native.scan ~variant h i)
    done
  in
  let domains = if contended then procs else 1 in
  let _, elapsed =
    Pram.Native.run_parallel_timed ~procs:domains (fun pid -> body pid ())
  in
  let bench =
    Printf.sprintf "%s_%s" (variant_name variant)
      (if contended then "contended" else "uncontended")
  in
  throughput_rows ~bench ~procs ~total_ops:(domains * scans) ~elapsed []

(* Register footprint of the scan grid, measured through the
   [Runtime.Instrument] wrapper rather than asserted from the formula. *)
let native_scan_footprint_rows ~procs =
  let module Inst =
    Runtime.Instrument
      (Pram.Native.Mem)
      (struct
        let sink = Runtime.Sink.none
      end)
  in
  let module Scan_inst =
    Snapshot.Scan.Make (Semilattice.Nat_max) (Pram.Memory.Versioned (Inst))
  in
  let t = Scan_inst.create ~procs in
  Runtime.set_pid 0;
  let h = Scan_inst.attach t (Runtime.Ctx.make ~procs ~pid:0 ()) in
  ignore (Scan_inst.scan h 1);
  [
    row ~bench:"scan_grid" ~procs ~backend:"native" ~metric:"registers"
      ~value:(float_of_int (Inst.registers_created ()))
      ~unit_:"registers";
  ]

let native_array_rows ~quick ~procs ~contended =
  let pairs = if quick then 500 else 5_000 in
  let t = Arr_native.create ~procs in
  let domains = if contended then procs else 1 in
  let _, elapsed =
    Pram.Native.run_parallel_timed ~procs:domains (fun pid ->
        let h = Arr_native.attach t (Runtime.Ctx.make ~procs ~pid ()) in
        for i = 1 to pairs do
          Arr_native.update h i;
          ignore (Arr_native.snapshot h)
        done)
  in
  let bench =
    Printf.sprintf "snapshot_array_%s"
      (if contended then "contended" else "uncontended")
  in
  throughput_rows ~bench ~procs ~total_ops:(domains * pairs) ~elapsed []

(* The contended/uncontended scan and snapshot-array sweep, exposed
   separately so the human-readable timing section of bench/main.exe can
   print the same measurements it serializes. *)
let native_scan_rows ~quick =
  List.concat_map
    (fun procs ->
      List.concat
        [
          List.concat_map
            (fun variant ->
              List.concat_map
                (fun contended ->
                  native_scan_variant_rows ~quick ~variant ~procs ~contended)
                [ false; true ])
            [ Snapshot.Scan.Plain; Snapshot.Scan.Optimized;
              Snapshot.Scan.Adaptive; Snapshot.Scan.Lattice ];
          native_array_rows ~quick ~procs ~contended:false;
          native_array_rows ~quick ~procs ~contended:true;
          native_scan_footprint_rows ~procs;
        ])
    procs_sweep

let native_rows ~quick =
  List.concat
    [
      List.concat_map (fun procs -> native_counter_rows ~quick ~procs)
        procs_sweep;
      List.concat_map
        (fun procs -> native_universal_counter_rows ~quick ~procs)
        procs_sweep;
      List.concat_map
        (fun procs -> native_universal_gset_rows ~quick ~procs)
        procs_sweep;
      List.concat_map (fun procs -> native_store_rows ~quick ~procs)
        procs_sweep;
      windowed_store_rows ~quick;
      native_scan_rows ~quick;
    ]

(* The store stages alone (sim counters + native throughput, full
   sweep): what `wfa store-bench` runs and validates under [Store]
   scope. *)
let store_rows ~quick =
  List.concat
    [
      List.concat_map (fun procs -> sim_store_rows ~quick ~procs) procs_sweep;
      List.concat_map (fun procs -> native_store_rows ~quick ~procs)
        procs_sweep;
      windowed_store_rows ~quick;
    ]

(* --- measurement: single-threaded direct timing (B4-B6) -------------------- *)

let time_direct ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

module UC_direct = Universal.Construction.Make (Spec.Counter_spec) (Pram.Memory.Direct_v)
module AA_direct = Agreement.Approx_agreement.Make (Pram.Memory.Direct)

let direct_rows ~quick =
  let procs = 4 in
  let window = 64 in
  let ctx0 = Runtime.Ctx.make ~procs ~pid:0 () in
  (* windowed universal counter in both construction modes: the same
     op stream, recreated every [window] ops so the history stays
     bounded; the incremental/Reference pair is the B4 before/after *)
  let uc_mode_ns mode =
    let uc = ref (UC_direct.attach ~mode (UC_direct.create ~procs) ctx0) in
    let k = ref 0 in
    time_direct
      ~iters:(if quick then 200 else 2_000)
      (fun () ->
        incr k;
        if !k mod window = 0 then
          uc := UC_direct.attach ~mode (UC_direct.create ~procs) ctx0;
        ignore (UC_direct.execute !uc (Spec.Counter_spec.Inc 1)))
  in
  let uc_ns = uc_mode_ns UC_direct.Incremental in
  let uc_ref_ns = uc_mode_ns UC_direct.Reference in
  let aa_ns =
    time_direct
      ~iters:(if quick then 100 else 1_000)
      (fun () ->
        let t = AA_direct.create ~procs ~epsilon:0.01 in
        let h = AA_direct.attach t ctx0 in
        AA_direct.input h 0.5;
        ignore (AA_direct.output h))
  in
  let nodes = 64 in
  let edges = List.init (nodes - 1) (fun i -> (i, i + 1)) in
  let lg_ns =
    time_direct
      ~iters:(if quick then 50 else 500)
      (fun () ->
        ignore
          (Universal.Lingraph.build ~nodes ~precedence_edges:edges
             ~dominates:(fun i j -> (i + j) mod 3 = 0)))
  in
  let mk bench procs value =
    row ~bench ~procs ~backend:"direct" ~metric:"ns_per_op" ~value ~unit_:"ns"
  in
  [
    mk "universal_counter_inc" procs uc_ns;
    mk "universal_counter_inc_reference" procs uc_ref_ns;
    mk "approx_agreement_solo" procs aa_ns;
    mk "lingraph_build_k64" 1 lg_ns;
  ]

(* --- the pipeline ----------------------------------------------------------- *)

let collect ~quick =
  List.concat [ sim_rows ~quick; native_rows ~quick; direct_rows ~quick ]

let default_path = "BENCH_PR10.json"

(* Runs the full pipeline and writes [path]; returns the rows. *)
let run ?(path = default_path) ~quick () =
  let rows = collect ~quick in
  write_file ~path rows;
  rows
