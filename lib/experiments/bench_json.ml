(* The bench rows and their gates: one flat row schema, its JSON emitter
   and reader, and the validator that `wfa bench` and `wfa
   bench-validate` run.  The stages that measure the rows are in
   Bench_stages.

     { "bench": "scan_plain_contended", "procs": 4, "backend": "sim",
       "metric": "reads", "value": 21, "unit": "accesses" }

   Rows carrying an optional 7th field "window" are time-series samples:
   the value of a w_-prefixed metric during one fixed-width telemetry
   sampling window of the stage's run, validated by the series gates
   (monotone window timestamps, non-negative deltas, ops reconciliation
   against the run total).

   The gates are one table ([gates]) of (families, row selector, check,
   message) read by one interpreter ([gate_errors]); `--only F`
   restricts the pass to the gates of family F. *)

(* --- rows and JSON emission ----------------------------------------------- *)

type row = {
  bench : string;
  procs : int;
  backend : string;
  metric : string;
  value : float;
  unit_ : string;
  window : int option;
      (* [Some i] marks a windowed time-series sample — the value
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

(* --- the gates ------------------------------------------------------------ *)

(* A bench family names the gates (and the stages, see Bench_stages) of
   one `--only` scope.  The full validator runs every gate. *)
type family = Store | Series | Scan

let procs_sweep = [ 1; 2; 4; 8 ]
let store_benches = [ "store_batched"; "store_unbatched" ]
let universal_benches = [ "universal_counter"; "universal_gset" ]

(* the windowed store stages: the open-loop arrival-rate sweep and the
   50% read mix, procs 4 native *)
let openloop_rates = [ 2_000.0; 5_000.0; 10_000.0 ]

let openloop_bench_name rate =
  Printf.sprintf "store_openloop_r%d" (int_of_float rate)

let readmix_bench = "store_batched_readmix"

(* the schedule-exploration stages, each with its search kind and the
   verdict its injected-bug corpus must produce *)
let explore_stages =
  [
    ("explore_scan_dpor", `Systematic, `Clean);
    ("explore_counter_bounded", `Systematic, `Buggy);
    ("explore_lost_update_uniform", `Random, `Buggy);
    ("explore_racy_max_uniform", `Random, `Buggy);
    ("explore_collect_uniform", `Random, `Buggy);
  ]

let w_delta_prefix = "w_delta_"
let starts_with prefix s = String.starts_with ~prefix s
let is_windowed_metric = starts_with "w_"

let known_windowed_metric m =
  List.mem m
    [ "w_ops"; "w_end_ns"; "w_ops_per_sec"; "w_latency_p50"; "w_latency_p99" ]
  || starts_with w_delta_prefix m
     && Telemetry.Event.of_name
          (String.sub m (String.length w_delta_prefix)
             (String.length m - String.length w_delta_prefix))
        <> None

type check =
  | Present  (** at least one row is selected *)
  | Each of (row -> bool)  (** every selected row satisfies the predicate *)
  | Le of {
      lhs : string list;
      rhs : (row -> bool) * string list;
      per_bench : bool;
      strict : bool;
    }
      (** At every procs (and, with [per_bench], every bench) where both
          sides have rows, the selected rows' [lhs] metrics, summed, are
          at most the [rhs] rows' metrics, summed — with duplicated rows,
          the largest left value against the smallest right one.  A side
          has a value only if each of its metrics has a row.  [strict]:
          a right side without a left one is an error too. *)
  | Formula of Snapshot.Scan.variant
      (** every selected reads/writes row equals [Scan.cost_formula] *)
  | Windows
      (** the selected windowed rows form well-formed series, see
          [window_errors] *)

type gate = {
  families : family list;
  select : row -> bool;
  check : check;
  msg : string;
}

let gate families select check msg = { families; select; check; msg }

(* [is ?backend ?procs ?metric ?windowed bench r]: [r] is a row of
   [bench] with the given backend, procs, metric and windowedness (any,
   where not given). *)
let is ?backend ?procs ?metric ?windowed bench r =
  r.bench = bench
  && Option.fold ~none:true ~some:(( = ) r.backend) backend
  && Option.fold ~none:true ~some:(( = ) r.procs) procs
  && Option.fold ~none:true ~some:(( = ) r.metric) metric
  && Option.fold ~none:true ~some:(( = ) (r.window <> None)) windowed

let metric_is m r = r.metric = m
let positive r = r.value > 0.0
let non_negative_integer r = r.value >= 0.0 && Float.is_integer r.value
let windowed r = r.window <> None

let present families select msg = gate families select Present msg

(* one presence gate per (metric, procs) of [bench] on [backend] *)
let coverage families ?windowed ~backend bench metrics procs =
  List.concat_map
    (fun metric ->
      List.map
        (fun procs ->
          present families
            (is ~backend ~procs ~metric ?windowed bench)
            (Printf.sprintf "no %s %s row for %s procs=%d" backend metric
               bench procs))
        procs)
    metrics

let le ?(per_bench = false) ?(strict = false) families select lhs rhs msg =
  gate families select (Le { lhs; rhs; per_bench; strict }) msg

(* The windowed-series structure, per (bench, procs, backend) group of
   windowed rows: [w_ops] and [w_end_ns] cover contiguous windows
   0..k-1, the end timestamps strictly increase (the monotone-clock
   grid), and the per-window ops sum to the stage's non-windowed "ops"
   total — so a sampler that dropped windows (ring overflow) cannot
   masquerade as full coverage. *)
let window_errors rows wrows =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = (r.bench, r.procs, r.backend) in
      Hashtbl.replace groups key
        (r :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    wrows;
  Hashtbl.iter
    (fun (bench, procs, backend) group ->
      let series m =
        List.filter (metric_is m) group
        |> List.sort (fun a b -> compare a.window b.window)
      in
      let w_ops = series "w_ops" and w_end = series "w_end_ns" in
      if w_ops = [] then
        err "%s procs=%d: windowed rows without a w_ops series" bench procs;
      List.iter
        (fun (m, s) ->
          List.iteri
            (fun i r ->
              if r.window <> Some i then
                err
                  "%s procs=%d: %s windows are not contiguous from 0 (saw %d \
                   at position %d)"
                  bench procs m
                  (Option.value r.window ~default:(-1))
                  i)
            s)
        [ ("w_ops", w_ops); ("w_end_ns", w_end) ];
      if List.length w_end <> List.length w_ops then
        err "%s procs=%d: w_end_ns covers %d windows but w_ops covers %d"
          bench procs (List.length w_end) (List.length w_ops);
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            if b.value <= a.value then
              err
                "%s procs=%d: w_end_ns not strictly increasing at window %d \
                 (%s then %s)"
                bench procs
                (Option.value b.window ~default:(-1))
                (number_to_string a.value) (number_to_string b.value);
            increasing rest
        | _ -> ()
      in
      increasing w_end;
      let sum = List.fold_left (fun acc r -> acc +. r.value) 0.0 w_ops in
      match
        List.find_opt (is ~backend ~procs ~metric:"ops" ~windowed:false bench)
          rows
      with
      | None ->
          err
            "%s procs=%d: windowed series has no %s \"ops\" total row to \
             reconcile against"
            bench procs backend
      | Some total ->
          if sum <> total.value then
            err
              "%s procs=%d: per-window ops sum to %s but the run total is %s \
               (windows dropped?)"
              bench procs (number_to_string sum)
              (number_to_string total.value))
    groups;
  List.rev !errors

(* Every gate, one entry each.  Families: wall-clock sanity runs under
   `--only store` and `--only scan`; the store gates and the windowed
   stage gates under store; the series gates under store and series; the
   scan gates under scan; entries with no family (universal coverage,
   lost updates, spec replays, exploration coverage) only in the full
   pass. *)
let gates =
  let wallclock = [ Store; Scan ] and store = [ Store ] in
  let series = [ Store; Series ] and scan = [ Scan ] and full = [] in
  let accesses = [ "reads"; "writes" ] in
  let sim_at procs bench r =
    is ~backend:"sim" bench r && List.mem r.procs procs
  in
  List.concat
    [
      (* wall-clock rows are schema-checked but not threshold-gated:
         actual magnitudes are machine-dependent *)
      [
        gate wallclock (metric_is "wall_ns")
          (Each (fun r -> r.unit_ = "ns"))
          "wall_ns rows must have unit \"ns\"";
        gate wallclock (metric_is "wall_ns") (Each positive)
          "wall_ns must be positive";
        gate wallclock (metric_is "ops_per_sec") (Each positive)
          "ops_per_sec must be positive";
      ];
      (* the keyed store: full sweep on both measuring backends; exact
         sim counters, so entries never exceed ops (batching only
         merges) and batching never publishes more entries than the
         unbatched baseline; on native, batching must pay off under
         real contention (procs >= 4) *)
      List.concat_map
        (fun bench ->
          coverage store ~backend:"native" bench [ "wall_ns"; "ops_per_sec" ]
            procs_sweep
          @ coverage store ~backend:"sim" bench [ "ops"; "entries" ] procs_sweep
          @ [
              gate store (is ~backend:"sim" bench) (Each non_negative_integer)
                "sim store counters must be non-negative integers";
              le store (sim_at procs_sweep bench) [ "entries" ]
                (is ~backend:"sim" bench, [ "ops" ])
                (bench ^ " sim entries <= ops");
            ])
        store_benches;
      [
        le store
          (sim_at procs_sweep "store_batched")
          [ "entries" ]
          (is ~backend:"sim" "store_unbatched", [ "entries" ])
          "sim store_batched entries <= store_unbatched entries";
        le store
          (fun r ->
            is ~backend:"native" "store_unbatched" r
            && List.mem r.procs [ 4; 8 ])
          [ "ops_per_sec" ]
          (is ~backend:"native" "store_batched", [ "ops_per_sec" ])
          "native store_unbatched ops_per_sec <= store_batched ops_per_sec \
           (batching must pay off under contention)";
      ];
      (* the windowed series: a closed w_ vocabulary (w_ops, w_end_ns,
         w_ops_per_sec, w_latency_p50/p99 and w_delta_<event> over the
         telemetry event classes), only on windowed rows; counts are
         non-negative integers (counters are monotone) *)
      [
        gate series windowed (Each (fun r -> known_windowed_metric r.metric))
          "unknown windowed metric";
        gate series
          (fun r -> not (windowed r))
          (Each (fun r -> not (is_windowed_metric r.metric)))
          "w_-prefixed metric without a window";
        gate series
          (fun r ->
            windowed r
            && (r.metric = "w_ops" || starts_with w_delta_prefix r.metric))
          (Each non_negative_integer)
          "windowed ops and deltas must be non-negative integers";
        gate series
          (fun r ->
            windowed r
            && List.mem r.metric
                 [ "w_latency_p50"; "w_latency_p99"; "w_ops_per_sec" ])
          (Each (fun r -> r.value >= 0.0))
          "windowed rates and latencies must be non-negative";
        gate series windowed Windows "windowed series";
      ];
      (* the windowed store stages, gated on presence so the committed
         trajectory keeps them; an open-loop stage's target_rate matches
         its name *)
      List.concat_map
        (fun (bench, rate) ->
          coverage store ~windowed:false ~backend:"native" bench
            [ "wall_ns"; "ops_per_sec"; "ops" ] [ 4 ]
          @ present store
              (is ~backend:"native" ~procs:4 ~metric:"w_ops" ~windowed:true
                 bench)
              (Printf.sprintf "no windowed w_ops series for %s procs=4" bench)
            ::
            (match rate with
            | None -> []
            | Some rate ->
                let target =
                  is ~backend:"native" ~procs:4 ~metric:"target_rate" bench
                in
                [
                  present store target
                    (Printf.sprintf "no target_rate row for %s procs=4" bench);
                  gate store target
                    (Each (fun r -> r.value = rate))
                    (Printf.sprintf "target_rate must match the stage name (%s)"
                       (number_to_string rate));
                ]))
        (List.map (fun r -> (openloop_bench_name r, Some r)) openloop_rates
        @ [ (readmix_bench, None) ]);
      (* the scans: simulator rows equal the Section 6.2 formulas — they
         are exact counts, not measurements.  The adaptive formula holds
         for the uncontended stage only (a contended scan may escalate);
         the lattice formula holds for both stages (every descent costs
         the same ceil(log2 n) levels, and the one-scan-per-process sim
         workload lands in generation 1 with no fence retries). *)
      List.map
        (fun (select, variant) ->
          gate scan
            (fun r ->
              r.backend = "sim" && select r.bench
              && List.mem r.metric accesses)
            (Formula variant) "cost_formula")
        [
          (starts_with "scan_plain", Snapshot.Scan.Plain);
          (starts_with "scan_opt", Snapshot.Scan.Optimized);
          (( = ) "scan_adaptive_uncontended", Snapshot.Scan.Adaptive);
          (starts_with "scan_lattice", Snapshot.Scan.Lattice);
        ];
      [
        (* total accesses, not reads alone: the adaptive fast path
           trades one saved write for extra validation reads at small n *)
        le ~strict:true scan
          (sim_at procs_sweep "scan_adaptive_uncontended")
          accesses
          (sim_at procs_sweep "scan_opt_uncontended", accesses)
          "sim scan_adaptive_uncontended reads+writes <= \
           scan_opt_uncontended's";
        (* the E17 crossover: the lattice scan's 2(n-1) + n ceil(log2 n)
           + ceil(log2 n) + 3 accesses come in at or under Optimized's
           n^2 + n from procs 4 on (the formulas cross between 3 and 4) *)
        le ~strict:true scan
          (sim_at [ 4; 8 ] "scan_lattice_contended")
          accesses
          (sim_at [ 4; 8 ] "scan_opt_contended", accesses)
          "sim scan_lattice_contended reads+writes <= scan_opt_contended's";
      ];
      List.map
        (fun bench ->
          present scan
            (fun r ->
              is ~backend:"native" ~metric:"wall_ns" bench r && r.procs >= 8)
            (Printf.sprintf "no native wall_ns row for %s at procs >= 8" bench))
        [
          "scan_adaptive_uncontended";
          "scan_adaptive_contended";
          "scan_lattice_uncontended";
          "scan_lattice_contended";
        ];
      (* native throughput covers the full sweep, and no native counter
         run lost an update *)
      List.map
        (fun procs ->
          present full
            (fun r ->
              r.backend = "native" && r.procs = procs
              && r.metric = "ops_per_sec")
            (Printf.sprintf "no native ops_per_sec row for procs=%d" procs))
        procs_sweep;
      [
        gate full (metric_is "lost_updates")
          (Each (fun r -> r.value = 0.0))
          "lost updates";
      ];
      (* the universal benches: the wall-clock family at the full sweep,
         and the memoized mode never replays more history entries than
         the from-scratch mode it must match (sim replay counts are
         deterministic) *)
      List.concat_map
        (fun bench ->
          coverage full ~backend:"native" bench [ "wall_ns"; "ops_per_sec" ]
            procs_sweep)
        universal_benches;
      [
        le ~per_bench:true full
          (fun r -> r.backend = "sim")
          [ "spec_replays" ]
          ((fun r -> r.backend = "sim"), [ "spec_replays_reference" ])
          "sim incremental spec_replays <= spec_replays_reference";
      ];
      (* schedule exploration: every explore_* row is an exact sim
         schedule count; each stage emits the full explored / pruned /
         sampled / violations family; the clean stage stays clean while
         each injected-bug stage surfaces its bug; random stages sample
         (sampled = explored > 0), systematic ones do not (sampled = 0) *)
      (let explore r = starts_with "explore_" r.bench in
       [
         gate full explore
           (Each (fun r -> r.backend = "sim"))
           "explore rows must have backend \"sim\"";
         gate full explore
           (Each (fun r -> r.unit_ = "schedules"))
           "explore rows must have unit \"schedules\"";
         gate full explore (Each non_negative_integer)
           "explore counts must be non-negative integers";
       ]);
      List.concat_map
        (fun (bench, kind, verdict) ->
          List.map
            (fun metric ->
              present full (is ~metric bench)
                (Printf.sprintf "no %s row for %s" metric bench))
            [ "explored"; "pruned"; "sampled"; "violations" ]
          @ (match verdict with
            | `Clean ->
                gate full (is ~metric:"violations" bench)
                  (Each (fun r -> r.value = 0.0))
                  "expected a clean exploration"
            | `Buggy ->
                gate full (is ~metric:"violations" bench)
                  (Each (fun r -> r.value >= 1.0))
                  "injected bug not found within the budget")
            ::
            (match kind with
            | `Systematic ->
                [
                  gate full (is ~metric:"sampled" bench)
                    (Each (fun r -> r.value = 0.0))
                    "systematic search must have sampled = 0";
                ]
            | `Random ->
                [
                  le ~strict:true full (is bench) [ "sampled" ]
                    (is bench, [ "explored" ])
                    (bench ^ ": random search sampled <= explored");
                  le ~strict:true full (is bench) [ "explored" ]
                    (is bench, [ "sampled" ])
                    (bench ^ ": random search explored <= sampled");
                  gate full (is ~metric:"explored" bench) (Each positive)
                    "random search must explore";
                ]))
        explore_stages;
    ]

let describe r =
  Printf.sprintf "%s %s procs=%d %s%s = %s %s" r.backend r.bench r.procs
    r.metric
    (match r.window with None -> "" | Some w -> Printf.sprintf " [w%d]" w)
    (number_to_string r.value) r.unit_

(* The interpreter: the error messages of one gate over the rows. *)
let gate_errors rows g =
  let selected = List.filter g.select rows in
  match g.check with
  | Present -> if selected = [] then [ g.msg ] else []
  | Each ok ->
      List.filter_map
        (fun r -> if ok r then None else Some (describe r ^ ": " ^ g.msg))
        selected
  | Formula variant ->
      List.filter_map
        (fun r ->
          let reads, writes =
            Snapshot.Scan.cost_formula ~procs:r.procs variant
          in
          let expected = if r.metric = "reads" then reads else writes in
          if r.value = float_of_int expected then None
          else
            Some
              (Printf.sprintf "%s: cost_formula says %d" (describe r) expected))
        selected
  | Windows -> window_errors rows selected
  | Le { lhs; rhs = rhs_select, rhs_metrics; per_bench; strict } ->
      let rhs_rows = List.filter rhs_select rows in
      let key r = ((if per_bench then Some r.bench else None), r.procs) in
      let total agg side metrics (bench, procs) =
        List.fold_left
          (fun acc m ->
            match
              ( acc,
                List.filter_map
                  (fun r ->
                    if key r = (bench, procs) && r.metric = m then Some r.value
                    else None)
                  side )
            with
            | Some s, v :: vs -> Some (s +. List.fold_left agg v vs)
            | _ -> None)
          (Some 0.0) metrics
      in
      List.sort_uniq compare
        (List.map key
           (List.filter (fun r -> List.mem r.metric lhs) selected
           @ List.filter (fun r -> List.mem r.metric rhs_metrics) rhs_rows))
      |> List.filter_map (fun ((bench, procs) as k) ->
             let where =
               Printf.sprintf "%sprocs=%d"
                 (Option.fold ~none:"" ~some:(fun b -> b ^ " ") bench)
                 procs
             in
             match
               ( total Float.max selected lhs k,
                 total Float.min rhs_rows rhs_metrics k )
             with
             | Some l, Some r when l > r ->
                 Some
                   (Printf.sprintf "%s: %s violated (%s > %s)" where g.msg
                      (number_to_string l) (number_to_string r))
             | None, Some _ when strict ->
                 Some (Printf.sprintf "%s: %s: left side missing" where g.msg)
             | _ -> None)

let validate_rows ?only rows =
  List.concat_map (gate_errors rows)
    (match only with
    | None -> gates
    | Some f -> List.filter (fun g -> List.mem f g.families) gates)

let validate_string ?only contents =
  match Json.parse contents with
  | Error e -> Error [ Printf.sprintf "invalid JSON: %s" e ]
  | Ok (Json.Arr items) when items <> [] -> (
      let rows, errs =
        List.fold_left
          (fun (rows, errs) (i, item) ->
            match row_of_json item with
            | Ok r -> (r :: rows, errs)
            | Error e -> (rows, Printf.sprintf "row %d: %s" i e :: errs))
          ([], [])
          (List.mapi (fun i x -> (i, x)) items)
      in
      match List.rev errs with
      | _ :: _ as errs -> Error errs
      | [] -> (
          match validate_rows ?only (List.rev rows) with
          | [] -> Ok (List.length rows)
          | errs -> Error errs))
  | Ok (Json.Arr []) -> Error [ "empty bench file: no rows" ]
  | Ok _ -> Error [ "top-level JSON value must be an array of rows" ]

let validate_file ?only ~path () =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error [ e ]
  | contents -> validate_string ?only contents
