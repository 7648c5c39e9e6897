(* The repository benchmark: one workload per run, driven from outside
   the programs it measures.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 --serve EXE

   An untraced run (--trace 0) times the workload end to end and prints
   the end-to-end metrics; a traced run (--trace 1) replays the same
   seed's inputs layer by layer and prints the per-layer metrics.  Both
   check every output against the repo's oracles outside the timed
   window.  Human-readable lines start with "# "; the last line of
   stdout is the JSON result (Schema). *)

open Perfbench
module Json = Crossbar_engine.Json
module Clock = Crossbar_engine.Clock
module Sweep = Crossbar_engine.Sweep
module Pool = Crossbar_engine.Pool
module Telemetry = Crossbar_engine.Telemetry
module Protocol = Crossbar_serve.Protocol
module Batcher = Crossbar_serve.Batcher
module Registry = Crossbar_serve.Registry
module Convolution = Crossbar.Convolution
module Model = Crossbar.Model

let now () = Int64.to_int (Clock.now_ns ())
let ms ns = float_of_int ns /. 1e6
let report fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Every run ends well inside three minutes: waits on the daemon give
   up at this deadline and count what is missing as failed. *)
let budget_ns = 165_000_000_000

(* Set-up is repeated and its median reported, so one slow process
   start does not move [setup_s]. *)
let setup_repeats = 7

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

type failures = { mutable count : int }

let fail failures fmt =
  Printf.ksprintf
    (fun reason ->
      failures.count <- failures.count + 1;
      if failures.count <= 5 then report "FAIL %s" reason)
    fmt

(* ---------- serve: the daemon conversation ---------- *)

let daemon_args = [ "--domains"; "1" ]

(* Every response of one daemon conversation, in order. *)
type transcript = {
  mutable lines : string list;  (** newest first *)
  mutable received : int;
  mutable sent : int;  (** requests written so far *)
}

let transcript () = { lines = []; received = 0; sent = 0 }

let append t line =
  t.lines <- line :: t.lines;
  t.received <- t.received + 1

(* Random access to the responses once the conversation is over:
   [None] past the last one received. *)
let reader t =
  let lines = Array.of_list (List.rev t.lines) in
  fun i -> if i < t.received then Some lines.(i) else None

type drive = {
  latencies : float array;  (** per request, ms from its window's write *)
  window_ms : float array;  (** per window: write to last response *)
  starts : int array;  (** each window's write time, then the end time *)
}

(* Closed loop: each window goes out as one write once every response to
   its predecessor has arrived.  Stops at the first window (or earlier
   burst) left unanswered. *)
let drive daemon t windows ~deadline =
  let bytes = Array.map Gen.window_bytes windows in
  let total = Array.fold_left (fun acc lines -> acc + Array.length lines) 0 windows in
  let latencies = Array.make total Float.nan in
  let window_ms = Array.make (Array.length windows) Float.nan in
  let first = t.sent in
  let starts = Array.make (Array.length windows + 1) 0 in
  Array.iteri
    (fun w data ->
      starts.(w) <- now ();
      if t.received = t.sent then begin
        let size = Array.length windows.(w) in
        t.sent <- t.sent + size;
        let sent = starts.(w) in
        let last = ref sent in
        let _ : int =
          Daemon.exchange daemon data ~expect:size ~deadline ~on_line:(fun line at ->
              if t.received < t.sent then begin
                latencies.(t.received - first) <- ms (at - sent);
                append t line
              end;
              last := at)
        in
        window_ms.(w) <- ms (!last - sent)
      end)
    bytes;
  starts.(Array.length windows) <- now ();
  { latencies; window_ms; starts }

(* One set-up: spawn the daemon, install the working set in one burst
   and run the warm-up windows. *)
let start_daemon ~exe (c : Gen.conversation) ~deadline =
  let started = now () in
  let daemon = Daemon.spawn ~exe ~args:daemon_args in
  let t = transcript () in
  ignore (drive daemon t [| c.Gen.install |] ~deadline : drive);
  ignore (drive daemon t c.Gen.warmup ~deadline : drive);
  (daemon, now () - started, t)

type conversation_run = {
  timed : drive;
  registry_stats : Json.t;
  rss_kb : int option;
  writes : int;  (** [write] calls for the timed windows *)
}

(* Drive the timed [windows]; then ask for stats, read the daemon's peak
   RSS and stop it. *)
let converse daemon t ~windows ~deadline =
  let writes_before = Daemon.writes daemon in
  let timed = drive daemon t windows ~deadline in
  let writes = Daemon.writes daemon - writes_before in
  let stats = ref Json.Null in
  let _ : int =
    Daemon.exchange daemon "{\"id\":\"stats\",\"op\":\"stats\"}\n" ~expect:1 ~deadline
      ~on_line:(fun line _ ->
        match Json.of_string line with
        | Ok json -> stats := Option.value ~default:Json.Null (Json.member "registry" json)
        | Error _ -> ())
  in
  let rss_kb = Daemon.vm_hwm_kb (Daemon.pid daemon) in
  Daemon.stop daemon ~deadline;
  { timed; registry_stats = !stats; rss_kb; writes }

(* Every request line of a conversation, in the order sent. *)
let all_lines (c : Gen.conversation) =
  Array.concat (c.Gen.install :: Array.to_list (Array.append c.Gen.warmup c.Gen.windows))

let response_ok line =
  match Json.of_string line with
  | Ok json -> ( match Json.member "ok" json with Some (Json.Bool b) -> b | _ -> false)
  | Error _ -> false

(* The batching oracle: a fresh registry serving one request at a time
   through [Batcher.execute ~domains:1]; call it on the conversation's
   lines in order. *)
let one_at_a_time () =
  let registry = Registry.create () in
  fun line ->
    let response =
      match Protocol.request_of_line line with
      | Ok request ->
          (* Telemetry only feeds [stats], which the oracle never serves. *)
          let telemetry = Telemetry.create () in
          (Batcher.execute ~domains:1 ~registry ~telemetry [| request |]).Batcher.responses.(0)
      | Error message -> Protocol.error_response ~id:Json.Null message
    in
    Protocol.response_to_line response

(* Response [i] of [count] must be [ok:true] and byte-identical to
   [expected i] ([expected] is called in order of [i]). *)
let check_responses failures ~label ~count ~expected got =
  for i = 0 to count - 1 do
    let want = expected i in
    match got i with
    | None -> fail failures "%s op %d: no response" label i
    | Some line ->
        if not (String.equal line want) then
          fail failures "%s op %d differs from the oracle\n#   got:  %s\n#   want: %s" label i
            (clip line) (clip want)
        else if not (response_ok line) then fail failures "%s op %d: %s" label i (clip line)
  done

(* ---------- sweep: plans in process ---------- *)

(* Bit-level identity of an outcome: every measure and log G. *)
let fingerprint (o : Sweep.outcome) =
  Digest.string
    (Json.to_string (Protocol.measures_to_json (Sweep.measures o))
    ^ Printf.sprintf "|%h" (Sweep.log_normalization o))

(* Sweep [plans] one [Sweep.run ~incremental:true] each, at the default
   domain count; returns each plan's wall time and outcome
   fingerprints. *)
let sweep_plans plans =
  Array.map
    (fun points ->
      let started = now () in
      let outcomes = Sweep.run ~incremental:true points in
      let elapsed = now () - started in
      (elapsed, Array.map fingerprint outcomes))
    plans

(* A plan fails when any of its outcomes differs, in any measure or in
   log G, from the single-domain, non-incremental sweep. *)
let check_plans failures plans prints =
  Array.iteri
    (fun k points ->
      let oracle = Sweep.run ~domains:1 ~incremental:false points in
      match
        List.find_opt
          (fun j -> not (String.equal (fingerprint oracle.(j)) prints.(k).(j)))
          (List.init (Array.length oracle) Fun.id)
      with
      | Some j ->
          fail failures "plan %d point %d differs from the non-incremental single-domain sweep" k j
      | None -> ())
    plans

(* Contexts and a cold solve per switch shape, then the warm-up plans:
   the set-up a planner pays once (the first banded combine also starts
   the band workers).  Returns the warm-up plans' outcome
   fingerprints. *)
let set_up_sweep (w : Gen.t) (p : Gen.plans) =
  List.iter (fun m -> Convolution.recycle (Convolution.solve m)) w.Gen.shapes;
  Array.map snd (sweep_plans p.Gen.warmup_plans)

(* One set-up sample for an in-process workload: a fresh bench process
   generates the workload and prints "generated", then does only
   [set_up_sweep] and prints "ready"; the clock runs between the two
   lines, so neither process start nor input generation counts. *)
let setup_probe ~workload ~seed ~deadline =
  let probe =
    Daemon.spawn ~exe:Sys.executable_name
      ~args:[ "--setup-probe"; "--workload"; workload; "--seed"; string_of_int seed ]
  in
  let arrivals = ref [] in
  let lines =
    Daemon.exchange probe "" ~expect:2 ~deadline ~on_line:(fun line at ->
        arrivals := (line, at) :: !arrivals)
  in
  Daemon.reap probe;
  match (lines, List.rev !arrivals) with
  | 2, [ ("generated", generated); ("ready", ready) ] -> Some (ready - generated)
  | _ -> None

(* ---------- untraced runs: end-to-end metrics ---------- *)

type e2e = {
  setup_ns : int array;
  sizes : int array;  (** ops per window (serve) or 1 per plan *)
  starts : int array;  (** each window's or plan's start, then the end *)
  latencies : float array;  (** per op, ms, in order *)
  rss_kb : int option;
}

(* The timed ops fall into ten blocks of consecutive windows (plans).
   Throughput and percentiles are taken per block and the median block
   reported, so a stall on the shared host that hits a few blocks moves
   them less; percentiles fall back to all ops when a block would hold
   fewer than 100. *)
let blocks = 10

let e2e_metrics e =
  let groups = Array.length e.sizes in
  let count = min blocks groups in
  let bound b = b * groups / count in
  let first_op = Array.make (groups + 1) 0 in
  Array.iteri (fun g n -> first_op.(g + 1) <- first_op.(g) + n) e.sizes;
  let seconds ns = float_of_int ns /. 1e9 in
  let rates =
    Array.init count (fun b ->
        let g0 = bound b and g1 = bound (b + 1) in
        float_of_int (first_op.(g1) - first_op.(g0)) /. seconds (e.starts.(g1) - e.starts.(g0)))
  in
  let slices =
    Array.init count (fun b ->
        let o0 = first_op.(bound b) and o1 = first_op.(bound (b + 1)) in
        Array.sub e.latencies o0 (o1 - o0))
  in
  let per_block = Array.for_all (fun slice -> Array.length slice >= 100) slices in
  let percentile q =
    if per_block then Stats.median (Array.map (fun slice -> Stats.quantile slice q) slices)
    else Stats.quantile e.latencies q
  in
  report "%d blocks of ~%d ops; ops/s per block: %s (IQR share %.3f); percentiles %s" count
    (Array.length e.latencies / count)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") rates)))
    (Stats.iqr_share rates)
    (if per_block then "per block, median block" else "over all ops");
  report "latency samples: %d; p10..p90 by tenths over all ops, ms: %s" (Array.length e.latencies)
    (String.concat " "
       (List.init 9 (fun i ->
            Printf.sprintf "%.3f" (Stats.quantile e.latencies (float_of_int (i + 1) /. 10.)))));
  [
    ("setup_s", Stats.median (Array.map seconds e.setup_ns));
    ("ops_per_s", Stats.median rates);
    ("p50_ms", percentile 0.5);
    ("p90_ms", percentile 0.9);
    ("rss_peak_mb", float_of_int (Option.value ~default:0 e.rss_kb) /. 1024.);
  ]

let run_serve ~exe ~deadline failures (c : Gen.conversation) =
  let setups = Array.make setup_repeats 0 in
  let kept = ref None in
  for i = 0 to setup_repeats - 1 do
    let daemon, elapsed, t = start_daemon ~exe c ~deadline in
    setups.(i) <- elapsed;
    if i < setup_repeats - 1 then Daemon.stop daemon ~deadline else kept := Some (daemon, t)
  done;
  let daemon, t = Option.get !kept in
  let run = converse daemon t ~windows:c.Gen.windows ~deadline in
  let timed = run.timed in
  report "timed windows: %d, %d requests, %d writes" (Array.length c.Gen.windows)
    (Array.length timed.latencies) run.writes;
  report "registry after the window: %s" (Json.to_string run.registry_stats);
  let lines = all_lines c in
  let serve = one_at_a_time () in
  check_responses failures ~label:"serve" ~count:(Array.length lines)
    ~expected:(fun i -> serve lines.(i))
    (reader t);
  ( Array.length lines,
    {
      setup_ns = setups;
      sizes = Array.map Array.length c.Gen.windows;
      starts = timed.starts;
      latencies = timed.latencies;
      rss_kb = run.rss_kb;
    } )

let own_rss_kb () = Daemon.vm_hwm_kb (Unix.getpid ())

let run_sweep ~seed ~deadline failures (w : Gen.t) (p : Gen.plans) =
  let setups =
    Array.of_list
      (List.filter_map Fun.id
         (List.init setup_repeats (fun _ -> setup_probe ~workload:w.Gen.name ~seed ~deadline)))
  in
  if Array.length setups < setup_repeats then
    fail failures "%d of %d set-up probes did not report generated and ready"
      (setup_repeats - Array.length setups) setup_repeats;
  let warm = set_up_sweep w p in
  let timed = sweep_plans p.Gen.timed_plans in
  let rss_kb = own_rss_kb () in
  let latencies = Array.map (fun (elapsed, _) -> ms elapsed) timed in
  (* The timed window is the plans' [Sweep.run] calls back to back;
     fingerprinting between them is not timed. *)
  let starts = Array.make (Array.length timed + 1) 0 in
  Array.iteri (fun k (elapsed, _) -> starts.(k + 1) <- starts.(k) + elapsed) timed;
  report "timed plans: %d" (Array.length timed);
  let plans = Array.append p.Gen.warmup_plans p.Gen.timed_plans in
  check_plans failures plans (Array.append warm (Array.map snd timed));
  ( Array.length plans,
    {
      setup_ns = (if setups = [||] then [| 0 |] else setups);
      sizes = Array.make (Array.length timed) 1;
      starts;
      latencies;
      rss_kb;
    } )

(* ---------- traced runs: per-layer metrics ---------- *)

(* The stage-sum reconciliation, checked on the median op of a traced
   run.  [coverage_floor]: the stage spans must cover at least this
   share of their op's root span, so a stage left untraced shows as
   root self time and fails the run.  [e2e_band]: the stage sum over the
   untraced end-to-end latency of the same op.  For plan-sweep both are
   in-process timings of the same calls, so the ratio sits near 1.  For
   serve-admit the end-to-end latency is the daemon's (pipes, select
   loop, pipeline hand-off included), so the in-process stage sum is a
   share of it (0.75-0.79 on the 2-core reference host, METRICS.md):
   the lower edge sits near half that, low enough that a faster batcher
   does not trip it, high enough that spans covering a fraction of the
   work do. *)
let coverage_floor = 0.95

let e2e_band = function Gen.Serve _ -> (0.4, 1.25) | Gen.Plan _ -> (0.8, 1.25)

let arena_counts contexts =
  List.fold_left
    (fun (created, reused) ctx ->
      let arena = Convolution.arena ctx in
      (created + Convolution.Arena.created arena, reused + Convolution.Arena.reused arena))
    (0, 0) contexts

type counters = { minor_words : float; major_collections : int; created : int; reused : int }

let no_counters = { minor_words = 0.; major_collections = 0; created = 0; reused = 0 }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
    created = a.created + b.created;
    reused = a.reused + b.reused;
  }

(* [f ()] and the GC and arena counters it moved. *)
let counted contexts f =
  let gc0 = Gc.quick_stat () and created0, reused0 = arena_counts contexts in
  let result = f () in
  let gc1 = Gc.quick_stat () and created1, reused1 = arena_counts contexts in
  ( result,
    {
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      created = created1 - created0;
      reused = reused1 - reused0;
    } )

(* Replay windows in process as the daemon serves them — each window one
   [Batcher.execute ~domains:1] batch — optionally recording a span per
   layer call: a [window] root with [protocol.parse], [batcher.execute]
   and [protocol.serialize] children.  Returns the set-up responses, each
   timed window's requests and responses, the timed windows' wall time
   and the counters they moved. *)
let serve_replay ?spans ~contexts (c : Gen.conversation) windows =
  let registry = Registry.create () and telemetry = Telemetry.create () in
  let batch ?spans ~window lines =
    let stage ?parent name f =
      match spans with
      | None -> f ()
      | Some s -> Spans.record s ~name ~window ?parent (fun _ -> f ())
    in
    let body parent =
      let requests =
        stage ?parent "protocol.parse" (fun () ->
            Array.map
              (fun line ->
                match Protocol.request_of_line line with
                | Ok request -> request
                | Error message -> failwith ("generated request does not parse: " ^ message))
              lines)
      in
      let outcome =
        stage ?parent "batcher.execute" (fun () ->
            Batcher.execute ~domains:1 ~registry ~telemetry requests)
      in
      let out =
        stage ?parent "protocol.serialize" (fun () ->
            Array.map Protocol.response_to_line outcome.Batcher.responses)
      in
      (requests, out)
    in
    match spans with
    | None -> body None
    | Some s -> Spans.record s ~name:"window" ~window (fun root -> body (Some root))
  in
  let set_up =
    Array.concat
      (List.map
         (fun lines -> snd (batch ~window:(-1) lines))
         (c.Gen.install :: Array.to_list c.Gen.warmup))
  in
  let started = now () in
  let served, counters =
    counted contexts (fun () -> Array.mapi (fun w lines -> batch ?spans ~window:w lines) windows)
  in
  (set_up, served, now () - started, counters)

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

(* Per op (window or plan): the self-time sum of its stage spans and the
   duration of its root span. *)
let per_op spans ~root ~ops =
  let stages = Array.make ops 0 and roots = Array.make ops 0 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let k = s.Spans.window in
      if k >= 0 && k < ops then
        if String.equal s.Spans.name root then roots.(k) <- s.Spans.stop_ns - s.Spans.start_ns
        else if s.Spans.parent <> None then stages.(k) <- stages.(k) + self)
    (Spans.self_ns spans);
  (stages, roots)

let durations_ms spans name =
  Array.of_list
    (List.filter_map
       (fun (s : Spans.span) ->
         if String.equal s.Spans.name name then Some (ms (s.Spans.stop_ns - s.Spans.start_ns))
         else None)
       spans)

let total_self spans name =
  List.fold_left
    (fun acc (n, total, _) -> if String.equal n name then acc + total else acc)
    0 (Spans.totals spans)

(* Time [n] calls of [f] as spans named [name]. *)
let probe spans ~name n f =
  for i = 1 to n do
    Spans.record spans ~name ~window:i (fun _ -> f i)
  done

(* Calls into the core and engine layers at the workload's first switch
   shape, each call one span. *)
let layer_probes spans (w : Gen.t) =
  let m = List.hd w.Gen.shapes in
  let cap = Model.capacity m in
  let classes = Model.num_classes m in
  probe spans ~name:"factor_tree.build" 7 (fun _ -> Convolution.recycle (Convolution.solve m));
  let previous = ref (Convolution.solve m) and combines = ref [] in
  probe spans ~name:"factor_tree.delta" 40 (fun i ->
      let r = i mod classes in
      let alpha = Model.alpha m r *. (1. +. (float_of_int (i mod 16) /. 64.)) in
      let next =
        Model.map_class (Convolution.model !previous) r (fun c ->
            Crossbar.Traffic.with_alpha c alpha)
      in
      previous := Convolution.solve_delta ~recycle:true ~previous:!previous next;
      combines := float_of_int (Convolution.combine_count !previous) :: !combines);
  let solved = !previous in
  let model = Convolution.model solved in
  probe spans ~name:"revenue.shadow_costs" 50 (fun _ ->
      ignore (Crossbar.Revenue.shadow_costs ~solved model ~weights:w.Gen.weights : float array));
  let tree = Convolution.tree solved in
  let ctx = Convolution.Factor_tree.context tree in
  let root = Convolution.Factor_tree.root tree and leaf = Convolution.Factor_tree.leaf tree 0 in
  probe spans ~name:"kernel.combine" 40 (fun _ ->
      Convolution.Arena.release (Convolution.arena ctx) (Convolution.combine ctx root leaf));
  probe spans ~name:"band_pool.run" 2000 (fun _ -> Crossbar.Band_pool.run ~bands:2 ignore);
  probe spans ~name:"pool.run" 30 (fun _ -> ignore (Pool.run ~tasks:2 Fun.id : int array));
  (cap, mean (Array.of_list !combines))

(* What a traced replay yields for the per-layer metrics.  Layers the
   workload's own traffic does not reach stay at zero. *)
type replay = {
  ops : int;  (** ops replayed (windows or plans) *)
  units : int;  (** requests or sweep points, for per-op GC words *)
  attempted : int;
  e2e_ns : float array;  (** untraced end-to-end latency per op *)
  overhead_ratio : float;
  serve : (string * float) list;  (** protocol, batcher, server, registry metrics *)
  combines : int * int;  (** (combines, banded) over the workload's own solves *)
  sweep_flags : float * float;  (** incremental and cache-hit shares *)
  counters : counters;  (** moved by the traced replay *)
}

(* The windows run untraced twice — the first pass warms the arenas, so
   the traced pass finds them warm too — and traced once; the overhead
   compares the second untraced pass with the traced one. *)
let trace_serve ~exe ~deadline failures spans contexts (w : Gen.t) (c : Gen.conversation) =
  let windows = Array.sub c.Gen.windows 0 (min w.Gen.trace_ops (Array.length c.Gen.windows)) in
  (* The daemon, untraced, for the end-to-end window latency and the
     registry counters; then the same windows in process. *)
  let daemon, _, t = start_daemon ~exe c ~deadline in
  let run = converse daemon t ~windows ~deadline in
  let pass () =
    let _, _, wall, _ = serve_replay ~contexts c windows in
    wall
  in
  let plain = ignore (pass () : int); pass () in
  let set_up, served, wall, counters = serve_replay ~spans ~contexts c windows in
  (* The in-process batches must answer exactly as the daemon did. *)
  let replayed = Array.concat (set_up :: Array.to_list (Array.map snd served)) in
  check_responses failures ~label:"trace" ~count:(Array.length replayed)
    ~expected:(Array.get replayed) (reader t);
  let requests = Array.fold_left (fun acc lines -> acc + Array.length lines) 0 windows in
  let log = Spans.spans spans in
  let stages, _ = per_op log ~root:"window" ~ops:(Array.length windows) in
  let overhead = Array.mapi (fun i ns -> run.timed.window_ms.(i) -. ms ns) stages in
  let groups =
    Array.map
      (fun (parsed, _) ->
        let trees = Array.to_list (Array.map (fun r -> Protocol.tree_name r.Protocol.query) parsed) in
        float_of_int (List.length (List.sort_uniq compare trees)))
      served
  in
  let sizes = Array.map (fun lines -> float_of_int (Array.length lines)) windows in
  let histogram = Hashtbl.create 4 in
  Array.iter
    (fun lines ->
      let n = Array.length lines in
      Hashtbl.replace histogram n (1 + Option.value ~default:0 (Hashtbl.find_opt histogram n)))
    windows;
  report "batch sizes (size x windows, one atomic write each, %d writes): %s" run.writes
    (String.concat ", "
       (List.map (fun (s, n) -> Printf.sprintf "%dx%d" s n)
          (List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) histogram []))));
  (* Solve and delta responses carry the install flag and the combine
     counters of the work they did. *)
  let solves = ref 0 and warm = ref 0 and combines = ref 0 and banded = ref 0 in
  Array.iter
    (fun line ->
      match Json.of_string line with
      | Ok json -> (
          let int field =
            match Json.member field json with Some (Json.Int n) -> n | _ -> 0
          in
          combines := !combines + int "tree_combines";
          banded := !banded + int "banded_combines";
          match (Json.member "op" json, Json.member "from_hot" json) with
          | Some (Json.String "solve"), Some (Json.Bool hot) ->
              incr solves;
              if hot then incr warm
          | _ -> ())
      | Error _ -> ())
    replayed;
  let registry field =
    match Json.member field run.registry_stats with
    | Some (Json.Int n) -> float_of_int n
    | _ ->
        fail failures "daemon stats lack registry.%s" field;
        0.
  in
  let us name = float_of_int (total_self log name) /. 1e3 /. float_of_int (max 1 requests) in
  {
    ops = Array.length windows;
    units = requests;
    attempted = Array.length replayed;
    e2e_ns = Array.map (fun window_ms -> window_ms *. 1e6) run.timed.window_ms;
    overhead_ratio = float_of_int wall /. float_of_int plain;
    serve =
      [
        ("protocol.parse_us", us "protocol.parse");
        ("protocol.serialize_us", us "protocol.serialize");
        ("batcher.execute_ms", Stats.median (durations_ms log "batcher.execute"));
        ("batcher.batch_size", mean sizes);
        ("batcher.groups", mean groups);
        ("server.overhead_ms", Stats.median overhead);
        ("registry.hits", registry "hits");
        ("registry.misses", registry "misses");
        ("registry.evictions", registry "evictions");
        ("registry.warm_install_ratio", float_of_int !warm /. float_of_int (max 1 !solves));
      ];
    combines = (!combines, !banded);
    sweep_flags = (0., 0.);
    counters;
  }

(* Plan by plan, after one warm-up pass: an untraced [Sweep.run], then
   the same plan traced, so both find the same warm state.  The counters
   cover the traced runs only. *)
let trace_sweep failures spans contexts (w : Gen.t) (p : Gen.plans) =
  let plans = Array.sub p.Gen.timed_plans 0 (min w.Gen.trace_ops (Array.length p.Gen.timed_plans)) in
  ignore (set_up_sweep w p : string array array);
  ignore (sweep_plans plans : (int * string array) array);
  let counters = ref no_counters in
  let results =
    Array.mapi
      (fun k points ->
        let untraced_ns, untraced = (sweep_plans [| points |]).(0) in
        let t0 = now () in
        let traced, moved =
          counted contexts (fun () ->
              Spans.record spans ~name:"plan" ~window:k (fun root ->
                  Spans.record spans ~name:"sweep.run" ~window:k ~parent:root (fun _ ->
                      Sweep.run ~incremental:true points)))
        in
        let traced_ns = now () - t0 in
        counters := add !counters moved;
        (* The traced sweep must answer exactly as the untraced one. *)
        if not (Array.for_all2 String.equal (Array.map fingerprint traced) untraced) then
          fail failures "traced plan %d differs from the untraced sweep" k;
        (untraced_ns, traced_ns, traced))
      plans
  in
  let total f = float_of_int (Array.fold_left (fun acc r -> acc + f r) 0 results) in
  let outcomes = Array.concat (Array.to_list (Array.map (fun (_, _, o) -> o) results)) in
  let points = float_of_int (max 1 (Array.length outcomes)) in
  let share p =
    float_of_int (Array.fold_left (fun acc o -> if p o then acc + 1 else acc) 0 outcomes) /. points
  in
  let combines, banded =
    Array.fold_left
      (fun (c, b) (o : Sweep.outcome) ->
        if o.Sweep.from_cache then (c, b)
        else
          ( c + o.Sweep.solution.Crossbar.Solver.tree_combines,
            b + o.Sweep.solution.Crossbar.Solver.banded_combines ))
      (0, 0) outcomes
  in
  {
    ops = Array.length plans;
    units = Array.length outcomes;
    attempted = Array.length plans;
    e2e_ns = Array.map (fun (untraced_ns, _, _) -> float_of_int untraced_ns) results;
    overhead_ratio = total (fun (_, traced_ns, _) -> traced_ns) /. total (fun (u, _, _) -> u);
    serve = [];
    combines = (combines, banded);
    sweep_flags =
      (share (fun o -> o.Sweep.from_incremental), share (fun o -> o.Sweep.from_cache));
    counters = !counters;
  }

let run_trace ~exe ~seed ~deadline failures (w : Gen.t) =
  let spans = Spans.create () in
  let contexts =
    List.map (fun m -> Convolution.Factor_tree.context (Convolution.tree (Convolution.solve m)))
      w.Gen.shapes
  in
  let r, root =
    match w.Gen.ops with
    | Gen.Serve c -> (trace_serve ~exe ~deadline failures spans contexts w c, "window")
    | Gen.Plan p -> (trace_sweep failures spans contexts w p, "plan")
  in
  (* Reconciliation, on this replay's spans only (the probes follow). *)
  let stages, roots = per_op (Spans.spans spans) ~root ~ops:r.ops in
  let coverage = Stats.median (Array.mapi (fun k s -> float_of_int s /. float_of_int roots.(k)) stages) in
  let reconcile = Stats.median (Array.mapi (fun k s -> float_of_int s /. r.e2e_ns.(k)) stages) in
  let lo, hi = e2e_band w.Gen.ops in
  let reconciled = coverage >= coverage_floor && reconcile >= lo && reconcile <= hi in
  report "stage sum / %s span: %.3f (floor %.2f); stage sum / untraced end-to-end: %.3f (band [%.2f, %.2f]): %s"
    root coverage coverage_floor reconcile lo hi
    (if reconciled then "reconciles" else "DOES NOT reconcile");
  report "tracing overhead: traced / untraced wall = %.3f" r.overhead_ratio;
  let cap, combines_per_delta = layer_probes spans w in
  let log = Spans.spans spans in
  let file = Printf.sprintf "_perfbench/%s-seed%d.spans.jsonl" w.Gen.name seed in
  (try
     if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
     Out_channel.with_open_text file (fun oc -> output_string oc (Spans.to_jsonl log));
     report "spans: %d written to %s" (List.length log) file
   with Sys_error message -> report "spans not written: %s" message);
  let created = float_of_int r.counters.created and reused = float_of_int r.counters.reused in
  let median_ms name = Stats.median (durations_ms log name) in
  let combine_us = median_ms "kernel.combine" *. 1e3 in
  let terms = float_of_int ((cap + 1) * (cap + 2) / 2) in
  (* Compulsory traffic of one dense combine: both weight-grid
     triangles, two operand profiles in, one result out (8-byte
     floats). *)
  let bytes_moved = 8. *. ((2. *. terms) +. (3. *. float_of_int (cap + 1))) in
  report "kernel at capacity %d: %.0f terms per combine; terms_per_s and bytes_moved are computed from it"
    cap terms;
  let serve name = Option.value ~default:0. (List.assoc_opt name r.serve) in
  let combines, banded = r.combines in
  let incremental, cache_hits = r.sweep_flags in
  let metrics =
    List.map (fun name -> (name, serve name))
      [
        "protocol.parse_us";
        "protocol.serialize_us";
        "batcher.execute_ms";
        "batcher.batch_size";
        "batcher.groups";
        "server.overhead_ms";
        "registry.hits";
        "registry.misses";
        "registry.evictions";
        "registry.warm_install_ratio";
      ]
    @ [
        ("factor_tree.build_ms", median_ms "factor_tree.build");
        ("factor_tree.delta_ms", median_ms "factor_tree.delta");
        ("factor_tree.combines_per_delta", combines_per_delta);
        ("revenue.shadow_costs_us", median_ms "revenue.shadow_costs" *. 1e3);
        ("kernel.combine_us", combine_us);
        ("kernel.terms_per_s", terms /. (combine_us /. 1e6));
        ("kernel.bytes_moved", bytes_moved);
        ("kernel.banded_share", float_of_int banded /. float_of_int (max 1 combines));
        ("band_pool.dispatch_us", median_ms "band_pool.run" *. 1e3);
        ("pool.run_ms", median_ms "pool.run");
        ("arena.created", created);
        ("arena.reused", reused);
        ("arena.reuse_ratio", reused /. Float.max 1. (created +. reused));
        ("sweep.incremental_ratio", incremental);
        ("sweep.cache_hit_ratio", cache_hits);
        ("gc.minor_words_per_op", r.counters.minor_words /. float_of_int (max 1 r.units));
        ("gc.major_collections", float_of_int r.counters.major_collections);
        ("trace.reconcile_ratio", reconcile);
        ("trace.overhead_ratio", r.overhead_ratio);
      ]
  in
  (r.attempted, reconciled, metrics)

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let serve = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " Gen.names);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the timed window on the reference host");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--serve", Arg.Set_string serve, "EXE  the crossbar_serve binary");
      ( "--setup-probe",
        Arg.Set setup_only,
        " generate the workload, print generated, set up its switch shapes, print ready, exit" );
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --serve EXE";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let usage_error message =
    prerr_endline ("bench.exe: " ^ message);
    exit 2
  in
  if !seconds < 1 then usage_error "--seconds takes a whole number >= 1";
  let w =
    match
      Gen.generate ~workload:!workload ~seed:!seed ~seconds:(if !setup_only then 1 else !seconds)
    with
    | w -> w
    | exception Invalid_argument message -> usage_error message
  in
  if !setup_only then begin
    print_endline "generated";
    (match w.Gen.ops with
    | Gen.Plan p -> ignore (set_up_sweep w p : string array array)
    | Gen.Serve _ -> usage_error "--setup-probe takes an in-process workload");
    print_endline "ready";
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if String.equal !serve "" || not (Sys.file_exists !serve) then
    usage_error "--serve must name the crossbar_serve executable";
  let deadline = now () + budget_ns in
  let failures = { count = 0 } in
  report "workload %s, seed %d, %d s, trace %d" w.Gen.name !seed !seconds !trace;
  let attempted, correct, catalogue, metrics =
    if !trace = 1 then
      let attempted, reconciled, metrics = run_trace ~exe:!serve ~seed:!seed ~deadline failures w in
      (attempted, reconciled, Schema.per_layer, metrics)
    else
      let attempted, e =
        match w.Gen.ops with
        | Gen.Serve c -> run_serve ~exe:!serve ~deadline failures c
        | Gen.Plan p -> run_sweep ~seed:!seed ~deadline failures w p
      in
      (attempted, true, Schema.end_to_end, e2e_metrics e)
  in
  List.iter
    (fun (name, value) -> report "%-32s %.6g %s" name value (List.assoc name catalogue))
    metrics;
  report "bench process peak RSS: %d kB" (Option.value ~default:0 (own_rss_kb ()));
  let line =
    Schema.result_line ~correct:(correct && failures.count = 0) ~attempted ~failed:failures.count ~catalogue
      metrics
  in
  (match Schema.check_line ~catalogue line with
  | Ok () -> ()
  | Error message -> failwith ("malformed result line: " ^ message));
  print_endline line
