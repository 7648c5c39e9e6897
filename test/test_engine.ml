open Helpers
module Pool = Crossbar_engine.Pool
module Cache = Crossbar_engine.Cache
module Clock = Crossbar_engine.Clock
module Sweep = Crossbar_engine.Sweep
module Telemetry = Crossbar_engine.Telemetry
module Json = Crossbar_engine.Json
module Model = Crossbar.Model
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures

(* ---------- pool ---------- *)

let test_pool_orders_results () =
  let sequential = Pool.run ~domains:1 ~tasks:200 (fun i -> i * i) in
  let parallel = Pool.run ~domains:4 ~tasks:200 (fun i -> i * i) in
  check_bool "same results" true (sequential = parallel);
  check_int "length" 200 (Array.length parallel);
  Array.iteri (fun i v -> check_int "in index order" (i * i) v) parallel

let test_pool_empty_and_single () =
  check_int "no tasks" 0 (Array.length (Pool.run ~domains:4 ~tasks:0 Fun.id));
  check_bool "single task" true
    (Pool.run ~domains:4 ~tasks:1 (fun i -> 10 * i) = [| 0 |])

let test_pool_propagates_exception () =
  match
    Pool.run ~domains:3 ~tasks:50 (fun i ->
        if i = 25 then failwith "task 25 exploded" else i)
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure message ->
      check_bool "message preserved" true
        (String.equal message "task 25 exploded")

let test_pool_rejects_bad_arguments () =
  Helpers.check_invalid_contains "domains < 1" ~substring:"domains=0"
    (fun () -> ignore (Pool.run ~domains:0 ~tasks:4 Fun.id));
  Helpers.check_invalid_contains "tasks < 0" ~substring:"tasks=-1" (fun () ->
      ignore (Pool.run ~domains:2 ~tasks:(-1) Fun.id))

let test_pool_more_domains_than_tasks () =
  (* Asking for more workers than tasks must neither deadlock nor spawn
     idle domains that disturb the results. *)
  let results = Pool.run ~domains:8 ~tasks:3 (fun i -> i + 100) in
  check_bool "all tasks served" true (results = [| 100; 101; 102 |])

let test_pool_first_failure_wins () =
  (* With several failing tasks, exactly one exception is kept and
     raised after every worker has joined; the pool stays usable. *)
  (match
     Pool.run ~domains:4 ~tasks:64 (fun i ->
         if i mod 2 = 1 then failwith (Printf.sprintf "task %d failed" i)
         else i)
   with
  | _ -> Alcotest.fail "expected a task failure to propagate"
  | exception Failure message ->
      check_bool "one of the raised failures" true
        (String.length message > String.length "task "
        && String.equal (String.sub message 0 5) "task "));
  (* The raise happened after join: the next run must work normally. *)
  let again = Pool.run ~domains:4 ~tasks:10 (fun i -> i * 2) in
  check_int "pool reusable after failure" 18 again.(9)

(* Pool.run fans out over the persistent band-pool workers: once warm,
   further runs reuse the parked domains instead of spawning their own. *)
let test_pool_spawns_no_domain_per_run () =
  ignore (Pool.run ~domains:2 ~tasks:4 Fun.id : int array);
  let warm = Crossbar.Band_pool.size () in
  check_bool "a 2-domain run parks at least one worker" true (warm >= 1);
  for _ = 1 to 100 do
    ignore (Pool.run ~domains:2 ~tasks:4 Fun.id : int array)
  done;
  check_int "100 warm runs leave the worker count unchanged" warm
    (Crossbar.Band_pool.size ())

(* The CROSSBAR_DOMAINS override: valid values are honoured, malformed
   or non-positive values are a hard configuration error.  putenv has no
   inverse, so the original value (or a safe default) is always
   restored. *)
let with_crossbar_domains value f =
  let original = Sys.getenv_opt "CROSSBAR_DOMAINS" in
  Unix.putenv "CROSSBAR_DOMAINS" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CROSSBAR_DOMAINS"
        (match original with Some v -> v | None -> "2"))
    f

let test_pool_env_override () =
  with_crossbar_domains "3" (fun () ->
      check_int "valid override honoured" 3 (Pool.recommended_domains ()));
  with_crossbar_domains " 5 " (fun () ->
      check_int "whitespace trimmed" 5 (Pool.recommended_domains ()));
  with_crossbar_domains "0" (fun () ->
      check_raises_invalid "zero domains" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "-2" (fun () ->
      check_raises_invalid "negative domains" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "many" (fun () ->
      check_raises_invalid "non-integer" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "" (fun () ->
      check_raises_invalid "empty string" (fun () ->
          ignore (Pool.recommended_domains ())));
  (* A malformed override must also stop Pool.run's default width. *)
  with_crossbar_domains "zero" (fun () ->
      check_raises_invalid "run with malformed env" (fun () ->
          ignore (Pool.run ~tasks:2 Fun.id)))

(* ---------- cache keying ---------- *)

let two_class_model () =
  Model.square ~size:6
    ~classes:
      [ poisson ~name:"p" 0.4; pascal ~name:"q" ~alpha:0.3 ~beta:0.1 () ]

let test_cache_structural_hit () =
  let cache = Cache.create () in
  (* Two structurally equal models built independently share the key. *)
  let a = two_class_model () and b = two_class_model () in
  check_bool "equal keys" true
    (String.equal (Cache.key_of_model a) (Cache.key_of_model b));
  let solution_a, hit_a = Cache.find_or_solve cache a in
  let solution_b, hit_b = Cache.find_or_solve cache b in
  check_bool "first is a miss" false hit_a;
  check_bool "second is a hit" true hit_b;
  check_bool "same solution" true (solution_a == solution_b);
  check_int "hits" 1 (Cache.hits cache);
  check_int "misses" 1 (Cache.misses cache);
  check_close "hit rate" 0.5 (Cache.hit_rate cache)

let test_cache_perturbed_rate_misses () =
  let cache = Cache.create () in
  let base = two_class_model () in
  let perturbed =
    Model.map_class base 0 (fun c ->
        Crossbar.Traffic.with_alpha c (c.Crossbar.Traffic.alpha *. (1. +. 1e-13)))
  in
  check_bool "distinct keys" false
    (String.equal (Cache.key_of_model base) (Cache.key_of_model perturbed));
  ignore (Cache.find_or_solve cache base);
  let _, hit = Cache.find_or_solve cache perturbed in
  check_bool "perturbed rate misses" false hit;
  check_int "two entries" 2 (Cache.size cache)

let cache_hammer_prop =
  (* Many domains hammering one cache on a handful of distinct models: the
     counters must balance, the table must hold exactly the distinct keys,
     and every returned solution must be bit-identical to a direct solve. *)
  QCheck2.Test.make ~name:"cache: domains:4 hammer stays consistent" ~count:10
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 2 5) Helpers.random_model_gen)
    (fun models ->
      let models = Array.of_list models in
      let n = Array.length models in
      let direct = Array.map Solver.solve_full models in
      let distinct =
        List.length
          (List.sort_uniq String.compare
             (Array.to_list (Array.map Cache.key_of_model models)))
      in
      let cache = Cache.create () in
      let tasks = 64 in
      let results =
        Pool.run ~domains:4 ~tasks (fun i ->
            let which = i mod n in
            let solution, _hit = Cache.find_or_solve cache models.(which) in
            (which, solution))
      in
      check_int "hits + misses = tasks" tasks
        (Cache.hits cache + Cache.misses cache);
      check_int "size = distinct models" distinct (Cache.size cache);
      check_bool "at least one miss per distinct model" true
        (Cache.misses cache >= distinct);
      Array.iter
        (fun (which, (solution : Solver.solution)) ->
          check_bool "log G bit-identical to direct solve" true
            (Int64.equal
               (Int64.bits_of_float solution.Solver.log_normalization)
               (Int64.bits_of_float direct.(which).Solver.log_normalization)))
        results;
      true)

let test_cache_algorithm_in_key () =
  let model = two_class_model () in
  check_bool "algorithms key separately" false
    (String.equal
       (Cache.key_of_model ~algorithm:Solver.Convolution model)
       (Cache.key_of_model ~algorithm:Solver.Mean_value model))

let test_cache_key_injective () =
  let cls ?(bandwidth = 1) ?(alpha = 0.3) ?(beta = 0.) name =
    Crossbar.Traffic.create ~name ~bandwidth ~alpha ~beta ~service_rate:1. ()
  in
  let model classes = Model.square ~size:6 ~classes in
  let key m = Cache.key_of_model ~algorithm:Solver.Convolution m in
  let pair = model [ cls "a"; cls "b" ] in
  let prefix = String.length (key (model [])) in
  (* A single class named after the bytes of a two-class key: the
     length prefix keeps it apart from the model it spells. *)
  let spelt =
    model [ cls (String.sub (key pair) prefix (String.length (key pair) - prefix)) ]
  in
  let models =
    [
      pair;
      spelt;
      model [ cls "a|b" ];
      model [ cls "a:b" ];
      model [ cls "a;b" ];
      model [ cls "1:a"; cls "b" ];
      model [ cls "1"; cls ":ab" ];
      model [ cls "12" ];
      model [ cls "1"; cls "2" ];
      model [ cls ~bandwidth:2 "12" ];
      model [ cls ~alpha:(Float.succ 0.3) "12" ];
      model [ cls ~alpha:(Float.pred 0.3) "12" ];
      model [ cls ~beta:(-0.) "12" ];
      model [];
    ]
  in
  let keys = List.map key models in
  check_int "every model keys apart" (List.length models)
    (List.length (List.sort_uniq String.compare keys));
  List.iter2
    (fun m k -> check_bool "equal models, equal keys" true (String.equal k (key m)))
    [ model [ cls "1:a"; cls "b" ]; model [ cls ~beta:(-0.) "12" ] ]
    [ List.nth keys 5; List.nth keys 12 ]

(* ---------- memo capacity / eviction ---------- *)

let memo_get memo key value =
  fst (Cache.Memo.find_or_compute memo key (fun () -> value))

let test_memo_capacity_bounds_size () =
  let memo = Cache.Memo.create ~capacity:2 () in
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b" 2 (memo_get memo "b" 2);
  check_int "c" 3 (memo_get memo "c" 3);
  check_int "size stays at capacity" 2 (Cache.Memo.size memo);
  check_int "one eviction" 1 (Cache.Memo.evictions memo);
  check_int "misses" 3 (Cache.Memo.misses memo);
  check_int "hits" 0 (Cache.Memo.hits memo)

let test_memo_evicts_least_recently_used () =
  let memo = Cache.Memo.create ~capacity:2 () in
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "b" 2);
  (* Touch "a": it becomes the most recently used, so inserting "c"
     must displace "b", not "a". *)
  check_int "hit refreshes recency" 1 (memo_get memo "a" 99);
  ignore (memo_get memo "c" 3);
  check_int "a survives" 1 (memo_get memo "a" 99);
  check_int "b was evicted and recomputes" 20 (memo_get memo "b" 20);
  check_int "evictions" 2 (Cache.Memo.evictions memo)

let test_memo_unbounded_never_evicts () =
  let memo = Cache.Memo.create () in
  for i = 0 to 99 do
    ignore (memo_get memo (string_of_int i) i)
  done;
  check_int "all entries retained" 100 (Cache.Memo.size memo);
  check_int "no evictions" 0 (Cache.Memo.evictions memo)

let test_memo_clear_resets_stats () =
  (* clear returns the memo to its freshly-created state: entries AND
     statistics.  Keeping stale hit/miss counts across a clear made
     post-clear hit rates unreadable (a cleared cache reported the old
     warm rate while serving nothing but misses). *)
  let memo = Cache.Memo.create ~capacity:4 () in
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "b" 2);
  ignore (memo_get memo "c" 3);
  ignore (memo_get memo "d" 4);
  ignore (memo_get memo "e" 5);
  check_bool "setup saw an eviction" true (Cache.Memo.evictions memo > 0);
  Cache.Memo.clear memo;
  check_int "emptied" 0 (Cache.Memo.size memo);
  check_int "hits reset" 0 (Cache.Memo.hits memo);
  check_int "misses reset" 0 (Cache.Memo.misses memo);
  check_int "evictions reset" 0 (Cache.Memo.evictions memo);
  (* Counting restarts from zero, exactly as on a fresh memo. *)
  check_int "recomputes after clear" 7 (memo_get memo "a" 7);
  check_int "one miss since clear" 1 (Cache.Memo.misses memo);
  check_int "hit counts again" 7 (memo_get memo "a" 9);
  check_int "one hit since clear" 1 (Cache.Memo.hits memo)

let test_memo_find_and_set () =
  let memo = Cache.Memo.create ~capacity:2 () in
  check_bool "find on empty misses" true (Cache.Memo.find memo "a" = None);
  check_int "find counted the miss" 1 (Cache.Memo.misses memo);
  Cache.Memo.set memo "a" 1;
  check_bool "set then find" true (Cache.Memo.find memo "a" = Some 1);
  Cache.Memo.set memo "a" 10;
  check_bool "set overwrites in place" true
    (Cache.Memo.find memo "a" = Some 10);
  check_int "overwrite is not an insert" 1 (Cache.Memo.size memo);
  (* set participates in LRU: freshly set "b", then touch "a", then set
     "c" — "b" is the least recently used and must be the one evicted. *)
  Cache.Memo.set memo "b" 2;
  ignore (Cache.Memo.find memo "a");
  Cache.Memo.set memo "c" 3;
  check_int "capacity held" 2 (Cache.Memo.size memo);
  check_bool "a survives (recently used)" true
    (Cache.Memo.find memo "a" = Some 10);
  check_bool "b evicted" true (Cache.Memo.find memo "b" = None);
  check_int "eviction counted" 1 (Cache.Memo.evictions memo)

let test_memo_rejects_bad_capacity () =
  Helpers.check_invalid_contains "capacity 0" ~substring:"capacity=0"
    (fun () -> ignore (Cache.Memo.create ~capacity:0 ()));
  check_raises_invalid "negative capacity" (fun () ->
      ignore (Cache.create ~capacity:(-3) ()))

let test_memo_on_evict_fires_on_capacity () =
  let seen = ref [] in
  let memo =
    Cache.Memo.create ~capacity:2
      ~on_evict:(fun key value -> seen := (key, value) :: !seen)
      ()
  in
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b" 2 (memo_get memo "b" 2);
  check_bool "no eviction below capacity" true (!seen = []);
  (* "a" is LRU; inserting "c" displaces it — key and value both reach
     the callback. *)
  check_int "c" 3 (memo_get memo "c" 3);
  check_bool "victim delivered with its value" true (!seen = [ ("a", 1) ]);
  check_int "counter agrees with the callback" 1 (Cache.Memo.evictions memo);
  (* A fresh insert via [set] displaces the same way. *)
  Cache.Memo.set memo "d" 4;
  check_bool "set-displaced victim delivered" true
    (List.mem_assoc "b" !seen);
  check_int "two capacity evictions" 2 (Cache.Memo.evictions memo)

let test_memo_on_evict_quiet_on_replace_and_clear () =
  let fired = ref 0 in
  let memo =
    Cache.Memo.create ~capacity:2 ~on_evict:(fun _ _ -> incr fired) ()
  in
  Cache.Memo.set memo "a" 1;
  Cache.Memo.set memo "b" 2;
  (* In-place replacement is the caller handing over a new value — not
     displacement; clear is an explicit drop.  Neither notifies, exactly
     mirroring what [evictions] counts. *)
  Cache.Memo.set memo "a" 10;
  check_int "replace does not notify" 0 !fired;
  Cache.Memo.clear memo;
  check_int "clear does not notify" 0 !fired;
  check_int "nothing counted either" 0 (Cache.Memo.evictions memo)

let test_memo_on_evict_may_reenter () =
  (* The callback runs after the lock is released, so an on_evict that
     re-enters the memo (as the serve registry's bookkeeping may) must
     not deadlock. *)
  let memo_holder = ref None in
  let reentered = ref 0 in
  let memo =
    Cache.Memo.create ~capacity:1
      ~on_evict:(fun _ _ ->
        match !memo_holder with
        | Some memo ->
            incr reentered;
            ignore (Cache.Memo.size memo);
            ignore (Cache.Memo.find memo "probe")
        | None -> ())
      ()
  in
  memo_holder := Some memo;
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b displaces a" 2 (memo_get memo "b" 2);
  check_bool "callback re-entered the memo" true (!reentered > 0)

let test_bounded_solver_cache_still_correct () =
  (* A solver cache squeezed below the working set must recompute, never
     corrupt: every returned solution stays bit-identical to a direct
     solve. *)
  let cache = Cache.create ~capacity:2 () in
  let models =
    Array.of_list (List.map snd (Helpers.validation_models ()))
  in
  let direct = Array.map Solver.solve_full models in
  for _pass = 1 to 2 do
    Array.iteri
      (fun i model ->
        let solution, _hit = Cache.find_or_solve cache model in
        check_bool "bounded cache solution bit-identical" true
          (Int64.equal
             (Int64.bits_of_float solution.Solver.log_normalization)
             (Int64.bits_of_float direct.(i).Solver.log_normalization)))
      models
  done;
  check_int "size bounded" 2 (Cache.size cache);
  check_bool "evictions happened" true (Cache.evictions cache > 0)

(* ---------- sweep determinism ---------- *)

let bits_equal label a b =
  check_bool label true (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let check_outcomes_bit_identical (seq : Sweep.outcome array)
    (par : Sweep.outcome array) =
  check_int "same count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (a : Sweep.outcome) ->
      let b = par.(i) in
      bits_equal "log G" (Sweep.log_normalization a) (Sweep.log_normalization b);
      let ma = Sweep.measures a and mb = Sweep.measures b in
      bits_equal "busy ports" ma.Measures.busy_ports mb.Measures.busy_ports;
      Array.iteri
        (fun r (ca : Measures.per_class) ->
          let cb = mb.Measures.per_class.(r) in
          bits_equal "blocking" ca.Measures.blocking cb.Measures.blocking;
          bits_equal "concurrency" ca.Measures.concurrency
            cb.Measures.concurrency;
          bits_equal "throughput" ca.Measures.throughput cb.Measures.throughput)
        ma.Measures.per_class)
    seq

let sweep_determinism_prop =
  QCheck2.Test.make
    ~name:"sweep: domains:1 and domains:4 are bit-identical" ~count:30
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 8) Helpers.random_model_gen)
    (fun batch ->
      let points =
        List.mapi
          (fun i model -> Sweep.point ~label:(string_of_int i) model)
          batch
      in
      let seq = Sweep.run ~domains:1 points in
      let par = Sweep.run ~domains:4 points in
      check_outcomes_bit_identical seq par;
      true)

let test_sweep_warm_cache_identical () =
  (* A duplicated batch through one shared cache: second pass must be all
     hits and still bit-identical to the cold pass. *)
  let cache = Cache.create () in
  let points =
    List.concat_map
      (fun (label, model) -> [ Sweep.point ~label model ])
      (validation_models ())
  in
  let cold = Sweep.run ~domains:2 ~cache points in
  let warm = Sweep.run ~domains:2 ~cache points in
  check_outcomes_bit_identical cold warm;
  Array.iter
    (fun (o : Sweep.outcome) -> check_bool "warm hit" true o.Sweep.from_cache)
    warm

let test_sweep_single_solve_per_model () =
  (* The engine never solves the same model twice: measures and log G
     come from one solve_full, and repeats within a batch hit the cache. *)
  let cache = Cache.create () in
  let telemetry = Telemetry.create () in
  let model = two_class_model () in
  let points = List.init 5 (fun i -> Sweep.point ~label:(string_of_int i) model) in
  let outcomes = Sweep.run ~domains:1 ~cache ~telemetry points in
  check_int "one miss" 1 (Cache.misses cache);
  check_int "four hits" 4 (Cache.hits cache);
  check_int "five records" 5 (Telemetry.count telemetry);
  let solution = outcomes.(0).Sweep.solution in
  let direct = Solver.solve_full model in
  bits_equal "log G matches direct solve_full"
    solution.Solver.log_normalization direct.Solver.log_normalization;
  bits_equal "blocking matches Solver.solve"
    (Solver.solve model).Measures.per_class.(0).Measures.blocking
    solution.Solver.measures.Measures.per_class.(0).Measures.blocking

(* ---------- solve_full consistency ---------- *)

let test_solve_full_matches_components () =
  List.iter
    (fun (label, model) ->
      List.iter
        (fun algorithm ->
          let full = Solver.solve_full ~algorithm model in
          check_close
            (label ^ ": log G in one solve")
            (Solver.log_normalization ~algorithm model)
            full.Solver.log_normalization ~tol:1e-12;
          check_close
            (label ^ ": blocking in one solve")
            (Solver.solve ~algorithm model).Measures.per_class.(0)
              .Measures.blocking
            full.Solver.measures.Measures.per_class.(0).Measures.blocking
            ~tol:1e-12)
        [ Solver.Brute_force; Solver.Convolution; Solver.Mean_value ])
    [ List.hd (validation_models ()); List.nth (validation_models ()) 3 ]

(* ---------- telemetry ---------- *)

let json_float key json =
  match Json.member key json with
  | Some (Json.Float f) -> f
  | _ -> Alcotest.failf "telemetry json lacks float %s" key

let json_int key json =
  match Json.member key json with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "telemetry json lacks int %s" key

let wall_summary telemetry =
  let json = Telemetry.to_json telemetry in
  ( json_float "wall_seconds_p50" json,
    json_float "wall_seconds_p95" json,
    json_float "wall_seconds_max" json )

let bits_identical a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The percentile estimate's documented bound: never below the exact
   value, at most 2^-5 above it. *)
let histogram_slack = 1. +. Float.ldexp 1. (-5)

let within_slack ~exact estimate =
  estimate >= exact && estimate <= exact *. histogram_slack

let test_telemetry_sweep_aggregates () =
  let telemetry = Telemetry.create () in
  let points =
    List.map
      (fun (label, model) -> Sweep.point ~label model)
      (validation_models ())
  in
  let outcomes = Sweep.run ~domains:3 ~telemetry points in
  let json = Telemetry.to_json telemetry in
  check_int "one solve per point" (List.length points)
    (Telemetry.count telemetry);
  check_int "solves field" (List.length points) (json_int "solves" json);
  check_bool "wall time accumulates" true
    (Telemetry.total_wall_seconds telemetry >= 0.);
  check_int "cells summed over points"
    (Array.fold_left
       (fun acc (o : Sweep.outcome) ->
         acc + o.Sweep.solution.Solver.lattice_cells)
       0 outcomes)
    (json_int "lattice_cells" json);
  check_bool "cells recorded" true (json_int "lattice_cells" json > 0);
  check_int "no rescales at these sizes" 0 (json_int "rescales" json)

let wall_record wall =
  {
    Telemetry.wall_seconds = wall;
    lattice_cells = 1;
    rescales = 0;
    tree_combines = 0;
    banded_combines = 0;
    from_incremental = false;
  }

let test_telemetry_wall_percentiles () =
  let p50, p95, wall_max = wall_summary (Telemetry.create ()) in
  check_close "empty p50" 0. p50;
  check_close "empty p95" 0. p95;
  check_close "empty max" 0. wall_max;
  (* A single wall: every estimate clamps to the exact maximum. *)
  let single = Telemetry.create () in
  Telemetry.record single (wall_record 0.5);
  let p50, p95, wall_max = wall_summary single in
  check_close "single p50" 0.5 p50;
  check_close "single p95" 0.5 p95;
  check_close "single max" 0.5 wall_max;
  (* Nearest rank over {1..4} recorded out of order: p50 is the 2nd
     smallest, p95 the 4th (the maximum, so exact). *)
  let four = Telemetry.create () in
  List.iter (fun w -> Telemetry.record four (wall_record w)) [ 3.; 1.; 4.; 2. ];
  let p50, p95, wall_max = wall_summary four in
  check_bool "p50 nearest rank" true (within_slack ~exact:2. p50);
  check_close "p95 nearest rank" 4. p95;
  check_close "max" 4. wall_max;
  (* 20 records: p95 must exclude only the top record. *)
  let twenty = Telemetry.create () in
  for i = 20 downto 1 do
    Telemetry.record twenty (wall_record (float_of_int i))
  done;
  let p50, p95, wall_max = wall_summary twenty in
  check_bool "p50 of 20" true (within_slack ~exact:10. p50);
  check_bool "p95 of 20" true (within_slack ~exact:19. p95);
  check_bool "p95 below the top record" true (p95 < 20.);
  check_close "max of 20" 20. wall_max

(* Nearest rank over ascending [sorted], as DESIGN.md defines p50/p95. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(min (n - 1) (max 0 (rank - 1)))

let telemetry_percentiles_prop =
  (* Zeros plus walls spread over the histogram's whole range
     [2^-30, 2^18) seconds, with repeats. *)
  let wall =
    QCheck2.Gen.(
      frequency
        [
          (1, pure 0.);
          ( 9,
            map2
              (fun mantissa exponent -> Float.ldexp (1. +. mantissa) exponent)
              (float_bound_exclusive 1.) (int_range (-30) 17) );
        ])
  in
  QCheck2.Test.make
    ~name:"telemetry: p50/p95 within 2^-5 of nearest rank, max exact"
    ~count:300
    QCheck2.Gen.(list_size (int_range 1 200) wall)
    (fun walls ->
      let telemetry = Telemetry.create () in
      List.iter (fun w -> Telemetry.record telemetry (wall_record w)) walls;
      let sorted = Array.of_list walls in
      (* lint: disable=R7 — total order for sorting, not a tolerance test *)
      Array.sort Float.compare sorted;
      let p50, p95, wall_max = wall_summary telemetry in
      let exact_max = sorted.(Array.length sorted - 1) in
      within_slack ~exact:(nearest_rank sorted 0.5) p50
      && within_slack ~exact:(nearest_rank sorted 0.95) p95
      && p95 <= exact_max
      && bits_identical wall_max exact_max)

let test_telemetry_clamps_negative_wall () =
  (* A non-monotonic time source could hand record a negative delta;
     it must count as zero so totals and percentiles never move
     backwards. *)
  let telemetry = Telemetry.create () in
  Telemetry.record telemetry (wall_record (-0.25));
  Telemetry.record telemetry (wall_record 0.5);
  check_int "both counted" 2 (Telemetry.count telemetry);
  check_close "total never negative" 0.5
    (Telemetry.total_wall_seconds telemetry);
  let p50, _, wall_max = wall_summary telemetry in
  check_bool "clamped wall is the exact zero p50" true (bits_identical 0. p50);
  check_close "max untouched" 0.5 wall_max;
  let only_negative = Telemetry.create () in
  Telemetry.record only_negative (wall_record (-1.));
  let p50, p95, wall_max = wall_summary only_negative in
  check_bool "all zero" true
    (bits_identical 0. p50 && bits_identical 0. p95
    && bits_identical 0. wall_max
    && bits_identical 0. (Telemetry.total_wall_seconds only_negative))

let test_telemetry_snapshot_consistent_under_load () =
  (* to_json must take ONE locked snapshot: while another domain keeps
     recording equal walls, every emitted document must agree with
     itself — the total is exactly [solves] walls (0.25 sums exactly)
     and every record's lattice cell landed with its solve. *)
  let wall = 0.25 in
  let telemetry = Telemetry.create () in
  let outcomes =
    Pool.run ~domains:2 ~tasks:2 (fun task ->
        if task = 0 then begin
          for _ = 1 to 5000 do
            Telemetry.record telemetry (wall_record wall)
          done;
          true
        end
        else begin
          let consistent = ref true in
          for _ = 1 to 200 do
            let json = Telemetry.to_json telemetry in
            let solves = json_int "solves" json in
            if
              not
                (bits_identical
                   (json_float "wall_seconds" json)
                   (float_of_int solves *. wall)
                && json_int "lattice_cells" json = solves)
            then consistent := false
          done;
          !consistent
        end)
  in
  check_bool "recorder finished" true outcomes.(0);
  check_bool "every snapshot self-consistent" true outcomes.(1);
  check_int "all records landed" 5000 (Telemetry.count telemetry)

let test_telemetry_memory_bounded () =
  (* The collector is fixed-size: a million more solves, spread over
     every histogram region, leave its heap footprint unchanged. *)
  let telemetry = Telemetry.create () in
  let samples =
    Array.map wall_record [| 0.; 1e-12; 3e-9; 1e-6; 0.02; 1.5; 7e3; 1e9 |]
  in
  let record_n n =
    for i = 1 to n do
      Telemetry.record telemetry samples.(i land 7)
    done
  in
  record_n 1_000;
  let after_thousand = Obj.reachable_words (Obj.repr telemetry) in
  record_n 999_000;
  check_int "a million solves recorded" 1_000_000 (Telemetry.count telemetry);
  check_int "reachable words independent of solve count" after_thousand
    (Obj.reachable_words (Obj.repr telemetry))

let test_telemetry_record_allocates_nothing () =
  let telemetry = Telemetry.create () in
  let samples = Array.map wall_record [| 0.; 2.5e-7; 0.003; 4.; -1. |] in
  let record_all () =
    for i = 0 to 9_999 do
      Telemetry.record telemetry samples.(i mod 5)
    done
  in
  record_all ();
  let before = Gc.minor_words () in
  record_all ();
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf
      "10k Telemetry.record calls allocated %.0f minor words (expected 0)"
      words

(* ---------- monotonic clock ---------- *)

let test_clock_monotonic () =
  let previous = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check_bool "never goes backwards" true (t >= !previous);
    previous := t
  done;
  check_bool "now_ns positive" true (Int64.compare (Clock.now_ns ()) 0L > 0)

let test_clock_elapsed_clamped () =
  let started = Clock.now () in
  check_bool "elapsed non-negative" true (Clock.elapsed_since started >= 0.);
  (* A start stamp from the future (the NTP-step scenario the monotonic
     clock exists to rule out) still yields zero, never a negative. *)
  check_close "future start clamps to zero" 0.
    (Clock.elapsed_since (started +. 3600.))

(* ---------- json ---------- *)

let sample_json =
  Json.Assoc
    [
      ("schema", Json.String "crossbar-sample/1");
      ("count", Json.Int 3);
      ("rate", Json.Float 0.062992125984251968);
      ("ok", Json.Bool true);
      ("nothing", Json.Null);
      ("names", Json.List [ Json.String "a\"b\\c"; Json.String "tab\there" ]);
      ("nested", Json.Assoc [ ("empty_list", Json.List []); ("empty", Json.Assoc []) ]);
    ]

let test_json_roundtrip () =
  (match Json.of_string (Json.to_string sample_json) with
  | Ok parsed -> check_bool "compact roundtrip" true (parsed = sample_json)
  | Error m -> Alcotest.failf "compact roundtrip failed: %s" m);
  match Json.of_string (Format.asprintf "%a" Json.pp sample_json) with
  | Ok parsed -> check_bool "pretty roundtrip" true (parsed = sample_json)
  | Error m -> Alcotest.failf "pretty roundtrip failed: %s" m

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
          check_bool "float bits survive" true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | _ -> Alcotest.fail "float did not roundtrip")
    [ 0.1; 1e-300; 6.02214076e23; -0.0024; Float.pi ];
  (* Non-finite floats must degrade to null, never to invalid tokens. *)
  check_bool "inf is null" true
    (String.equal (Json.to_string (Json.Float Float.infinity)) "null");
  check_bool "nan is null" true
    (String.equal (Json.to_string (Json.Float Float.nan)) "null")

(* The float writer's contract, restated on top of [Printf.sprintf]:
   non-finite -> null, otherwise %.17g with ".0" appended when the
   token would otherwise read back as an int. *)
let reference_float_literal f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let float_writer_matches f =
  String.equal (Json.to_string (Json.Float f)) (reference_float_literal f)

(* The writer's token reads back as the same double, bit for bit. *)
let float_writer_roundtrips f =
  (not (Float.is_finite f))
  || Int64.equal (Int64.bits_of_float f)
       (Int64.bits_of_float (float_of_string (Json.to_string (Json.Float f))))

let ulp_neighbours f ~ulps =
  List.init ((2 * ulps) + 1) (fun i ->
      Int64.float_of_bits
        (Int64.add (Int64.bits_of_float f) (Int64.of_int (i - ulps))))

(* Exact ties of the 17th significant digit, where %.17g rounds half to
   even.  Above 1: [10^(16-j) + m / 2^(j+1)] with [m] odd scales by
   [10^j] to [10^16 + m 5^j / 2].  Below 1: [q / 2^(k+1)] with [q] odd
   and [q 5^k] in [2 10^16, 2 10^17) scales by [10^k] to [q 5^k / 2]. *)
let exact_ties =
  let above =
    List.concat_map
      (fun j ->
        List.map
          (fun m ->
            (10. ** float_of_int (16 - j)) +. (float_of_int m /. Float.ldexp 1. (j + 1)))
          [ 1; 3; 5; 7; 99; 12345 ])
      (List.init 16 (fun j -> j + 1))
  and below =
    List.concat_map
      (fun k ->
        let five_k = 5. ** float_of_int k in
        let low = Float.to_int (Float.ceil (2e16 /. five_k)) lor 1 in
        List.filter_map
          (fun q ->
            if float_of_int q *. five_k < 2e17 then
              Some (float_of_int q /. Float.ldexp 1. (k + 1))
            else None)
          [ low; low + 2; low + 4; low + 1000; 3 * low; 9 * low ])
      [ 17; 18; 19; 20; 21; 22 ]
  in
  above @ below

let test_json_float_writer_edges () =
  let two_53 = Float.ldexp 1. 53 in
  let powers_of_ten =
    List.concat_map
      (fun k -> ulp_neighbours (10. ** float_of_int k) ~ulps:50)
      (List.init 25 (fun i -> i - 7))
  in
  let fixed =
    [
      0.; -0.; Int64.float_of_bits 1L; -.Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; Float.min_float;
      -.Float.min_float; Float.max_float; -.Float.max_float; 1e16; 1e17;
      two_53 -. 1.; two_53; two_53 +. 1.; two_53 +. 2.;
      (* 2^-25 has exactly 18 significant digits: %.17g rounds a tie. *)
      Float.ldexp 1. (-25); Float.infinity; Float.neg_infinity; Float.nan;
      (* Subnormals. *)
      Float.ldexp 1. (-1074); Float.ldexp 3. (-1070); -.Float.ldexp 5. (-1050);
      (* Round-ups that carry into a new decade. *)
      0.99999999999999989; 9.9999999999999982; 9999999999999998.;
      0.000099999999999999991; 1.0; 1.5; 100.; 123456789.;
    ]
  in
  (* Both edges of the fast range, 1e-6 and 1e16, and their negatives. *)
  let range_edges =
    List.concat_map
      (fun f -> ulp_neighbours f ~ulps:3 @ ulp_neighbours (-.f) ~ulps:3)
      [ 1e-6; 1e16; 1e-5; 1e-4 ]
  in
  (* The writer estimates the decimal exponent from the binary one and
     corrects it: the doubles either side of each power of ten it
     spells, and of the fast range's bounds, 1e-6 and 1e16. *)
  let decades =
    List.concat_map
      (fun f -> [ Float.pred f; Float.succ f ])
      (1e-6 :: 1e16 :: List.init 23 (fun i -> 10. ** float_of_int (i - 6)))
  in
  (* 17 digits ending in k zeros, k = 1 .. 16: exact integers of 17 - k
     digits, and exact binary fractions of them, so the trailing-zero
     scan stops at every position, the leading digit included. *)
  let trailing_zeros =
    List.concat_map
      (fun k ->
        let m =
          float_of_int (12345678901234567 / int_of_float (10. ** float_of_int k))
        in
        List.map (fun j -> Float.ldexp m (-j)) [ 0; 1; 3; 7; 20; 40 ])
      (List.init 16 (fun k -> k + 1))
  in
  let positives =
    fixed @ powers_of_ten @ range_edges @ exact_ties @ decades
    @ trailing_zeros
  in
  List.iter
    (fun f ->
      if not (float_writer_matches f && float_writer_roundtrips f) then
        Alcotest.failf "float writer: %h gives %S, expected %S" f
          (Json.to_string (Json.Float f))
          (reference_float_literal f))
    (positives @ List.map Float.neg positives);
  List.iter
    (fun f ->
      check_bool "non-finite is null" true
        (String.equal (Json.to_string (Json.Float f)) "null"))
    [ Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ]

(* Log-uniform magnitudes of either sign over 1e-9 .. 1e19 (the fast
   range and both sides of it), uniform [0, 1], and raw bit patterns. *)
let float_draw =
  let open QCheck2.Gen in
  oneof
    [
      map2
        (fun e negative ->
          let f = 10. ** e in
          if negative then -.f else f)
        (float_range (-9.) 19.) bool;
      float_range 0. 1.;
      map Int64.float_of_bits int64;
    ]

let float_writer_prop =
  QCheck2.Test.make ~name:"json: float writer matches sprintf %.17g"
    ~count:1_000_000 ~print:(fun f -> Printf.sprintf "%h" f)
    float_draw
    (fun f -> float_writer_matches f && float_writer_roundtrips f)

(* The number grammar [Json.of_string] had before it shared
   [Json.number], restated on the standard library: a token with no
   [.], [e] or [E] is an [Int] when [int_of_string_opt] takes it, and
   anything else a [Float] when [float_of_string_opt] does. *)
let reference_number token =
  let as_float () =
    Option.map (fun f -> Json.Float f) (float_of_string_opt token)
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token then
    as_float ()
  else
    match int_of_string_opt token with
    | Some i -> Some (Json.Int i)
    | None -> as_float ()

let show_number = function
  | Some (Json.Int i) -> Printf.sprintf "Int %d" i
  | Some (Json.Float f) -> Printf.sprintf "Float %h" f
  | Some other -> Json.to_string other
  | None -> "None"

(* Equal ints, or doubles equal bit for bit (sign of zero included). *)
let same_number a b =
  match (a, b) with
  | Some (Json.Int i), Some (Json.Int j) -> i = j
  | Some (Json.Float f), Some (Json.Float g) ->
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | None, None -> true
  | _ -> false

(* [token] read in the middle of a line, by the number reader and by
   [Json.of_string], against the reference. *)
let number_matches token =
  let text = "[ " ^ token ^ "]" in
  let stop = 2 + String.length token in
  let expected = reference_number token in
  Json.number_end text 2 = stop
  && same_number (Json.number text 2 stop) expected
  &&
  match (Json.of_string token, expected) with
  | Ok value, Some _ -> same_number (Some value) expected
  | Error _, None -> true
  | Ok _, None | Error _, Some _ -> false

let test_json_number_cases () =
  let zeros k = String.make k '0' in
  let two_53 = 1 lsl 53 in
  let cases =
    [
      "-0"; "-0.0"; "0"; "0.0"; "0e0"; "-0e0"; "0e-30"; ".5"; "-.5"; "+.5";
      "1."; "1.e5"; "+1"; "-1"; "01"; "007"; "-007.50"; "1E5"; "1e+5";
      "1e-5"; "2.5E-3"; string_of_int (two_53 - 1); string_of_int two_53;
      string_of_int (two_53 + 1); string_of_int (two_53 - 1) ^ ".0";
      string_of_int two_53 ^ ".0"; string_of_int (two_53 + 1) ^ ".0";
      (* Mantissas at the 2^53 bound, scaled: one past it no longer is an
         exact double, so the fast path must not take it. *)
      string_of_int (two_53 - 1) ^ "e1"; string_of_int (two_53 + 1) ^ "e1";
      string_of_int (two_53 + 1) ^ "e-1"; string_of_int (two_53 + 3) ^ "e5";
      string_of_int (two_53 + 1) ^ "e-22"; string_of_int (two_53 - 1) ^ "e-22";
      "1e22"; "1e23"; "3e22"; "3e23"; "7e-22"; "7e-23"; "1e-22"; "1e-23";
      "123456789012345"; "1234567890123456"; "12345678901234567";
      "1.23456789012345"; "1.234567890123456"; "1.2345678901234567";
      "0.123456789012345e-10"; "9999999999999999e22";
      "0." ^ zeros 22 ^ "1"; "0." ^ zeros 23 ^ "1"; "3." ^ zeros 22 ^ "e22";
      "1e400"; "-1e400"; "1e-400"; "1e99999999999999999999"; "0.1e-99999999999";
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
      "-4611686018427387905"; "123456789012345678"; "1234567890123456789";
      "00000000000000000000001"; "-"; "+"; "."; "e5"; "1e"; "1e+"; "1e-";
      "1-2"; "1+2"; "--1"; "+-1"; "1.2.3"; "1e5e5"; "1e5.0"; "..5"; "-e1";
    ]
  in
  List.iter
    (fun token ->
      if not (number_matches token) then
        Alcotest.failf "number %S: read %s, expected %s" token
          (show_number
             (Json.number ("[ " ^ token ^ "]") 2 (2 + String.length token)))
          (show_number (reference_number token)))
    cases;
  check_int "number_end stops at a non-number byte" 4
    (Json.number_end "-1.5,2" 0);
  check_int "number_end at a non-number byte" 0 (Json.number_end "x1" 0)

(* Short decimals with exponents in -30..30, %.17g (and shorter) tokens
   of random doubles, mantissas around 2^53, and ints, both signs. *)
let number_token_gen =
  let open QCheck2.Gen in
  let sign = oneofl [ ""; "-"; "+" ] in
  let exponent =
    oneof
      [
        return "";
        map3
          (fun e s k -> Printf.sprintf "%s%s%d" e s k)
          (oneofl [ "e"; "E" ]) (oneofl [ ""; "-"; "+" ]) (int_range 0 30);
      ]
  in
  let short_decimal =
    let* digits = string_size ~gen:(char_range '0' '9') (int_range 1 17) in
    let* point = int_range 0 (String.length digits + 1) in
    let mantissa =
      if point > String.length digits then digits
      else
        String.sub digits 0 point ^ "."
        ^ String.sub digits point (String.length digits - point)
    in
    map2 (fun s e -> s ^ mantissa ^ e) sign exponent
  in
  let printed_double =
    let* f =
      oneof
        [
          map Int64.float_of_bits int64;
          map2
            (fun e negative -> if negative then -.(10. ** e) else 10. ** e)
            (float_range (-30.) 30.) bool;
        ]
    in
    let* precision = oneofl [ 15; 16; 17 ] in
    return (Printf.sprintf "%.*g" precision f)
  in
  let near_two_53 =
    map3
      (fun s k e -> Printf.sprintf "%s%d%s" s ((1 lsl 53) + k) e)
      sign (int_range (-3) 3) exponent
  in
  let int_token =
    map2
      (fun s i -> s ^ string_of_int i)
      sign
      (oneof [ int_range (-1000) 1000; int; map (fun i -> i asr 20) int ])
  in
  frequency
    [
      (5, short_decimal); (3, printed_double); (1, near_two_53); (1, int_token);
    ]

let number_reader_prop =
  QCheck2.Test.make ~name:"json: number reader matches the stdlib grammar"
    ~count:1_000_000 ~print:(fun t -> t) number_token_gen
    (fun token ->
      (* A printed nan or infinity is not a number token. *)
      (not
         (String.for_all
            (fun c -> (c >= '0' && c <= '9') || String.contains "+-.eE" c)
            token))
      || number_matches token)

let test_json_rejects_malformed () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" text)
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; ""; "{\"a\" 1}"; "\"unterminated" ]

let test_json_member () =
  check_bool "member finds field" true
    (Json.member "count" sample_json = Some (Json.Int 3));
  check_bool "member misses absent" true (Json.member "absent" sample_json = None);
  check_bool "member on non-object" true (Json.member "x" (Json.Int 1) = None)

let test_telemetry_json_shape () =
  let cache = Cache.create () in
  let telemetry = Telemetry.create () in
  let model = two_class_model () in
  ignore
    (Sweep.run ~domains:1 ~cache ~telemetry
       [ Sweep.point ~label:"a" model; Sweep.point ~label:"b" model ]);
  let json = Telemetry.to_json ~cache ~domains:1 telemetry in
  (* The emitted document must re-parse and carry the schema fields
     DESIGN.md documents. *)
  (match Json.of_string (Json.to_string json) with
  | Ok reparsed -> check_bool "reparses" true (reparsed = json)
  | Error m -> Alcotest.failf "telemetry json malformed: %s" m);
  check_bool "solve count" true (Json.member "solves" json = Some (Json.Int 2));
  List.iter
    (fun field ->
      match Json.member field json with
      | Some (Json.Float v) ->
          check_bool (field ^ " non-negative") true (v >= 0.)
      | _ -> Alcotest.failf "%s missing from telemetry json" field)
    [ "wall_seconds_p50"; "wall_seconds_p95"; "wall_seconds_max" ];
  (* One miss solved the two-class model: R - 1 = 1 combine; the hit
     contributes zero, so the aggregate counter is exactly 1. *)
  check_bool "tree_combines aggregated" true
    (Json.member "tree_combines" json = Some (Json.Int 1));
  (match Json.member "cache" json with
  | Some cache_json ->
      check_bool "hits" true (Json.member "hits" cache_json = Some (Json.Int 1));
      check_bool "misses" true
        (Json.member "misses" cache_json = Some (Json.Int 1));
      check_bool "evictions" true
        (Json.member "evictions" cache_json = Some (Json.Int 0))
  | None -> Alcotest.fail "cache stats missing");
  (* Fixed-size aggregates only: no per-solve record list. *)
  check_bool "no records list" true (Json.member "records" json = None)

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          case "index order" test_pool_orders_results;
          case "empty and single" test_pool_empty_and_single;
          case "more domains than tasks" test_pool_more_domains_than_tasks;
          case "exception propagation" test_pool_propagates_exception;
          case "first failure wins" test_pool_first_failure_wins;
          case "bad arguments" test_pool_rejects_bad_arguments;
          case "CROSSBAR_DOMAINS override" test_pool_env_override;
          case "no domain spawned per run"
            test_pool_spawns_no_domain_per_run;
        ] );
      ( "cache",
        [
          case "structural hit" test_cache_structural_hit;
          case "perturbed rate misses" test_cache_perturbed_rate_misses;
          case "algorithm in key" test_cache_algorithm_in_key;
          case "key injective on names, ulps and signed zeros"
            test_cache_key_injective;
          qcheck cache_hammer_prop;
        ] );
      ( "memo capacity",
        [
          case "size bounded" test_memo_capacity_bounds_size;
          case "LRU eviction order" test_memo_evicts_least_recently_used;
          case "unbounded never evicts" test_memo_unbounded_never_evicts;
          case "clear resets statistics" test_memo_clear_resets_stats;
          case "find and set" test_memo_find_and_set;
          case "rejects bad capacity" test_memo_rejects_bad_capacity;
          case "on_evict fires on capacity displacement"
            test_memo_on_evict_fires_on_capacity;
          case "on_evict quiet on replace and clear"
            test_memo_on_evict_quiet_on_replace_and_clear;
          case "on_evict may re-enter the memo"
            test_memo_on_evict_may_reenter;
          case "bounded solver cache stays correct"
            test_bounded_solver_cache_still_correct;
        ] );
      ( "sweep",
        [
          case "warm cache identical" test_sweep_warm_cache_identical;
          case "single solve per model" test_sweep_single_solve_per_model;
          case "solve_full consistency" test_solve_full_matches_components;
        ] );
      ("determinism", [ qcheck sweep_determinism_prop ]);
      ( "telemetry",
        [
          case "sweep aggregates" test_telemetry_sweep_aggregates;
          case "wall-time percentiles" test_telemetry_wall_percentiles;
          qcheck telemetry_percentiles_prop;
          case "negative wall time clamped" test_telemetry_clamps_negative_wall;
          case "snapshot consistent under load"
            test_telemetry_snapshot_consistent_under_load;
          case "memory bounded" test_telemetry_memory_bounded;
          case "record allocates nothing"
            test_telemetry_record_allocates_nothing;
          case "json shape" test_telemetry_json_shape;
        ] );
      ( "clock",
        [
          case "monotonic" test_clock_monotonic;
          case "elapsed clamped" test_clock_elapsed_clamped;
        ] );
      ( "json",
        [
          case "roundtrip" test_json_roundtrip;
          case "float fidelity" test_json_float_fidelity;
          case "float writer edge cases" test_json_float_writer_edges;
          qcheck float_writer_prop;
          case "number reader fixed cases" test_json_number_cases;
          qcheck number_reader_prop;
          case "rejects malformed" test_json_rejects_malformed;
          case "member" test_json_member;
        ] );
    ]
