(* The combine kernels are the solver's inner loop: the tiled dense
   kernel, the strided kernel, the banded parallel dispatch and the
   arena-recycled storage must all be bitwise-invisible — every result
   identical to the reference combine ([Convolution.combine_naive]) on
   every operand pair, in every rescaling regime, at every capacity
   relative to the fixed kernel block edge and for every domain count.
   These suites pin that contract, the one-pass [Lattice.normalize],
   and the zero-allocation arena plateau. *)

module Conv = Crossbar.Convolution
module Tree = Crossbar.Convolution.Factor_tree
module Lattice = Crossbar.Lattice
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic

let bits = Int64.bits_of_float
let floats_identical a b = Int64.equal (bits a) (bits b)

let check_bits label a b =
  if not (floats_identical a b) then
    Alcotest.failf "%s: %.17g and %.17g differ in bits" label a b

(* ---------- operand construction ---------- *)

(* A profile with entries at multiples of [stride] (the invariant class
   factors satisfy), magnitudes around [10^mag].  Values come from a
   splitmix-style integer hash of (seed, u), so operands are
   reproducible without threading a generator through qcheck shrink. *)
let hashed_unit seed u =
  let h = ref (Int64.of_int ((seed * 0x9e3779b9) + (u * 0x85ebca6b))) in
  h := Int64.mul !h 0xff51afd7ed558ccdL;
  h := Int64.logxor !h (Int64.shift_right_logical !h 33);
  let mantissa = Int64.to_float (Int64.logand !h 0xfffffL) in
  0.05 +. (0.9 *. (mantissa /. 1048576.))

let make_profile ~cap ~stride ~mag seed =
  let l = Lattice.create ~stride ~capacity:cap () in
  let factor = 10. ** float_of_int mag in
  for k = 0 to cap / stride do
    Lattice.set l (k * stride) (hashed_unit seed k *. factor)
  done;
  l

let context ?threshold ?domains cap =
  Conv.context_of ?combine_threshold:threshold ?band_domains:domains
    ~inputs:cap ~outputs:(cap + 3) ()

let check_same_lattice label reference candidate =
  Helpers.check_int (label ^ ": capacity") (Lattice.capacity reference)
    (Lattice.capacity candidate);
  Helpers.check_int (label ^ ": stride") (Lattice.stride reference)
    (Lattice.stride candidate);
  Helpers.check_int (label ^ ": scale") (Lattice.scale reference)
    (Lattice.scale candidate);
  for u = 0 to Lattice.capacity reference do
    check_bits
      (Printf.sprintf "%s: entry %d" label u)
      (Lattice.get reference u) (Lattice.get candidate u)
  done

let check_combine_matches_naive label ctx a b =
  let fast = Conv.combine ctx a b in
  let naive = Conv.combine_naive ctx a b in
  check_same_lattice label naive fast

(* ---------- tiled kernel vs the reference combine ---------- *)

(* Capacities up to 160 span one, two and a partial third block of the
   kernel's 64-entry tile. *)
let operand_gen =
  let open QCheck2.Gen in
  let* cap = int_range 4 160 in
  let* sa = oneofl [ 1; 1; 1; 2; 3 ] in
  let* sb = oneofl [ 1; 1; 2; 3 ] in
  (* mag 0: plain regime.  mag ~123 per operand: the product overflows
     the rescale threshold, so the prechunk borrows chunks and the
     chunk-scaled scratch copies feed the kernel.  mag ~245: single
     entries sit near the threshold and the result needs normalize's
     one-pass chunk application too. *)
  let* mag = oneofl [ 0; 0; 123; 245 ] in
  let* seed = int_range 1 1_000_000 in
  return (cap, sa, sb, mag, seed)

let combine_matches_naive =
  QCheck2.Test.make ~name:"combine is bit-identical to combine_naive"
    ~count:120 operand_gen (fun (cap, sa, sb, mag, seed) ->
      let ctx = context cap in
      let a = make_profile ~cap ~stride:sa ~mag seed in
      let b = make_profile ~cap ~stride:sb ~mag (seed + 1) in
      check_combine_matches_naive
        (Printf.sprintf "cap=%d sa=%d sb=%d mag=%d" cap sa sb mag)
        ctx a b;
      true)

(* A lattice holds cap + 1 entries, so caps 63 and 127 fill exactly one
   and two 64-entry blocks, and 64, 65, 128 and 129 add a one- or
   two-entry final block: the partial final block of both tile loops.
   Cap 256, four blocks and a one-entry tail, sits at the default
   banding threshold; one band keeps it on the sequential kernel. *)
let block_edge_caps = [ 63; 64; 65; 127; 128; 129 ]

let test_tile_boundaries () =
  List.iter
    (fun cap ->
      List.iter
        (fun mag ->
          let ctx = context ~domains:1 cap in
          let a = make_profile ~cap ~stride:1 ~mag 11 in
          let b = make_profile ~cap ~stride:1 ~mag 12 in
          check_combine_matches_naive
            (Printf.sprintf "boundary cap=%d mag=%d" cap mag)
            ctx a b)
        [ 0; 123 ])
    (block_edge_caps @ [ 256 ])

(* The same block edges with a strided operand and with single entries
   near the rescale threshold, where the result also needs normalize's
   one-pass chunk application. *)
let test_degenerate_tiles () =
  List.iter
    (fun cap ->
      List.iter
        (fun (sb, mag) ->
          let a = make_profile ~cap ~stride:1 ~mag 21 in
          let b = make_profile ~cap ~stride:sb ~mag 22 in
          check_combine_matches_naive
            (Printf.sprintf "cap=%d sb=%d mag=%d" cap sb mag)
            (context cap) a b)
        [ (2, 0); (1, 245) ])
    block_edge_caps

(* ---------- banded parallel dispatch ---------- *)

let test_banded_determinism () =
  let cap = 33 in
  List.iter
    (fun mag ->
      let a = make_profile ~cap ~stride:1 ~mag 31 in
      let b = make_profile ~cap ~stride:1 ~mag 32 in
      let sequential = context ~domains:1 cap in
      let reference = Conv.combine_naive sequential a b in
      List.iter
        (fun domains ->
          (* threshold 1: every combine runs banded. *)
          let ctx = context ~threshold:1 ~domains cap in
          let banded = Conv.combine ctx a b in
          check_same_lattice
            (Printf.sprintf "domains=%d mag=%d" domains mag)
            reference banded;
          if domains > 1 then
            Helpers.check_int
              (Printf.sprintf "domains=%d: combine was banded" domains)
              1 (Conv.banded_total ctx))
        [ 1; 2; 4 ];
      Helpers.check_int "sequential context never bands" 0
        (Conv.banded_total sequential);
      ignore (Conv.combine sequential a b);
      Helpers.check_int "below threshold still never bands" 0
        (Conv.banded_total sequential))
    [ 0; 123 ]

let test_banded_strided () =
  let cap = 29 in
  let a = make_profile ~cap ~stride:2 ~mag:0 41 in
  let b = make_profile ~cap ~stride:3 ~mag:0 42 in
  let reference = Conv.combine_naive (context cap) a b in
  List.iter
    (fun domains ->
      let ctx = context ~threshold:1 ~domains cap in
      check_same_lattice
        (Printf.sprintf "strided domains=%d" domains)
        reference (Conv.combine ctx a b))
    [ 2; 4 ]

(* More bands than outputs: the trailing bands are empty and must not
   touch the result (or crash). *)
let test_more_bands_than_outputs () =
  let cap = 3 in
  let a = make_profile ~cap ~stride:1 ~mag:0 51 in
  let b = make_profile ~cap ~stride:1 ~mag:0 52 in
  let ctx = context ~threshold:1 ~domains:8 cap in
  check_same_lattice "8 bands over 4 outputs"
    (Conv.combine_naive ctx a b)
    (Conv.combine ctx a b)

(* A combine large enough to band, issued from inside an engine pool
   task, finds the band pool busy and runs its bands inline; the result
   must still match the reference combine bit for bit. *)
let test_banded_inside_pool_task () =
  let cap = 256 in
  let ctx = context ~threshold:cap ~domains:2 cap in
  let operands =
    Array.init 4 (fun k ->
        ( make_profile ~cap ~stride:1 ~mag:0 (80 + (2 * k)),
          make_profile ~cap ~stride:1 ~mag:0 (81 + (2 * k)) ))
  in
  let nested =
    Crossbar_engine.Pool.run ~domains:2 ~tasks:4 (fun k ->
        let a, b = operands.(k) in
        Conv.combine ctx a b)
  in
  Array.iteri
    (fun k (a, b) ->
      check_same_lattice
        (Printf.sprintf "task %d" k)
        (Conv.combine_naive ctx a b)
        nested.(k))
    operands;
  Helpers.check_int "every combine took the banded path" 4
    (Conv.banded_total ctx)

(* The unbalanced case: one pool task runs every banded combine while
   its siblings return at once, so the other pool band lends its domain
   to those combines' bands.  However the rows split between the two
   domains, each result must match the reference combine bit for bit. *)
let test_banded_in_unbalanced_pool_run () =
  let cap = 256 in
  let ctx = context ~threshold:cap ~domains:2 cap in
  let operands =
    Array.init 6 (fun k ->
        ( make_profile ~cap ~stride:1 ~mag:0 (90 + (2 * k)),
          make_profile ~cap ~stride:1 ~mag:0 (91 + (2 * k)) ))
  in
  let results =
    Crossbar_engine.Pool.run ~domains:2 ~tasks:3 (fun task ->
        if task = 0 then
          Array.map (fun (a, b) -> Conv.combine ctx a b) operands
        else [||])
  in
  Array.iteri
    (fun k (a, b) ->
      check_same_lattice
        (Printf.sprintf "combine %d" k)
        (Conv.combine_naive ctx a b)
        results.(0).(k))
    operands

(* ---------- persistent band-worker pool ---------- *)

module Band_pool = Crossbar.Band_pool

let test_pool_runs_every_band () =
  let bands = 4 in
  let hit = Array.make bands 0 in
  Band_pool.run ~bands (fun i -> hit.(i) <- hit.(i) + 1);
  Array.iteri
    (fun i n -> Helpers.check_int (Printf.sprintf "band %d ran once" i) 1 n)
    hit;
  Helpers.check_bool "workers stay resident between dispatches" true
    (Band_pool.size () >= bands - 1)

let test_pool_shutdown_and_rewarm () =
  Band_pool.run ~bands:3 (fun _ -> ());
  Helpers.check_bool "warm before shutdown" true (Band_pool.size () >= 2);
  Band_pool.shutdown ();
  Helpers.check_int "shutdown empties the pool" 0 (Band_pool.size ());
  (* The next dispatch re-warms transparently: same API, fresh workers. *)
  let hit = Array.make 3 false in
  Band_pool.run ~bands:3 (fun i -> hit.(i) <- true);
  Helpers.check_bool "re-warmed dispatch covers every band" true
    (Array.for_all Fun.id hit);
  Helpers.check_bool "workers respawned" true (Band_pool.size () >= 2)

let test_pool_worker_exception () =
  (match Band_pool.run ~bands:2 (fun i -> if i = 1 then failwith "band boom")
   with
  | () -> Alcotest.fail "worker exception was swallowed"
  | exception Failure message ->
      Helpers.check_bool "message survives the domain hop" true
        (String.equal message "band boom"));
  (* A failed dispatch must leave the pool serviceable. *)
  let hit = Array.make 2 false in
  Band_pool.run ~bands:2 (fun i -> hit.(i) <- true);
  Helpers.check_bool "pool usable after a failure" true
    (Array.for_all Fun.id hit)

let test_pool_caller_band_wins () =
  match
    Band_pool.run ~bands:2 (fun i ->
        if i = 0 then failwith "caller band" else failwith "worker band")
  with
  | () -> Alcotest.fail "exceptions were swallowed"
  | exception Failure message ->
      Helpers.check_bool "band 0 (the caller) outranks worker bands" true
        (String.equal message "caller band")

let test_pool_degenerate () =
  Band_pool.shutdown ();
  let ran = ref false in
  Band_pool.run ~bands:1 (fun i ->
      Helpers.check_int "inline band index" 0 i;
      ran := true);
  Helpers.check_bool "bands=1 runs inline" true !ran;
  Helpers.check_int "bands=1 spawns no workers" 0 (Band_pool.size ());
  Helpers.check_raises_invalid "bands=0 rejected" (fun () ->
      Band_pool.run ~bands:0 (fun _ -> ()))

(* Spins until [flag] is set or about [budget] relaxations pass: a
   bounded wait that gives another domain time to act without letting
   the test hang if it never does. *)
let rec wait_for flag budget =
  if budget > 0 && not (Atomic.get flag) then begin
    Domain.cpu_relax ();
    wait_for flag (budget - 1)
  end

(* A two-band nested fan-out whose bands each hold back, boundedly,
   until the other has started: an idle lender then has time to take one
   of them, and a run with no lender only loses the wait.  [body] runs
   last in each band. *)
let held_pair_run body =
  let started = [| Atomic.make false; Atomic.make false |] in
  Band_pool.run ~bands:2 (fun band ->
      Atomic.set started.(band) true;
      wait_for started.(1 - band) 2_000_000;
      body band)

(* In a run_tasks with one long task, the band left without tasks lends
   its domain to the long task's nested fan-outs: some nested band runs
   on a domain other than the task's, and every band runs exactly once.
   The long task starts its fan-outs once the short one has ended, so
   the other band is already lending. *)
let test_run_tasks_lends_idle_band () =
  let rounds = 20 in
  let short_done = Atomic.make false in
  let lent = Atomic.make 0 in
  let hits = Array.make (2 * rounds) 0 in
  Band_pool.run_tasks ~bands:2 ~tasks:2 (fun task ->
      if task = 1 then Atomic.set short_done true
      else begin
        wait_for short_done 50_000_000;
        let owner = (Domain.self () :> int) in
        for round = 0 to rounds - 1 do
          held_pair_run (fun band ->
              let i = (2 * round) + band in
              hits.(i) <- hits.(i) + 1;
              if (Domain.self () :> int) <> owner then Atomic.incr lent)
        done
      end);
  Array.iteri
    (fun i n ->
      Helpers.check_int
        (Printf.sprintf "round %d band %d ran once" (i / 2) (i mod 2))
        1 n)
    hits;
  Helpers.check_bool "the idle band took nested bands" true
    (Atomic.get lent > 0)

(* A failure in a nested band reaches that fan-out's caller, whichever
   domain ran the band, and the pool serves the next run normally. *)
let test_run_tasks_nested_failure () =
  let short_done = Atomic.make false in
  let caught = Atomic.make 0 in
  Band_pool.run_tasks ~bands:2 ~tasks:2 (fun task ->
      if task = 1 then Atomic.set short_done true
      else begin
        wait_for short_done 50_000_000;
        for _ = 1 to 5 do
          match
            held_pair_run (fun band -> if band = 1 then failwith "nested band")
          with
          | () -> ()
          | exception Failure message ->
              if String.equal message "nested band" then Atomic.incr caught
        done
      end);
  Helpers.check_int "every nested failure surfaced" 5 (Atomic.get caught);
  let hit = Array.make 4 false in
  Band_pool.run_tasks ~bands:2 ~tasks:4 (fun i -> hit.(i) <- true);
  Helpers.check_bool "pool usable after nested failures" true
    (Array.for_all Fun.id hit)

(* The first task failure is re-raised once every band has finished,
   and tasks not yet started are abandoned: with task 0 failing at once
   and every other task busy for a while, far fewer than all start. *)
let test_run_tasks_failure () =
  let tasks = 10_000 in
  let started = Atomic.make 0 in
  let idle = Atomic.make false in
  (match
     Band_pool.run_tasks ~bands:2 ~tasks (fun i ->
         Atomic.incr started;
         if i = 0 then failwith "task 0" else wait_for idle 1_000)
   with
  | () -> Alcotest.fail "task failure was swallowed"
  | exception Failure message ->
      Helpers.check_bool "the failing task's exception" true
        (String.equal message "task 0"));
  Helpers.check_bool "later tasks abandoned" true
    (Atomic.get started < tasks);
  Helpers.check_raises_invalid "bands=0 rejected" (fun () ->
      Band_pool.run_tasks ~bands:0 ~tasks:1 ignore);
  Helpers.check_raises_invalid "tasks<0 rejected" (fun () ->
      Band_pool.run_tasks ~bands:2 ~tasks:(-1) ignore)

(* Operand capacities straddling the new default threshold: below it the
   combine stays sequential, at or above it the pool dispatch runs — and
   either way the result must match the reference kernel bit for bit. *)
let threshold_crossover_gen =
  let open QCheck2.Gen in
  let* cap = int_range 250 266 in
  let* domains = int_range 2 4 in
  let* mag = oneofl [ 0; 123 ] in
  let* seed = int_range 1 1_000_000 in
  return (cap, domains, mag, seed)

let banded_bit_identity_at_threshold =
  QCheck2.Test.make
    ~name:"pool-banded combine is bit-identical around threshold 256"
    ~count:12 threshold_crossover_gen (fun (cap, domains, mag, seed) ->
      let threshold = Conv.default_combine_threshold in
      let ctx = context ~threshold ~domains cap in
      let a = make_profile ~cap ~stride:1 ~mag seed in
      let b = make_profile ~cap ~stride:1 ~mag (seed + 1) in
      let label =
        Printf.sprintf "cap=%d domains=%d mag=%d" cap domains mag
      in
      let banded = Conv.combine ctx a b in
      let naive = Conv.combine_naive ctx a b in
      check_same_lattice (label ^ " vs naive") naive banded;
      Helpers.check_int
        (label ^ ": banded exactly when cap crosses the threshold")
        (if cap >= threshold then 1 else 0)
        (Conv.banded_total ctx);
      true)

(* ---------- solver-level bit identity with recycling ---------- *)

let check_solved_identical label reference candidate =
  check_bits (label ^ ": log G")
    (Conv.log_normalization reference)
    (Conv.log_normalization candidate);
  Helpers.check_int (label ^ ": rescales")
    (Conv.rescale_count reference)
    (Conv.rescale_count candidate);
  let mr = Conv.measures reference and mc = Conv.measures candidate in
  check_bits (label ^ ": busy ports") mr.Crossbar.Measures.busy_ports
    mc.Crossbar.Measures.busy_ports;
  Array.iteri
    (fun r (cr : Crossbar.Measures.per_class) ->
      let cc = mc.Crossbar.Measures.per_class.(r) in
      check_bits
        (Printf.sprintf "%s: class %d blocking" label r)
        cr.Crossbar.Measures.blocking cc.Crossbar.Measures.blocking;
      check_bits
        (Printf.sprintf "%s: class %d concurrency" label r)
        cr.Crossbar.Measures.concurrency cc.Crossbar.Measures.concurrency)
    mr.Crossbar.Measures.per_class

let nudge_model model step =
  (* Cycle which class moves so carries and multi-class deltas both
     happen across the chain.  The bernoulli class (index 2 in
     [Helpers.mixed_model]) only accepts alphas that keep the source
     count integral, so its nudges step in multiples of the per-source
     rate. *)
  let r = step mod Model.num_classes model in
  let alpha =
    if r = 2 then 0.08 *. float_of_int (1 + (step mod 4))
    else 0.1 +. (0.03 *. float_of_int step)
  in
  Model.map_class model r (fun traffic -> Traffic.with_alpha traffic alpha)

let test_update_recycle_bit_identity () =
  let model0 = Helpers.mixed_model ~inputs:6 ~outputs:5 in
  let chained = ref (Conv.solve model0) in
  let model = ref model0 in
  for step = 1 to 12 do
    model := nudge_model !model step;
    (* The chain recycles the tree it is about to drop; the fresh build
       is the oracle. *)
    chained := Conv.solve_delta ~recycle:true ~previous:!chained !model;
    check_solved_identical
      (Printf.sprintf "step %d" step)
      (Conv.solve !model) !chained
  done

let test_leave_one_out_stable_across_sweeps () =
  let model = Helpers.mixed_model ~inputs:6 ~outputs:6 in
  let tree = Conv.tree (Conv.solve model) in
  let snapshot =
    Array.map
      (fun l ->
        ( Lattice.scale l,
          Array.init (Lattice.capacity l + 1) (fun u -> Lattice.get l u) ))
      (Tree.leave_one_out tree)
  in
  (* The second sweep draws its intermediates from the first sweep's
     recycled nodes; the complements must not move a bit. *)
  let again = Tree.leave_one_out tree in
  Array.iteri
    (fun r (scale, values) ->
      Helpers.check_int
        (Printf.sprintf "complement %d scale" r)
        scale
        (Lattice.scale again.(r));
      Array.iteri
        (fun u expected ->
          check_bits
            (Printf.sprintf "complement %d entry %d" r u)
            expected
            (Lattice.get again.(r) u))
        values)
    snapshot

let test_arena_reuse_plateau () =
  let model0 = Helpers.mixed_model ~inputs:8 ~outputs:8 in
  let chained = ref (Conv.solve model0) in
  let arena = Conv.arena (Tree.context (Conv.tree !chained)) in
  let model = ref model0 in
  let warm = 3 in
  let created_after_warmup = ref 0 in
  for step = 1 to 12 do
    model := nudge_model !model step;
    chained := Conv.solve_delta ~recycle:true ~previous:!chained !model;
    if step = warm then created_after_warmup := Conv.Arena.created arena
  done;
  (* Recycled updates release as many profiles as they acquire, so once
     the free list is primed the solver creates nothing new: the whole
     steady-state loop runs in recycled Bigarray storage. *)
  Helpers.check_int "no profile created after warm-up" !created_after_warmup
    (Conv.Arena.created arena);
  Helpers.check_bool "warmed-up updates are served from the free list" true
    (Conv.Arena.reused arena > 0)

(* Pool workers are persistent, so each keeps the arenas of the shapes
   its tasks solved.  Solving three times [arena_limit] distinct shapes
   through a 2-domain pool must leave no domain holding more than
   [arena_limit] arenas. *)
let test_arenas_bounded_per_domain () =
  let shapes = 3 * Conv.arena_limit in
  let held =
    Crossbar_engine.Pool.run ~domains:2 ~tasks:shapes (fun k ->
        let size = 4 + k in
        ignore
          (Conv.solve (Helpers.single_class_model ~classes:2 ~size 0.3)
            : Conv.t);
        ((Domain.self () :> int), Conv.arenas_held ()))
  in
  Array.iteri
    (fun k (domain, n) ->
      if n > Conv.arena_limit then
        Alcotest.failf "task %d: domain %d holds %d arenas (limit %d)" k
          domain n Conv.arena_limit)
    held;
  Helpers.check_bool "the caller's table is bounded too" true
    (Conv.arenas_held () <= Conv.arena_limit)

(* ---------- runtime allocation gate ---------- *)

(* Minor-heap words the calling domain allocates while [f] runs
   ([Gc.minor_words] counts the current domain only).

   These gates assume the shipped build, the [release] profile that the
   root dune-workspace selects.  Under [--profile dev] every module is
   compiled with -opaque, the Lattice accessors in the kernel loop
   become out-of-line calls that box each float, and a dense combine at
   cap 256 allocates ~268k words instead of ~10: [dune runtest --profile
   dev] is expected to fail both cases.  That is the gate working, not
   a reason to raise the ceilings. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_allocation_ceiling label ~ceiling words =
  if words > ceiling then
    Alcotest.failf
      "%s allocated %.0f minor words (ceiling %.0f).  This gate assumes \
       the release profile that dune-workspace selects and is expected to \
       fail under --profile dev; do not raise the ceiling for that."
      label words ceiling

let test_combine_allocation () =
  let cap = 256 in
  (* One band: the whole kernel runs on this domain, where the counter
     can see it. *)
  let ctx = context ~domains:1 cap in
  let arena = Conv.arena ctx in
  let a = make_profile ~cap ~stride:1 ~mag:0 71 in
  let b = make_profile ~cap ~stride:1 ~mag:0 72 in
  let combine_and_release () =
    Conv.Arena.release arena (Conv.combine ctx a b)
  in
  (* Warm-up: the arena's scratch and free list exist from here on. *)
  combine_and_release ();
  combine_and_release ();
  check_allocation_ceiling "dense combine at cap 256" ~ceiling:32.
    (minor_words_of combine_and_release)

let test_solve_delta_allocation () =
  let model load = Helpers.single_class_model ~classes:8 ~size:256 load in
  let chained = ref (Conv.solve (model 0.05)) in
  let step next () =
    chained := Conv.solve_delta ~recycle:true ~previous:!chained next
  in
  (* Warm-up primes the arena free list with the recycled nodes. *)
  List.iter (fun load -> step (model load) ()) [ 0.06; 0.07; 0.08 ];
  check_allocation_ceiling "8-class solve_delta (one class changed)"
    ~ceiling:16_000.
    (minor_words_of (step (model 0.09)))

(* The release profile's flags in dune-workspace restate, by hand, the
   warning set that dune's dev profile uses for the dune language
   version of dune-project.  dune extends that set in later language
   versions (3.3 adds warnings 67 and 69), so a version bump must bring
   the list along; this case fails until it does. *)
let test_release_flags_track_dune_lang () =
  let read path = In_channel.with_open_text path In_channel.input_all in
  let first_line text =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  let lang = first_line (read "../dune-project") in
  if not (String.equal lang "(lang dune 3.0)") then
    Alcotest.failf
      "dune-project now says %s; update the release flags in \
       dune-workspace to that version's dev warning set, then this check"
      lang;
  let workspace = read "../dune-workspace" in
  let contains text needle =
    let n = String.length needle in
    let rec from i =
      i + n <= String.length text
      && (String.equal (String.sub text i n) needle || from (i + 1))
    in
    from 0
  in
  List.iter
    (fun flag ->
      Helpers.check_bool
        (Printf.sprintf "dune-workspace release flags carry %s" flag)
        true (contains workspace flag))
    [
      "(profile release)";
      "@1..3@5..28@30..39@43@46..47@49..57@61..62-40";
      "-strict-sequence";
      "-strict-formats";
      "-short-paths";
      "-keep-locs";
    ]

(* ---------- one-pass normalize ---------- *)

let reference_normalize l =
  while Lattice.max_abs l > Lattice.rescale_threshold do
    Lattice.rescale l
  done

let normalize_gen =
  let open QCheck2.Gen in
  let* cap = int_range 0 24 in
  let* mag = oneofl [ -10; 0; 240; 251; 280; 305 ] in
  let* seed = int_range 1 1_000_000 in
  return (cap, mag, seed)

let normalize_matches_reference =
  QCheck2.Test.make
    ~name:"one-pass normalize is bit-identical to repeated rescale"
    ~count:120 normalize_gen (fun (cap, mag, seed) ->
      let a = make_profile ~cap ~stride:1 ~mag seed in
      let b = make_profile ~cap ~stride:1 ~mag seed in
      reference_normalize a;
      Lattice.normalize b;
      check_same_lattice
        (Printf.sprintf "cap=%d mag=%d" cap mag)
        a b;
      true)

let test_normalize_non_finite () =
  let l = Lattice.create ~capacity:2 () in
  Lattice.set l 0 infinity;
  Lattice.set l 1 1.5;
  (* The reference loop would never terminate here; the one-pass version
     must return with the profile untouched. *)
  Lattice.normalize l;
  Helpers.check_int "scale untouched" 0 (Lattice.scale l);
  Helpers.check_bool "entry untouched" true (Lattice.get l 0 = infinity);
  check_bits "finite entry untouched" 1.5 (Lattice.get l 1)

(* ---------- knob validation ---------- *)

let test_knob_validation () =
  (* Every rejection names the offending knob and its value — a deploy
     log must say what was wrong, not just that something was. *)
  Helpers.check_invalid_contains "threshold 0"
    ~substring:"combine_threshold=0" (fun () ->
      Conv.context_of ~combine_threshold:0 ~inputs:4 ~outputs:4 ());
  Helpers.check_invalid_contains "band domains 0" ~substring:"band_domains=0"
    (fun () -> Conv.context_of ~band_domains:0 ~inputs:4 ~outputs:4 ());
  (* The environment override obeys the same contract as
     CROSSBAR_DOMAINS: a malformed deploy-time value fails loudly. *)
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" "not-a-number";
  Helpers.check_invalid_contains "malformed env threshold"
    ~substring:"CROSSBAR_COMBINE_THRESHOLD=\"not-a-number\"" (fun () ->
      Conv.context_of ~inputs:4 ~outputs:4 ());
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" "0";
  Helpers.check_invalid_contains "non-positive env threshold"
    ~substring:"CROSSBAR_COMBINE_THRESHOLD=0" (fun () ->
      Conv.context_of ~inputs:4 ~outputs:4 ());
  (* An explicit knob bypasses the environment entirely. *)
  ignore (Conv.context_of ~combine_threshold:7 ~inputs:4 ~outputs:4 ());
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD" " 5 ";
  let ctx = Conv.context_of ~band_domains:2 ~inputs:8 ~outputs:8 () in
  let a = make_profile ~cap:8 ~stride:1 ~mag:0 61 in
  let b = make_profile ~cap:8 ~stride:1 ~mag:0 62 in
  ignore (Conv.combine ctx a b);
  Helpers.check_int "trimmed env threshold bands the combine" 1
    (Conv.banded_total ctx);
  (* Restore the default so later suites in this binary see a clean
     environment (putenv cannot unset). *)
  Unix.putenv "CROSSBAR_COMBINE_THRESHOLD"
    (string_of_int Conv.default_combine_threshold)

let test_domains_knob_validation () =
  (* CROSSBAR_DOMAINS reports its offending value the same way; the
     override feeds both the engine pool and the banded kernel. *)
  let restore =
    match Sys.getenv_opt "CROSSBAR_DOMAINS" with Some v -> v | None -> "2"
  in
  Unix.putenv "CROSSBAR_DOMAINS" "three";
  Helpers.check_invalid_contains "malformed CROSSBAR_DOMAINS"
    ~substring:"CROSSBAR_DOMAINS=\"three\"" (fun () ->
      Crossbar.Domains.recommended ());
  Unix.putenv "CROSSBAR_DOMAINS" "-4";
  Helpers.check_invalid_contains "non-positive CROSSBAR_DOMAINS"
    ~substring:"CROSSBAR_DOMAINS=-4" (fun () ->
      Crossbar.Domains.recommended ());
  Unix.putenv "CROSSBAR_DOMAINS" restore

let () =
  Alcotest.run "kernel"
    [
      ( "tiled kernel",
        [
          Helpers.qcheck combine_matches_naive;
          Helpers.case "tile-boundary capacities" test_tile_boundaries;
          Helpers.case "degenerate tile sizes" test_degenerate_tiles;
        ] );
      ( "banded kernel",
        [
          Helpers.case "bit-identical across domain counts"
            test_banded_determinism;
          Helpers.case "strided operands" test_banded_strided;
          Helpers.case "more bands than outputs" test_more_bands_than_outputs;
          Helpers.case "inside a pool task bit-identical"
            test_banded_inside_pool_task;
          Helpers.case "in an unbalanced pool run bit-identical"
            test_banded_in_unbalanced_pool_run;
          Helpers.qcheck banded_bit_identity_at_threshold;
        ] );
      ( "band pool",
        [
          Helpers.case "every band runs exactly once" test_pool_runs_every_band;
          Helpers.case "shutdown then transparent re-warm"
            test_pool_shutdown_and_rewarm;
          Helpers.case "worker exceptions propagate" test_pool_worker_exception;
          Helpers.case "caller band outranks worker failures"
            test_pool_caller_band_wins;
          Helpers.case "degenerate band counts" test_pool_degenerate;
          Helpers.case "idle task band lends to nested runs"
            test_run_tasks_lends_idle_band;
          Helpers.case "nested band failure reaches its caller"
            test_run_tasks_nested_failure;
          Helpers.case "task failure re-raised, rest abandoned"
            test_run_tasks_failure;
        ] );
      ( "arena recycling",
        [
          Helpers.case "recycled delta chain matches fresh builds"
            test_update_recycle_bit_identity;
          Helpers.case "leave-one-out stable across sweeps"
            test_leave_one_out_stable_across_sweeps;
          Helpers.case "allocation plateau after warm-up"
            test_arena_reuse_plateau;
          Helpers.case "arenas per domain bounded" test_arenas_bounded_per_domain;
        ] );
      ( "allocation",
        [
          Helpers.case "dense combine at cap 256 allocates <= 32 words"
            test_combine_allocation;
          Helpers.case "solve_delta at cap 256 allocates <= 16k words"
            test_solve_delta_allocation;
          Helpers.case "release flags track the dune language"
            test_release_flags_track_dune_lang;
        ] );
      ( "normalize",
        [
          Helpers.qcheck normalize_matches_reference;
          Helpers.case "non-finite maxima left untouched"
            test_normalize_non_finite;
        ] );
      ( "knobs",
        [
          Helpers.case "validation and env override" test_knob_validation;
          Helpers.case "CROSSBAR_DOMAINS names its offending value"
            test_domains_knob_validation;
        ] );
    ]
