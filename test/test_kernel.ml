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
        ] );
      ( "arena recycling",
        [
          Helpers.case "recycled delta chain matches fresh builds"
            test_update_recycle_bit_identity;
          Helpers.case "leave-one-out stable across sweeps"
            test_leave_one_out_stable_across_sweeps;
          Helpers.case "allocation plateau after warm-up"
            test_arena_reuse_plateau;
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
