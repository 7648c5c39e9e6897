(* The combine kernels are the solver's inner loop: the dense kernel,
   the strided kernel, the anti-diagonal weight tables they read, the
   banded parallel dispatch and the arena-recycled storage must all be
   bitwise-invisible — every result identical to the reference combine
   ([Convolution.combine_naive]) on every operand pair, in every
   rescaling regime, at every capacity and stride pair and for every
   domain count, and every table entry identical to the row-major
   recurrence.  These suites pin that contract, the one-pass
   [Lattice.normalize], and the zero-allocation arena plateau. *)

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

(* A [cap] x [cap + 3] switch by default, whose two weight tables
   differ; [~square:true] gives the [cap] x [cap] switch, whose context
   shares one table between both sides and so runs the dense kernel's
   square body. *)
let context ?(square = false) ?threshold ?domains cap =
  Conv.context_of ?combine_threshold:threshold ?band_domains:domains
    ~inputs:cap
    ~outputs:(if square then cap else cap + 3)
    ()

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let check_combine_matches_naive label ctx a b =
  let fast = Conv.combine ctx a b in
  let naive = Conv.combine_naive ctx a b in
  Helpers.check_same_lattice label naive fast

(* A context whose combines all run on one band (the sequential kernel)
   or, at [bands = 2], all run banded (threshold 1). *)
let banded_context ?square ~bands cap =
  if bands = 1 then context ?square ~domains:1 cap
  else context ?square ~threshold:1 ~domains:bands cap

(* Runs [f] on the [cap] x [cap + 3] switch's two weight tables, then on
   the square switch's shared one: the dense kernel's one-output loop
   and its four-output body. *)
let on_both_layouts f = List.iter (fun square -> f ~square) [ false; true ]

(* ---------- kernels vs the reference combine ---------- *)

(* Strides 1-6 on either side, dense pairs drawn more often: equal,
   coprime and unequal non-coprime pairs, whose contributing terms form
   one residue class modulo the lcm — or none, at outputs the gcd does
   not divide.  Capacities up to 160 leave [cap + 1] a multiple of the
   lcm for some draws and not for most. *)
let operand_gen =
  let open QCheck2.Gen in
  let* cap = int_range 4 160 in
  let* sa = oneofl [ 1; 1; 1; 2; 3; 4; 5; 6 ] in
  let* sb = oneofl [ 1; 1; 2; 3; 4; 5; 6 ] in
  (* mag 0: plain regime.  mag ~123 per operand: the product overflows
     the rescale threshold, so the prechunk borrows chunks and the
     chunk-scaled scratch copies feed the kernel.  mag ~245: single
     entries sit near the threshold and the result needs normalize's
     one-pass chunk application too. *)
  let* mag = oneofl [ 0; 0; 123; 245 ] in
  let* seed = int_range 1 1_000_000 in
  let* bands = oneofl [ 1; 2 ] in
  return (cap, sa, sb, mag, seed, bands)

let combine_matches_naive =
  QCheck2.Test.make ~name:"combine is bit-identical to combine_naive"
    ~count:200 operand_gen (fun (cap, sa, sb, mag, seed, bands) ->
      let a = make_profile ~cap ~stride:sa ~mag seed in
      let b = make_profile ~cap ~stride:sb ~mag (seed + 1) in
      on_both_layouts (fun ~square ->
          check_combine_matches_naive
            (Printf.sprintf "cap=%d sa=%d sb=%d mag=%d bands=%d square=%b" cap
               sa sb mag bands square)
            (banded_context ~square ~bands cap)
            a b);
      true)

(* ---------- support-bounded kernels ---------- *)

(* A profile like [make_profile] whose entries also decay by [decay]
   bits per step — at 9 bits they reach the subnormals and then zero
   well inside the lattice — and are cut to zero above index [top]: the
   trailing zeros and underflowed tails that trimmed class factors and
   combine results carry. *)
let make_short_profile ~cap ~stride ~mag ~decay ~top seed =
  let l = make_profile ~cap ~stride ~mag seed in
  for u = 0 to cap do
    if u > top then Lattice.set l u 0.
    else Lattice.set l u (Float.ldexp (Lattice.get l u) (-decay * u))
  done;
  l

let support_gen =
  let open QCheck2.Gen in
  let* cap = int_range 4 160 in
  let* sa = int_range 1 4 in
  let* sb = int_range 1 4 in
  let* mag = oneofl [ 0; 0; 123; 245 ] in
  let* decay = oneofl [ 0; 3; 9 ] in
  let* top_a = int_range (-1) cap in
  let* top_b = int_range (-1) cap in
  let* threshold = int_range 1 (2 * cap) in
  let* seed = int_range 1 1_000_000 in
  return (cap, (sa, sb), (mag, decay), (top_a, top_b), threshold, seed)

(* The live span [combine] bands on: [min cap (ha + hb)] over the
   operands the kernel reads.  Those are chunk-scaled copies when the
   product of the operands' peaks passes the rescale threshold, and a
   copy's tail can underflow to 0 below the original's support. *)
let kernel_span cap a b =
  let ka, kb = Helpers.borrowed_chunks a b in
  let rec chunked_support l k u =
    if u < 0 || Float.abs (Lattice.apply_chunks (Lattice.get l u) k) > 0. then
      u
    else chunked_support l k (u - 1)
  in
  Int.min cap (chunked_support a ka cap + chunked_support b kb cap)

(* The support-bounded kernels against the reference combine on one
   draw: bit for bit, on one band and on two, with banding decided on
   the kernel's live span ([kernel_span]) against [threshold]; and every
   output past the operands' [ha + hb] is exactly +0.  Returns the span
   the operands' own supports give, for the fixed case below. *)
let check_support_bounded (cap, (sa, sb), (mag, decay), (top_a, top_b),
    threshold, seed) =
  let a = make_short_profile ~cap ~stride:sa ~mag ~decay ~top:top_a seed in
  let b =
    make_short_profile ~cap ~stride:sb ~mag ~decay ~top:top_b (seed + 1)
  in
  on_both_layouts (fun ~square ->
      let label =
        Printf.sprintf
          "cap=%d square=%b sa=%d sb=%d mag=%d decay=%d tops=%d,%d t=%d \
           seed=%d"
          cap square sa sb mag decay top_a top_b threshold seed
      in
      let unbanded = context ~square ~domains:1 cap in
      let naive = Conv.combine_naive unbanded a b in
      let fast = Conv.combine unbanded a b in
      Helpers.check_same_lattice (label ^ " unbanded") naive fast;
      let banded = context ~square ~threshold ~domains:2 cap in
      Helpers.check_same_lattice (label ^ " banded") naive
        (Conv.combine banded a b);
      Helpers.check_int
        (label ^ ": banded exactly when the live span reaches the threshold")
        (if kernel_span cap a b >= threshold then 1 else 0)
        (Conv.banded_total banded);
      for u = Int.max 0 (Lattice.support a + Lattice.support b + 1) to cap do
        check_bits
          (Printf.sprintf "%s: output %d past ha + hb" label u)
          0. (Lattice.get fast u)
      done);
  Int.min cap (Lattice.support a + Lattice.support b)

let support_bounded_matches_naive =
  QCheck2.Test.make
    ~name:"support-bounded combine is bit-identical to combine_naive"
    ~count:200 support_gen
    (fun draw ->
      ignore (check_support_bounded draw);
      true)

(* A draw on which the chunk-scaled copies' span (118) falls below the
   threshold (119) while the operands' own supports give 128: peaks near
   10^245 borrow a rescale chunk, and the chunked tail of [a], decaying
   by 9 bits a step, underflows ten entries early.  Banding follows the
   kernel's span, so this combine is not banded; an expectation taken
   from the operands' supports fails here. *)
let test_chunked_span_decides_banding () =
  let draw = (136, (1, 1), (245, 9), (127, 1), 119, 1) in
  Helpers.check_int "the operands' own span" 128 (check_support_bounded draw)

(* ---------- the dense kernel's four-output blocks ---------- *)

(* On a square switch the dense kernel sums four consecutive outputs
   per pass: heads, one joint loop over the [v] all four share, tails.
   It takes the one-output loop for the last [(hi - lo + 1) mod 4]
   outputs of its range and wherever the joint range is empty.  Each
   fixed case below also runs on the [cap] x [cap + 3] switch, whose
   two tables take the one-output loop throughout. *)
let check_dense_blocks label ?threshold ?(domains = 1) ~square ~cap ~top_a
    ~top_b () =
  let a =
    make_short_profile ~cap ~stride:1 ~mag:0 ~decay:0 ~top:top_a (cap + top_a)
  in
  let b =
    make_short_profile ~cap ~stride:1 ~mag:0 ~decay:0 ~top:top_b
      (cap + top_b + 1)
  in
  let ctx = context ~square ?threshold ~domains cap in
  check_combine_matches_naive
    (Printf.sprintf "%s square=%b cap=%d tops=%d,%d" label square cap top_a
       top_b)
    ctx a b;
  ctx

(* Live spans [ha + hb] below the capacity with [span + 1] = 0, 1, 2
   and 3 mod 4: whole blocks only, then one to three outputs left over
   for the one-output loop.  Either operand is the longer one, so heads
   and tails both run. *)
let test_dense_block_remainders () =
  on_both_layouts (fun ~square ->
      List.iter
        (fun span ->
          List.iter
            (fun (top_a, top_b) ->
              ignore
                (check_dense_blocks "remainder" ~square ~cap:96 ~top_a ~top_b
                   ()))
            [ (span - 23, 23); (23, span - 23) ])
        [ 59; 60; 61; 62 ])

(* Supports 0 - 3 on either side.  Below 3 on the [A] side the joint
   range [max 0 (t + 3 - ha) .. min t hb] is empty at every output, and
   the whole combine takes the one-output loop. *)
let test_dense_block_short_supports () =
  on_both_layouts (fun ~square ->
      for short = 0 to 3 do
        List.iter
          (fun (top_a, top_b) ->
            ignore
              (check_dense_blocks "short support" ~square ~cap:40 ~top_a
                 ~top_b ()))
          [ (short, 40); (40, short); (short, 17); (short, short) ]
      done)

(* Two bands at threshold 1.  Band 1 starts at
   [int ((span + 1) sqrt (1/2))], off a multiple of 4 at these
   capacities, so its blocks are counted from a start that no
   sequential combine uses. *)
let test_dense_block_band_offsets () =
  on_both_layouts (fun ~square ->
      List.iter
        (fun cap ->
          let start = int_of_float (float_of_int (cap + 1) *. sqrt 0.5) in
          if start mod 4 = 0 then
            Alcotest.failf "cap %d: band 1 starts at %d, a multiple of 4" cap
              start;
          let ctx =
            check_dense_blocks "two bands" ~threshold:1 ~domains:2 ~square
              ~cap ~top_a:cap ~top_b:cap ()
          in
          Helpers.check_int
            (Printf.sprintf "cap %d: the combine is banded" cap)
            1 (Conv.banded_total ctx))
        [ 63; 66; 100; 129 ])

(* The trim zeroes exactly the trailing run below max * 2^-200: the
   first entry at or above the cut, scanning down, ends it, and every
   other entry — a tiny leading one, a tiny interior one — keeps its
   bits, as do the scale and the stride. *)
let test_trim_tail () =
  let cut = 2. *. Lattice.tail_cut in
  let entries =
    [| 1e-100; 2.; 1e-90; cut; 1e-70; 0.; 4e-320; Float.pred cut |]
  in
  let l = Lattice.create ~capacity:(Array.length entries - 1) () in
  Array.iteri (Lattice.set l) entries;
  Lattice.add_scale l 3;
  Lattice.trim_tail l;
  Array.iteri
    (fun u x ->
      check_bits
        (Printf.sprintf "entry %d" u)
        (if u <= 3 then x else 0.)
        (Lattice.get l u))
    entries;
  Helpers.check_int "scale kept" 3 (Lattice.scale l);
  Helpers.check_int "stride kept" 1 (Lattice.stride l);
  Helpers.check_int "support ends at the cut" 3 (Lattice.support l);
  (* All-zero and non-finite maxima trim nothing. *)
  let zero = Lattice.create ~capacity:4 () in
  Lattice.trim_tail zero;
  Helpers.check_int "all-zero support" (-1) (Lattice.support zero);
  let poisoned = Lattice.create ~capacity:2 () in
  Lattice.set poisoned 0 infinity;
  Lattice.set poisoned 2 1e-300;
  Lattice.trim_tail poisoned;
  check_bits "non-finite maximum trims nothing" 1e-300 (Lattice.get poisoned 2);
  (* [trim_normalize] is the two calls in turn, sharing one scan. *)
  List.iter
    (fun mag ->
      let one = make_short_profile ~cap:40 ~stride:1 ~mag ~decay:9 ~top:40 5 in
      let two = make_short_profile ~cap:40 ~stride:1 ~mag ~decay:9 ~top:40 5 in
      Lattice.trim_tail one;
      Lattice.normalize one;
      Lattice.trim_normalize two;
      Helpers.check_same_lattice
        (Printf.sprintf "trim_normalize mag=%d" mag)
        one two)
    [ 0; 280; 305 ]

(* The capacity-planning shape (8 classes of bandwidths 1 and 2 on 256
   ports, per-pair rates of order 2^-17): its root's live support ends
   below cap / 2, so the kernels skip more than half of every dense
   anti-diagonal sum.  A change that stops trimming fails here, not only
   in the benchmark. *)
let test_planning_root_support () =
  let size = 256 in
  let rate x = Float.ldexp x (-17) in
  let model =
    Model.square ~size
      ~classes:
        (List.init 8 (fun index ->
             let name = Printf.sprintf "k%d" index in
             let bandwidth = if index mod 2 = 0 then 1 else 2 in
             let alpha = rate (0.25 +. (0.25 *. float_of_int index)) in
             if index mod 4 = 3 then
               Traffic.pascal ~name ~bandwidth ~alpha ~beta:(rate (1. /. 64.))
                 ~service_rate:1.0 ()
             else
               Traffic.poisson ~name ~bandwidth ~rate:alpha ~service_rate:1.0
                 ()))
  in
  let tree = Conv.tree (Conv.solve model) in
  let root = Tree.root tree in
  let support = Lattice.support root in
  if support >= size / 2 then
    Alcotest.failf "root support %d of cap %d is not below cap / 2" support
      size;
  if Lattice.support (Tree.leaf tree 0) >= size / 2 then
    Alcotest.failf "leaf 0 support %d of cap %d is not below cap / 2"
      (Lattice.support (Tree.leaf tree 0))
      size

(* Unequal stride pairs sharing a factor, each on both sides, at caps
   where [cap + 1] is not a multiple of their lcm (so the last residue
   class is cut short), on one band and on two. *)
let test_non_coprime_strides () =
  List.iter
    (fun (sa, sb) ->
      let lcm = sa * sb / gcd sa sb in
      List.iter
        (fun cap ->
          if (cap + 1) mod lcm = 0 then
            Alcotest.failf "cap %d: cap + 1 is a multiple of lcm %d" cap lcm;
          List.iter
            (fun (bands, mag) ->
              let a = make_profile ~cap ~stride:sa ~mag (sa + cap) in
              let b = make_profile ~cap ~stride:sb ~mag (sb + cap + 1) in
              check_combine_matches_naive
                (Printf.sprintf "sa=%d sb=%d cap=%d bands=%d mag=%d" sa sb
                   cap bands mag)
                (banded_context ~bands cap) a b)
            [ (1, 0); (2, 0); (1, 123); (2, 123) ])
        [ 30; 61; 100 ])
    [ (2, 4); (4, 2); (4, 6); (6, 4); (3, 6); (6, 3) ]

(* Lattice-size edge cases: caps on either side of 64 and 128 (lattices
   of 64 to 66 and 128 to 130 entries), and cap 256 at the default
   banding threshold, where one band keeps the combine on the
   sequential kernel. *)
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

(* The same capacities with a strided operand and with single entries
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

(* ---------- weight tables vs the row-major recurrence ---------- *)

(* The weights' defining recurrence on a row-major (cap + 1) x (cap + 1)
   grid: w(0, v) = 1 and
   w(u, v) = w(u - 1, v) (N - (u - 1) - v) / (N - (u - 1)).  It is the
   oracle for the packed tables because [combine_naive] reads those same
   tables and so cannot catch a layout bug on its own. *)
let row_major_weights ~ports ~cap =
  let grid = Array.make_matrix (cap + 1) (cap + 1) 0. in
  for v = 0 to cap do
    grid.(0).(v) <- 1.;
    for u = 1 to cap - v do
      let j = u - 1 in
      grid.(u).(v) <-
        grid.(j).(v)
        *. (float_of_int (ports - j - v) /. float_of_int (ports - j))
    done
  done;
  grid

(* Every (u, v) with u + v <= cap, on both sides, bit for bit: the
   accessor maps that triangle one-to-one onto the packed slots, so this
   reads every entry of both tables. *)
let test_weight_tables_match_recurrence () =
  List.iter
    (fun (inputs, outputs) ->
      let ctx = Conv.context_of ~inputs ~outputs () in
      let cap = Conv.context_capacity ctx in
      List.iter
        (fun (side, ports, name) ->
          let grid = row_major_weights ~ports ~cap in
          for t = 0 to cap do
            for v = 0 to t do
              check_bits
                (Printf.sprintf "%dx%d %s w(%d, %d)" inputs outputs name
                   (t - v) v)
                grid.(t - v).(v)
                (Conv.weight ctx side (t - v) v)
            done
          done)
        [ (`Inputs, inputs, "w1"); (`Outputs, outputs, "w2") ];
      List.iter
        (fun (u, v) ->
          Helpers.check_raises_invalid
            (Printf.sprintf "%dx%d rejects (%d, %d)" inputs outputs u v)
            (fun () -> Conv.weight ctx `Inputs u v))
        [ (-1, 0); (0, -1); (cap, 1); (1, cap); (cap + 1, 0) ])
    [ (1, 1); (2, 2); (63, 63); (256, 256); (272, 272); (67, 64); (64, 67) ]

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
          Helpers.check_same_lattice
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
      Helpers.check_same_lattice
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
  Helpers.check_same_lattice "8 bands over 4 outputs"
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
      Helpers.check_same_lattice
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
      Helpers.check_same_lattice
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
      Helpers.check_same_lattice (label ^ " vs naive") naive banded;
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

   The cases below are what hold the combine path to its allocation
   budget: the dense, square, strided and short-support combines at cap
   256 allow at most 32 words each, and a recycling [solve_delta] at most
   16 000.  test_serve's warm read, write and request-reader ceilings
   and test_engine's zero-word [Telemetry.record] cover the serve and
   telemetry paths.

   These gates assume the shipped build, the [release] profile that the
   root dune-workspace selects.  Under [--profile dev] every module is
   compiled with -opaque, [Lattice.unsafe_set] becomes an out-of-line
   call, and the kernels box every output they store: a warm combine at
   cap 256 allocates 527 words instead of 11 (235 with short supports),
   so [dune runtest --profile dev] is expected to fail every
   warm-combine case, square or not.  The [solve_delta] ceiling has room
   for those words and passes there.  That is the gate working, not a
   reason to raise the ceilings. *)
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

let check_warm_combine_allocation ?square label a b =
  (* One band: the whole kernel runs on this domain, where the counter
     can see it. *)
  let ctx = context ?square ~domains:1 (Lattice.capacity a) in
  let arena = Conv.arena ctx in
  let combine_and_release () =
    Conv.Arena.release arena (Conv.combine ctx a b)
  in
  (* Warm-up: the arena's scratch and free list exist from here on. *)
  combine_and_release ();
  combine_and_release ();
  check_allocation_ceiling label ~ceiling:32.
    (minor_words_of combine_and_release)

let test_combine_allocation () =
  check_warm_combine_allocation "dense combine at cap 256"
    (make_profile ~cap:256 ~stride:1 ~mag:0 71)
    (make_profile ~cap:256 ~stride:1 ~mag:0 72)

(* Operands whose support ends far below the capacity: the support
   scans walk the zero tails entry by entry, and must not box a float
   per entry while they do. *)
let test_short_support_allocation () =
  check_warm_combine_allocation "dense combine of short supports at cap 256"
    (make_short_profile ~cap:256 ~stride:1 ~mag:0 ~decay:0 ~top:90 73)
    (make_short_profile ~cap:256 ~stride:1 ~mag:0 ~decay:0 ~top:20 74)

(* The strided kernel at the dense case's ceiling: a bandwidth-1 by
   bandwidth-2 leaf pair, the commonest strided combine of a solve. *)
let test_strided_combine_allocation () =
  check_warm_combine_allocation "strided combine (1 x 2) at cap 256"
    (make_profile ~cap:256 ~stride:1 ~mag:0 71)
    (make_profile ~cap:256 ~stride:2 ~mag:0 72)

(* The dense kernel's square body (one weight table for both sides), on
   the same operands as the two dense cases above. *)
let test_square_combine_allocation () =
  check_warm_combine_allocation ~square:true "square dense combine at cap 256"
    (make_profile ~cap:256 ~stride:1 ~mag:0 71)
    (make_profile ~cap:256 ~stride:1 ~mag:0 72)

let test_square_short_support_allocation () =
  check_warm_combine_allocation ~square:true
    "square dense combine of short supports at cap 256"
    (make_short_profile ~cap:256 ~stride:1 ~mag:0 ~decay:0 ~top:90 73)
    (make_short_profile ~cap:256 ~stride:1 ~mag:0 ~decay:0 ~top:20 74)

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
      Helpers.check_same_lattice
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

let test_combine_non_finite_operand () =
  (* No number of rescale chunks brings an infinite maximum below the
     threshold, so both combines refuse the operand up front instead of
     looping forever; the arena stays usable for the next combine. *)
  let ctx = context 8 in
  let finite = make_profile ~cap:8 ~stride:1 ~mag:0 71 in
  let poisoned = make_profile ~cap:8 ~stride:1 ~mag:0 72 in
  Lattice.set poisoned 3 infinity;
  List.iter
    (fun (label, a, b) ->
      Helpers.check_raises_invalid ("combine " ^ label) (fun () ->
          Conv.combine ctx a b);
      Helpers.check_raises_invalid ("combine_naive " ^ label) (fun () ->
          Conv.combine_naive ctx a b))
    [ ("left", poisoned, finite); ("right", finite, poisoned) ];
  check_combine_matches_naive "finite after refusal" ctx finite
    (make_profile ~cap:8 ~stride:1 ~mag:0 73)

let test_flushed_root_fails_loudly () =
  (* At full load rescaling flushes the whole root profile; measures
     read off it would be NaN blocking and zero concurrency, so the
     solve must refuse instead.  A tenth of the load solves cleanly. *)
  (match Conv.solve (Helpers.heavy_model ()) with
  | exception Failure message ->
      Helpers.check_bool "message names the flush" true
        (Helpers.contains message "flushed to zero")
  | _ -> Alcotest.fail "heavy 512-port solve must raise Failure");
  let light = Conv.measures (Conv.solve (Helpers.heavy_model ~scale:0.1 ())) in
  Array.iter
    (fun (c : Crossbar.Measures.per_class) ->
      Helpers.check_bool "light blocking is a probability" true
        (c.Crossbar.Measures.blocking >= 0.
        && c.Crossbar.Measures.blocking <= 1.))
    light.Crossbar.Measures.per_class

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

(* ---------- Bernoulli leaves ---------- *)

(* A Bernoulli class of [s] sources holds at most [s] connections, so
   its generating sequence is exactly 0 from [k = s + 1] on: the factor
   (rho + s theta) is 0 in exact arithmetic.  Rounded, it is not, and a
   chain run past [s] grew that residue into entries of either sign.
   Every entry of a leaf past its class's [max_concurrent] must be +0,
   and no entry negative. *)
let check_leaves_within_sources label model =
  let tree = Tree.build model in
  for r = 0 to Model.num_classes model - 1 do
    let leaf = Tree.leaf tree r in
    let last = Model.max_concurrent model r * Model.bandwidth model r in
    for u = 0 to Lattice.capacity leaf do
      let x = Lattice.get leaf u in
      if u > last then
        check_bits (Printf.sprintf "%s: leaf %d entry %d past %d" label r u last)
          0. x
      else if x < 0. then
        Alcotest.failf "%s: leaf %d entry %d is negative (%g)" label r u x
    done
  done

let test_bernoulli_leaf_stops_at_sources () =
  (* 28 sources of bandwidth 3 on 96 ports: capacity alone would let the
     chain run to k = 32. *)
  let model =
    Model.square ~size:96
      ~classes:
        [
          Helpers.bernoulli ~name:"smooth" ~bandwidth:3 ~sources:28
            ~rate:0.0130367 ();
          Helpers.poisson ~name:"regular" 0.05;
        ]
  in
  check_leaves_within_sources "96 ports" model

let bernoulli_gen =
  let open QCheck2.Gen in
  let* size = int_range 2 160 in
  let* bandwidth = int_range 1 (Int.min 4 size) in
  let* sources = int_range 1 (Int.max 1 (size / bandwidth)) in
  let* rate = float_range 1e-4 0.1 in
  let* load = float_range 1e-3 0.5 in
  return
    (Model.square ~size
       ~classes:
         [
           Helpers.bernoulli ~name:"smooth" ~bandwidth ~sources ~rate ();
           Helpers.poisson ~name:"regular" load;
         ])

let prop_bernoulli_leaves_non_negative =
  QCheck2.Test.make ~count:200
    ~name:"Bernoulli leaves are non-negative and 0 past the source count"
    ~print:(Format.asprintf "%a" Model.pp) bernoulli_gen (fun model ->
      check_leaves_within_sources "random" model;
      true)

let () =
  Alcotest.run "kernel"
    [
      ( "tiled kernel",
        [
          Helpers.qcheck combine_matches_naive;
          Helpers.case "tile-boundary capacities" test_tile_boundaries;
          Helpers.case "degenerate tile sizes" test_degenerate_tiles;
          Helpers.case "unequal non-coprime strides" test_non_coprime_strides;
        ] );
      ( "support bounds",
        [
          Helpers.qcheck support_bounded_matches_naive;
          Helpers.case "chunked span decides banding"
            test_chunked_span_decides_banding;
          Helpers.case "trim zeroes only the trailing run" test_trim_tail;
          Helpers.case "planning root support below cap / 2"
            test_planning_root_support;
        ] );
      ( "dense blocks",
        [
          Helpers.case "every remainder mod 4" test_dense_block_remainders;
          Helpers.case "supports 0-3: empty joint range"
            test_dense_block_short_supports;
          Helpers.case "bands starting off a multiple of 4"
            test_dense_block_band_offsets;
        ] );
      ( "weight tables",
        [
          Helpers.case "bit-identical to the row-major recurrence"
            test_weight_tables_match_recurrence;
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
          Helpers.case "strided combine at cap 256 allocates <= 32 words"
            test_strided_combine_allocation;
          Helpers.case "short-support combine allocates <= 32 words"
            test_short_support_allocation;
          Helpers.case "square dense combine at cap 256 allocates <= 32 words"
            test_square_combine_allocation;
          Helpers.case "square short-support combine allocates <= 32 words"
            test_square_short_support_allocation;
        ] );
      ( "normalize",
        [
          Helpers.qcheck normalize_matches_reference;
          Helpers.case "non-finite maxima left untouched"
            test_normalize_non_finite;
          Helpers.case "combine refuses a non-finite operand"
            test_combine_non_finite_operand;
          Helpers.case "a flushed root fails loudly"
            test_flushed_root_fails_loudly;
        ] );
      ( "bernoulli leaf",
        [
          Helpers.case "96-port leaf stops at 28 sources"
            test_bernoulli_leaf_stops_at_sources;
          Helpers.qcheck prop_bernoulli_leaves_non_negative;
        ] );
      ( "knobs",
        [
          Helpers.case "validation and env override" test_knob_validation;
          Helpers.case "CROSSBAR_DOMAINS names its offending value"
            test_domains_knob_validation;
        ] );
    ]
