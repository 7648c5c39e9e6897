type solve = {
  wall_seconds : float;
  lattice_cells : int;
  rescales : int;
  tree_combines : int;
  banded_combines : int;
  from_incremental : bool;
}

(* Log-bucketed wall-time histogram.  A positive double's top bits, read
   as an integer, are its biased exponent followed by its mantissa; the
   exponent and the top [sub_bits] mantissa bits ([key]) split every
   power of two into 32 buckets, each with an upper edge at most
   (1 + 2^-5) times its lower edge.  The in-range keys cover
   [2^min_exponent, 2^(min_exponent + octaves)) seconds — about 1 ns to
   73 h; bucket 0 holds exact zeros, bucket 1 positive walls below that
   range and the last bucket walls above it. *)
let sub_bits = 5
let mantissa_shift = 52 - sub_bits
let min_exponent = -30
let octaves = 48
let first_key = (min_exponent + 1023) lsl sub_bits
let range_buckets = octaves lsl sub_bits
let buckets = range_buckets + 3

(* [wall] is non-negative (or +inf); reads its key without allocating. *)
let bucket wall =
  if not (wall > 0.) then 0
  else begin
    let key =
      Int64.to_int
        (Int64.shift_right_logical (Int64.bits_of_float wall) mantissa_shift)
    in
    let offset = key - first_key in
    if offset < 0 then 1 else if offset >= range_buckets then buckets - 1
    else offset + 2
  end

(* Smallest value above every wall bucket [i] can hold: the next key's
   lower edge.  The caller clamps it to the exact maximum. *)
let upper_edge i =
  if i = 0 then 0.
  else if i = 1 then Float.ldexp 1. min_exponent
  else if i = buckets - 1 then Float.infinity
  else
    Int64.float_of_bits
      (Int64.shift_left (Int64.of_int (first_key + i - 1)) mantissa_shift)

(* Float accumulators in their own all-float record: OCaml stores its
   fields unboxed, so updating them allocates nothing. *)
type walls = { mutable total : float; mutable max : float }

type t = {
  mutex : Mutex.t;
  walls : walls;
  histogram : int array;
  mutable requests : int;
  mutable solves : int;
  mutable lattice_cells : int;
  mutable rescales : int;
  mutable tree_combines : int;
  mutable banded_combines : int;
  mutable incremental_solves : int;
}

let create () =
  {
    mutex = Mutex.create ();
    walls = { total = 0.; max = 0. };
    histogram = Array.make buckets 0;
    requests = 0;
    solves = 0;
    lattice_cells = 0;
    rescales = 0;
    tree_combines = 0;
    banded_combines = 0;
    incremental_solves = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t solve =
  (* Wall times come from Engine.Clock (monotonic), so negatives cannot
     arise from there; clamp anyway so no caller-supplied reading can
     ever make totals or percentiles go backwards. *)
  let wall = if solve.wall_seconds > 0. then solve.wall_seconds else 0. in
  let b = bucket wall in
  (* Bare lock/unlock rather than [locked]: nothing between them can
     raise, and a closure here would allocate on every request. *)
  Mutex.lock t.mutex;
  t.requests <- t.requests + 1;
  t.solves <- t.solves + 1;
  t.walls.total <- t.walls.total +. wall;
  if wall > t.walls.max then t.walls.max <- wall;
  t.histogram.(b) <- t.histogram.(b) + 1;
  t.lattice_cells <- t.lattice_cells + solve.lattice_cells;
  t.rescales <- t.rescales + solve.rescales;
  t.tree_combines <- t.tree_combines + solve.tree_combines;
  t.banded_combines <- t.banded_combines + solve.banded_combines;
  if solve.from_incremental then
    t.incremental_solves <- t.incremental_solves + 1;
  Mutex.unlock t.mutex

let record_request t =
  Mutex.lock t.mutex;
  t.requests <- t.requests + 1;
  Mutex.unlock t.mutex

let count t = locked t (fun () -> t.solves)
let requests t = locked t (fun () -> t.requests)
let total_wall_seconds t = locked t (fun () -> t.walls.total)

(* Histogram estimate of the nearest-rank percentile (the smallest wall
   with at least [p] of the mass at or below it): the upper edge of the
   bucket holding that wall, clamped to the exact maximum.  Caller holds
   the lock. *)
let percentile t p =
  if t.solves = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int t.solves)) in
    let rank = max 1 (min t.solves rank) in
    let rec find i seen =
      let seen = seen + t.histogram.(i) in
      if seen >= rank || i = buckets - 1 then i else find (i + 1) seen
    in
    Float.min (upper_edge (find 0 0)) t.walls.max
  end

let to_json ?cache ?domains t =
  (* One lock acquisition for the whole summary: the solve count, the
     wall-time totals and the percentiles all come from this single
     snapshot, so a record landing concurrently can never make the
     emitted fields disagree with each other. *)
  let base =
    locked t (fun () ->
        [
          ("requests", Json.Int t.requests);
          ("solves", Json.Int t.solves);
          ("wall_seconds", Json.Float t.walls.total);
          ("wall_seconds_p50", Json.Float (percentile t 0.5));
          ("wall_seconds_p95", Json.Float (percentile t 0.95));
          ("wall_seconds_max", Json.Float t.walls.max);
          ("lattice_cells", Json.Int t.lattice_cells);
          ("rescales", Json.Int t.rescales);
          ("tree_combines", Json.Int t.tree_combines);
          ("banded_combines", Json.Int t.banded_combines);
          ("incremental_solves", Json.Int t.incremental_solves);
        ])
  in
  let pool =
    match domains with None -> [] | Some d -> [ ("domains", Json.Int d) ]
  in
  let cache_fields =
    match cache with
    | None -> []
    | Some c ->
        [
          ( "cache",
            Json.Assoc
              [
                ("hits", Json.Int (Cache.hits c));
                ("misses", Json.Int (Cache.misses c));
                ("evictions", Json.Int (Cache.evictions c));
                ("entries", Json.Int (Cache.size c));
                ("hit_rate", Json.Float (Cache.hit_rate c));
              ] );
        ]
  in
  Json.Assoc (base @ pool @ cache_fields)
