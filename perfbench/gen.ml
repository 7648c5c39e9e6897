module Json = Crossbar_engine.Json
module Sweep = Crossbar_engine.Sweep
module Model = Crossbar.Model
module Traffic = Crossbar.Traffic
module Protocol = Crossbar_serve.Protocol

type conversation = {
  install : string array;
  warmup : string array array;
  windows : string array array;
}

type plans = {
  warmup_plans : Sweep.point list array;
  timed_plans : Sweep.point list array;
}

type ops = Serve of conversation | Plan of plans

type t = {
  name : string;
  ops : ops;
  shapes : Model.t list;
  weights : float array;
  trace_ops : int;
}

let names = [ "serve-admit"; "plan-sweep" ]
(* Largest write a pipe delivers atomically (PIPE_BUF on Linux): a
   window no longer than this reaches the daemon in one read. *)
let pipe_buf = 4096

(* Parameters sit on a 1/1024 grid: exact in binary, short on the wire. *)
let grid st lo hi =
  let lo = truncate (lo *. 1024.) and hi = truncate (hi *. 1024.) in
  float_of_int (lo + Random.State.int st (hi - lo + 1)) /. 1024.

(* Model rates are per input/output pair, so offered load grows with the
   square of the switch size; dividing by the nearest power of four of
   (size / 32)^2 keeps every size at moderate blocking (no dynamic
   rescaling) with binary-exact rates. *)
let per_pair ~size x =
  let octaves = Float.round (Float.log2 (float_of_int size /. 32.)) in
  Float.ldexp x (-11 - (2 * truncate octaves))

let alpha st ~size = per_pair ~size (grid st 0.25 2.0)

(* Class 0 has bandwidth 1, so every tree's root and first leaf are
   dense (stride-1) profiles — the kernel probe combines those two. *)
let traffic ~size ~index ~alpha =
  let name = Printf.sprintf "k%d" index in
  let bandwidth = if index mod 2 = 0 then 1 else 2 in
  if index mod 4 = 3 then
    Traffic.pascal ~name ~bandwidth ~alpha ~beta:(per_pair ~size (1. /. 64.))
      ~service_rate:1.0 ()
  else Traffic.poisson ~name ~bandwidth ~rate:alpha ~service_rate:1.0 ()

let model st ~size ~classes =
  Model.square ~size
    ~classes:
      (List.init classes (fun index -> traffic ~size ~index ~alpha:(alpha st ~size)))

let with_alpha model index alpha =
  Model.map_class model index (fun c -> Traffic.with_alpha c alpha)

let weights st ~classes =
  Array.init classes (fun _ -> float_of_int (1 + Random.State.int st 8) /. 8.)

(* Zipf(1) over [n] ranks. *)
let zipf n =
  let w = Array.init n (fun k -> 1. /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cumulative = Array.make n 0. in
  ignore
    (Array.fold_left
       (fun (k, acc) x ->
         let acc = acc +. (x /. total) in
         cumulative.(k) <- acc;
         (k + 1, acc))
       (0, 0.) w);
  fun st ->
    let u = Random.State.float st 1.0 in
    let rec find k = if k >= n - 1 || u < cumulative.(k) then k else find (k + 1) in
    find 0

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Request lines with conversation-wide sequential ids. *)
let line_maker () =
  let next = ref 0 in
  fun query ->
    let id = !next in
    incr next;
    Protocol.request_to_line { Protocol.id = Json.Int id; query }

let window_bytes lines =
  String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines))

let check_windows name windows =
  Array.iteri
    (fun w lines ->
      let n = String.length (window_bytes lines) in
      if n > pipe_buf then
        failwith
          (Printf.sprintf "%s: window %d is %d bytes, over the %d-byte atomic write"
             name w n pipe_buf))
    windows

(* ---------- serve-admit ----------
   One client keeps R = 8 hot trees and streams windows of 32 requests
   at them: 8 deltas (a load estimate moved) to 24 reads (8 each of
   blocking, shadow_costs and admit), each aimed at a Zipf-popular
   tree.  Small trees keep the kernel cheap, so parsing, grouping,
   registry lookups and the daemon's loop carry the time. *)

let admit_size = 32
let admit_classes = 8
let admit_window = 32
let admit_warmup = 100
let admit_windows_per_second = 500

let serve_admit st ~seconds =
  let trees = 8 in
  let tree_name t = Printf.sprintf "h%d" t in
  let classes = admit_classes in
  let models = Array.init trees (fun _ -> model st ~size:admit_size ~classes) in
  let tree_weights = Array.init trees (fun _ -> weights st ~classes) in
  let line = line_maker () in
  let install =
    Array.init trees (fun t ->
        line (Protocol.Solve { tree = tree_name t; model = models.(t) }))
  in
  let pick = zipf trees in
  let window _ =
    let kinds = Array.init admit_window (fun i -> i mod 4) in
    shuffle st kinds;
    Array.map
      (fun kind ->
        let t = pick st in
        let tree = tree_name t in
        let weights = tree_weights.(t) in
        match kind with
        | 0 ->
            let class_index = Random.State.int st classes in
            let a = alpha st ~size:admit_size in
            models.(t) <- with_alpha models.(t) class_index a;
            line
              (Protocol.Delta
                 { tree; changes = [ { Protocol.class_index; alpha = Some a; beta = None } ] })
        | 1 -> line (Protocol.Blocking { tree })
        | 2 -> line (Protocol.Shadow_costs { tree; weights })
        | _ ->
            line
              (Protocol.Admit
                 { tree; class_index = Random.State.int st classes; weights }))
      kinds
  in
  let warmup = Array.init admit_warmup window in
  let windows = Array.init (admit_windows_per_second * seconds) window in
  {
    name = "serve-admit";
    ops = Serve { install; warmup; windows };
    shapes = [ models.(0) ];
    weights = tree_weights.(0);
    trace_ops = 300;
  }

(* ---------- plan-sweep ----------
   Capacity planning: each op is one planning sweep — class 0's load
   over a 12-point grid on two switches at and just above the banding
   threshold (256 and 272 ports), one chain per switch, so the pool
   runs the two chains side by side and every combine is banded.  Every
   op has the same shape (two cold chain heads, 22 deltas), so its
   latency has one mode. *)

let sweep_sizes = [ 256; 272 ]
let sweep_classes = 8
let chain_length = 12
let sweep_warmup = 2
let plans_per_second = 18

let chain st ~size =
  let base = model st ~size ~classes:sweep_classes in
  let lo = grid st 0.25 1.0 in
  Array.init chain_length (fun i ->
      with_alpha base 0 (per_pair ~size (lo +. (float_of_int i /. 8.))))

let plan_sweep st ~seconds =
  let plan _ = List.map (fun size -> chain st ~size) sweep_sizes in
  let warmup_plans = Array.init sweep_warmup plan in
  let plans = Array.init (plans_per_second * seconds) plan in
  let points = Array.map (List.concat_map (fun chain ->
      Array.to_list (Array.map (Sweep.point ~algorithm:Crossbar.Solver.Convolution) chain)))
  in
  {
    name = "plan-sweep";
    ops = Plan { warmup_plans = points warmup_plans; timed_plans = points plans };
    shapes = List.map (fun chain -> chain.(0)) warmup_plans.(0);
    weights = weights st ~classes:sweep_classes;
    trace_ops = 16;
  }

let generate ~workload ~seed ~seconds =
  let tag =
    match List.find_index (String.equal workload) names with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "unknown workload %S (want one of %s)" workload
             (String.concat ", " names))
  in
  let st = Random.State.make [| seed; tag |] in
  let t =
    match workload with
    | "serve-admit" -> serve_admit st ~seconds
    | _ -> plan_sweep st ~seconds
  in
  (match t.ops with
  | Serve c ->
      check_windows t.name c.warmup;
      check_windows t.name c.windows
  | Plan _ -> ());
  t
