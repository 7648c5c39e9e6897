(* Persistent worker pool: the process's one domain executor.

   A lazily-started, process-wide set of worker domains parked on
   per-worker mailboxes, so a fan-out costs one mutex/condvar hand-off
   per worker (~0.1 ms round-trip cold, microseconds once the
   completion spin window hides the wake latency), never a
   [Domain.spawn].  The banded combine kernel dispatches through [run];
   [Engine.Pool.run] through [run_tasks] (one band per pool worker,
   tasks handed out by an atomic counter inside the bands).

   Completion is the barrier callers build on: [run] returns only after
   it has observed every worker band's [done_] flag, which the worker
   sets after its job returned, so every write a band made is visible
   to the caller and no band still reads the caller's data.

   Dispatch protocol, per worker:
   - the dispatcher (holding the global [dispatch_lock]) writes the job
     closure and band index into the worker's mailbox under the
     mailbox lock, flips its state to [Armed] and signals;
   - the worker wakes, flips the state back to [Idle], runs the job
     outside the lock, records any exception, publishes completion
     through the [done_] atomic, and signals in case the dispatcher
     already gave up spinning and parked on the condvar;
   - the dispatcher runs band 0 itself, then collects each worker by
     spinning briefly on [done_] (bands are work-balanced, so the skew
     is small) before falling back to the condvar.

   Failure semantics match [Engine.Pool.run]: every band is awaited
   before anything is raised (workers may still be writing into the
   caller's buffers), then the caller's own exception wins, else the
   lowest-banded worker failure is re-raised.

   Nested or concurrent dispatch (a second domain — or a band job
   itself — calling [run] while a fan-out is in flight) cannot take
   the mailboxes.  Its caller runs the bands itself, taking them from
   an atomic counter, and puts the fan-out up as the one open [offer]
   so that pool bands with nothing left to do can take bands too.
   That is how a combine inside a [run_tasks] task gets help: a pool
   band whose task counter is exhausted lends its domain to the offers
   of the tasks still running until the last of them ends.  While
   every band is busy nobody lends, the nested bands run on the task's
   own domain, and the pool never asks for more domains than it has.
   Any split is bit-identical, since bands write disjoint rows. *)

(* Sentinel stored in [failed] between jobs so the field never needs an
   option box on the hot dispatch path. *)
exception No_failure

type state = Idle | Armed | Quit

type mailbox = {
  lock : Mutex.t;
  signal : Condition.t;
  mutable state : state; (* protected by [lock] *)
  done_ : bool Atomic.t; (* completion flag for the last armed job *)
  mutable job : int -> unit; (* written under [lock] before [Armed] *)
  mutable band : int; (* ditto *)
  mutable failed : exn; (* written by the worker before [done_] *)
}

let ignore_band (_ : int) = ()

(* Serialises dispatch and pool growth/shutdown.  Held for the whole
   fan-out so a concurrent [run] sees [try_lock] fail and degrades to
   the inline sequential path instead of racing for mailboxes. *)
let dispatch_lock = Mutex.create ()

let workers : (mailbox * unit Domain.t) array Atomic.t = Atomic.make [||]

let rec worker_wait mb =
  match mb.state with
  | Armed ->
      mb.state <- Idle;
      false
  | Quit -> true
  | Idle ->
      Condition.wait mb.signal mb.lock;
      worker_wait mb

let rec worker_loop mb =
  Mutex.lock mb.lock;
  let quit = worker_wait mb in
  Mutex.unlock mb.lock;
  if not quit then begin
    (match mb.job mb.band with () -> () | exception e -> mb.failed <- e);
    (* Drop the closure so the operands it captures are not kept live
       until the next dispatch. *)
    mb.job <- ignore_band;
    Atomic.set mb.done_ true;
    (* Wake the dispatcher if it stopped spinning and parked. *)
    Mutex.lock mb.lock;
    Condition.signal mb.signal;
    Mutex.unlock mb.lock;
    worker_loop mb
  end

let spawn_worker () =
  let mb =
    {
      lock = Mutex.create ();
      signal = Condition.create ();
      state = Idle;
      done_ = Atomic.make true;
      job = ignore_band;
      band = 0;
      failed = No_failure;
    }
  in
  (* The worker and the dispatcher hand the mutable mailbox back and
     forth under its own lock (job/band/state) and the [done_] atomic
     (completion, failure visibility); no field is ever written
     concurrently.  The pair and worker thunk below are built once per
     pool worker, never per dispatch. *)
  (* lint: guarded=mb -- hand-off under mb.lock *)
  (mb, Domain.spawn (fun () -> worker_loop mb))

(* Grow the pool to at least [wanted] workers.  Caller holds
   [dispatch_lock]. *)
let ensure wanted =
  let current = Atomic.get workers in
  let have = Array.length current in
  if have >= wanted then current
  else begin
    let grown =
      Array.init wanted (fun i ->
          if i < have then current.(i) else spawn_worker ())
    in
    Atomic.set workers grown;
    grown
  end

let arm mb f band =
  mb.failed <- No_failure;
  Atomic.set mb.done_ false;
  Mutex.lock mb.lock;
  mb.job <- f;
  mb.band <- band;
  mb.state <- Armed;
  Condition.signal mb.signal;
  Mutex.unlock mb.lock

(* Bands are triangular-work-balanced, so the skew between the caller's
   band 0 and a worker band is a small fraction of the band itself:
   a short spin almost always observes completion without a syscall.
   Oversubscribed runs (more bands than cores) stop burning the core
   after [spin_budget] relaxations and park on the condvar instead. *)
let spin_budget = 10_000

(* Top-level (not a closure over the mailbox) so awaiting allocates
   nothing on the dispatch path. *)
let rec await_spin mb n =
  if Atomic.get mb.done_ then ()
  else if n > 0 then begin
    Domain.cpu_relax ();
    await_spin mb (n - 1)
  end
  else begin
    Mutex.lock mb.lock;
    while not (Atomic.get mb.done_) do
      Condition.wait mb.signal mb.lock
    done;
    Mutex.unlock mb.lock
  end

let await mb = await_spin mb spin_budget

(* Await workers 1..bands-1 in band order, keeping the first failure
   (threaded as an argument: no ref cell on the dispatch path). *)
let rec collect ws band bands worst =
  if band >= bands then worst
  else begin
    let mb, _ = ws.(band - 1) in
    await mb;
    let worst = if worst == No_failure then mb.failed else worst in
    collect ws (band + 1) bands worst
  end

let run_inline bands f =
  for i = 0 to bands - 1 do
    f i
  done

(* Caller holds [dispatch_lock]; released here. *)
let dispatch bands f =
  match ensure (bands - 1) with
  | exception e ->
      Mutex.unlock dispatch_lock;
      raise e
  | ws ->
      for band = 1 to bands - 1 do
        let mb, _ = ws.(band - 1) in
        arm mb f band
      done;
      let caller_failed = match f 0 with () -> No_failure | exception e -> e in
      let worker_failed = collect ws 1 bands No_failure in
      Mutex.unlock dispatch_lock;
      if caller_failed != No_failure then raise caller_failed
      else if worker_failed != No_failure then raise worker_failed

(* The bands of a fan-out that could not take the mailboxes, open to
   lending domains.  Owner and lenders alike take bands from [next]. *)
type offer = {
  job : int -> unit;
  bands : int;
  next : int Atomic.t; (* next band to take; >= [bands] once all are *)
  inside : int Atomic.t; (* lenders that entered and have not left *)
  failed : exn Atomic.t; (* first band failure, else [No_failure] *)
}

let no_offer =
  {
    job = ignore_band;
    bands = 0;
    next = Atomic.make 0;
    inside = Atomic.make 0;
    failed = Atomic.make No_failure;
  }

(* The one open offer, else [no_offer]. *)
let open_offer = Atomic.make no_offer

(* Domains lending in [run_tasks], spinning or parked, and those of
   them parked on [lend_signal]. *)
let lenders = Atomic.make 0
let parked = Atomic.make 0
let lend_lock = Mutex.create ()
let lend_signal = Condition.create ()

(* Called after a change a parked lender waits for (an offer opened,
   the last running task ended).  A lender bumps [parked] before it
   re-checks its condition under [lend_lock], and the change is made
   before [parked] is read here, so no wake-up is lost. *)
let wake_lenders () =
  if Atomic.get parked > 0 then begin
    Mutex.lock lend_lock;
    Condition.broadcast lend_signal;
    Mutex.unlock lend_lock
  end

let rec take_bands o =
  let i = Atomic.fetch_and_add o.next 1 in
  if i < o.bands then begin
    (match o.job i with
    | () -> ()
    | exception e ->
        ignore (Atomic.compare_and_set o.failed No_failure e : bool));
    take_bands o
  end

(* A lender enters [inside] before its first take, so an owner that has
   seen [next] exhausted and then [inside] drained knows every band a
   lender took has finished. *)
let lend_to o =
  Atomic.incr o.inside;
  take_bands o;
  Atomic.decr o.inside

let rec await_lenders o =
  if Atomic.get o.inside > 0 then begin
    Domain.cpu_relax ();
    await_lenders o
  end

let run_offered bands f =
  if Atomic.get lenders = 0 then run_inline bands f
  else begin
    let o =
      {
        job = f;
        bands;
        next = Atomic.make 0;
        inside = Atomic.make 0;
        failed = Atomic.make No_failure;
      }
    in
    if not (Atomic.compare_and_set open_offer no_offer o) then
      run_inline bands f
    else begin
      wake_lenders ();
      take_bands o;
      ignore (Atomic.compare_and_set open_offer o no_offer : bool);
      await_lenders o;
      let failed = Atomic.get o.failed in
      if failed != No_failure then raise failed
    end
  end

let run ~bands f =
  if bands < 1 then invalid_arg "Band_pool.run: bands must be >= 1"
  else if bands = 1 then f 0
  else if Mutex.try_lock dispatch_lock then dispatch bands f
  else
    (* A fan-out is already in flight (a combine inside a [run_tasks]
       task, or another domain's combine). *)
    run_offered bands f

let offer_open () =
  let o = Atomic.get open_offer in
  o != no_offer && Atomic.get o.next < o.bands

(* Lend this domain to open offers while any task of the current
   [run_tasks] still runs: spin briefly between offers, since a task's
   next combine is rarely far off, then park. *)
let rec lend running spins =
  if Atomic.get running > 0 then begin
    let o = Atomic.get open_offer in
    if o != no_offer && Atomic.get o.next < o.bands then begin
      lend_to o;
      lend running spin_budget
    end
    else if spins > 0 then begin
      Domain.cpu_relax ();
      lend running (spins - 1)
    end
    else begin
      Mutex.lock lend_lock;
      Atomic.incr parked;
      while Atomic.get running > 0 && not (offer_open ()) do
        Condition.wait lend_signal lend_lock
      done;
      Atomic.decr parked;
      Mutex.unlock lend_lock;
      lend running spin_budget
    end
  end

let run_tasks ~bands ~tasks f =
  if bands < 1 then invalid_arg "Band_pool.run_tasks: bands must be >= 1";
  if tasks < 0 then invalid_arg "Band_pool.run_tasks: tasks must be >= 0";
  let bands = min bands tasks in
  if bands <= 1 || not (Mutex.try_lock dispatch_lock) then
    (* One band, or nested in a fan-out already in flight: the tasks
       run here, in index order. *)
    for i = 0 to tasks - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    (* Tasks taken and not finished, counted from before the take, so
       once [next] is exhausted [running = 0] means no task runs and
       none will start. *)
    let running = Atomic.make 0 in
    let failed = Atomic.make No_failure in
    let rec take () =
      Atomic.incr running;
      let i = Atomic.fetch_and_add next 1 in
      let go = i < tasks && Atomic.get failed == No_failure in
      if go then begin
        match f i with
        | () -> ()
        | exception e ->
            ignore (Atomic.compare_and_set failed No_failure e : bool)
      end;
      if Atomic.fetch_and_add running (-1) = 1 then wake_lenders ();
      if go then take ()
    in
    dispatch bands (fun (_ : int) ->
        take ();
        (* Nothing left to start here: help the tasks still running. *)
        Atomic.incr lenders;
        lend running spin_budget;
        Atomic.decr lenders);
    let failed = Atomic.get failed in
    if failed != No_failure then raise failed
  end

let size () = Array.length (Atomic.get workers)

let shutdown () =
  Mutex.lock dispatch_lock;
  let ws = Atomic.get workers in
  Atomic.set workers [||];
  (* Quit each mailbox before unlocking dispatch: no run can be in
     flight (we hold the lock), so every worker is idle or about to
     re-check its state. *)
  Array.iter
    (fun (mb, _) ->
      Mutex.lock mb.lock;
      mb.state <- Quit;
      Condition.signal mb.signal;
      Mutex.unlock mb.lock)
    ws;
  Mutex.unlock dispatch_lock;
  Array.iter (fun (_, d) -> Domain.join d) ws
