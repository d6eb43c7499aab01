(* The waiters, oldest first, as parallel arrays: the shared signal
   closure of each wait, the fiber that waits and the generation the
   wait started at. A waiter whose fiber has since moved to a later
   generation is stale; [sweep] drops it and keeps only the count of
   no-op events it owes, in [before] of the next survivor. *)
type t = {
  sim : Sim.t;
  mutable fns : (unit -> unit) array;
  mutable fibers : Sim.fiber array;
  mutable gens : int array;
  mutable before : int array; (* stale waiters swept just ahead of this one *)
  mutable len : int;
}

let create sim =
  {
    sim;
    fns = Array.make 4 ignore;
    fibers = Array.make 4 Sim.no_fiber;
    gens = Array.make 4 0;
    before = Array.make 4 0;
    len = 0;
  }

let clear_slot t i =
  t.fns.(i) <- ignore;
  t.fibers.(i) <- Sim.no_fiber

(* A wait's events run this: only the first one to run while the fiber
   is still in generation [g] ends the wait. *)
let fire (f : Sim.fiber) g signaled =
  if f.gen = g then begin
    f.gen <- g + 1;
    f.signaled <- signaled;
    f.resume ()
  end

let rec schedule_noops sim n =
  if n > 0 then begin
    Sim.schedule sim ~delay:0 ignore;
    schedule_noops sim (n - 1)
  end

(* Every waiter gets one event, in FIFO order, swept ones included as
   no-ops at their original place: the event sequence is the one a
   plain list of resume closures would produce. *)
let broadcast t =
  let n = t.len in
  t.len <- 0;
  for i = 0 to n - 1 do
    schedule_noops t.sim t.before.(i);
    Sim.schedule t.sim ~delay:0 t.fns.(i);
    clear_slot t i
  done

(* Compact the waiters still in their wait to the front, keeping their
   order; returns the stale count trailing the last survivor. *)
let sweep t =
  let j = ref 0 and carry = ref 0 in
  for i = 0 to t.len - 1 do
    let owed = !carry + t.before.(i) in
    let f = t.fibers.(i) in
    if f.gen = t.gens.(i) then begin
      let d = !j in
      t.fns.(d) <- t.fns.(i);
      t.fibers.(d) <- f;
      t.gens.(d) <- t.gens.(i);
      t.before.(d) <- owed;
      carry := 0;
      j := d + 1
    end
    else carry := owed + 1
  done;
  for i = !j to t.len - 1 do
    clear_slot t i
  done;
  t.len <- !j;
  !carry

let grow t =
  let cap = 2 * Array.length t.fns in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.fns <- extend t.fns ignore;
  t.fibers <- extend t.fibers Sim.no_fiber;
  t.gens <- extend t.gens 0;
  t.before <- extend t.before 0

let push t signal (f : Sim.fiber) =
  let owed =
    if t.len < Array.length t.fns then 0
    else begin
      let trailing = sweep t in
      if 2 * t.len > Array.length t.fns then grow t;
      trailing
    end
  in
  let i = t.len in
  t.fns.(i) <- signal;
  t.fibers.(i) <- f;
  t.gens.(i) <- f.gen;
  t.before.(i) <- owed;
  t.len <- i + 1

let rec push_all cvs signal f =
  match cvs with
  | [] -> ()
  | cv :: rest ->
      push cv signal f;
      push_all rest signal f

let wait_many sim cvs ~timeout =
  let f = Sim.running sim in
  let g = f.gen in
  (match cvs with [] -> () | _ -> push_all cvs (fun () -> fire f g true) f);
  (match timeout with
  | Some span -> Sim.schedule sim ~delay:(max 0 span) (fun () -> fire f g false)
  | None -> ());
  Fiber.park ();
  if f.signaled then `Signaled else `Timeout
