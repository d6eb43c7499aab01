(* The waiters, oldest first, as parallel arrays: the fiber that waits
   and the generation its wait started at. A waiter whose fiber has
   since moved to a later generation is stale; [sweep] drops it and
   keeps only the count of no-op events it owes, in [before] of the next
   survivor. *)
type t = {
  sim : Sim.t;
  mutable fibers : Sim.fiber array;
  mutable gens : int array;
  mutable before : int array; (* stale waiters swept just ahead of this one *)
  mutable len : int;
}

let create sim =
  { sim; fibers = Array.make 4 Sim.no_fiber; gens = Array.make 4 0; before = Array.make 4 0; len = 0 }

let rec schedule_noops sim n =
  if n > 0 then begin
    Sim.schedule sim ~delay:0 ignore 0;
    schedule_noops sim (n - 1)
  end

(* Every waiter gets one event, in FIFO order, swept ones included as
   no-ops at their original place: the event sequence is the one a
   plain list of resume closures would produce. A waiter's event is its
   fiber's [wake] with the wait's generation. *)
let broadcast t =
  let n = t.len in
  t.len <- 0;
  for i = 0 to n - 1 do
    schedule_noops t.sim t.before.(i);
    let f = t.fibers.(i) in
    Sim.schedule t.sim ~delay:0 f.wake t.gens.(i);
    t.fibers.(i) <- Sim.no_fiber
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
      t.fibers.(d) <- f;
      t.gens.(d) <- t.gens.(i);
      t.before.(d) <- owed;
      carry := 0;
      j := d + 1
    end
    else carry := owed + 1
  done;
  for i = !j to t.len - 1 do
    t.fibers.(i) <- Sim.no_fiber
  done;
  t.len <- !j;
  !carry

let grow t =
  let cap = 2 * Array.length t.fibers in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.fibers <- extend t.fibers Sim.no_fiber;
  t.gens <- extend t.gens 0;
  t.before <- extend t.before 0

let push t (f : Sim.fiber) =
  let owed =
    if t.len < Array.length t.fibers then 0
    else begin
      let trailing = sweep t in
      if 2 * t.len > Array.length t.fibers then grow t;
      trailing
    end
  in
  let i = t.len in
  t.fibers.(i) <- f;
  t.gens.(i) <- f.gen;
  t.before.(i) <- owed;
  t.len <- i + 1

let rec push_all cvs f =
  match cvs with
  | [] -> ()
  | cv :: rest ->
      push cv f;
      push_all rest f

let wait_many sim cvs ~timeout =
  let f = Sim.running sim in
  push_all cvs f;
  if timeout <> max_int then Sim.schedule sim ~delay:(max 0 timeout) f.timeout f.gen;
  Fiber.park ();
  if f.signaled then `Signaled else `Timeout
