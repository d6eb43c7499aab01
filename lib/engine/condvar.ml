(* The waiters, oldest first, as parallel arrays: the fiber that waits
   and the generation its wait started at. A waiter whose fiber has
   since moved to a later generation is stale: its wait has ended, and
   as a fiber's generation only grows it can never be current again. *)
type t = {
  sim : Sim.t;
  mutable fibers : Sim.fiber array;
  mutable gens : int array;
  mutable len : int;
}

let create sim = { sim; fibers = Array.make 4 Sim.no_fiber; gens = Array.make 4 0; len = 0 }

(* One event per waiter still in its wait, in FIFO order: the fiber's
   [wake] with the wait's generation. A stale waiter's event could only
   be a no-op, so none is scheduled. *)
let broadcast t =
  let n = t.len in
  t.len <- 0;
  for i = 0 to n - 1 do
    let f = t.fibers.(i) in
    if f.gen = t.gens.(i) then Sim.schedule t.sim ~delay:0 f.wake t.gens.(i);
    t.fibers.(i) <- Sim.no_fiber
  done

(* Compact the waiters still in their wait to the front, keeping their
   order. *)
let sweep t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let f = t.fibers.(i) in
    if f.gen = t.gens.(i) then begin
      t.fibers.(!j) <- f;
      t.gens.(!j) <- t.gens.(i);
      incr j
    end
  done;
  for i = !j to t.len - 1 do
    t.fibers.(i) <- Sim.no_fiber
  done;
  t.len <- !j

let grow t =
  let cap = 2 * Array.length t.fibers in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.fibers <- extend t.fibers Sim.no_fiber;
  t.gens <- extend t.gens 0

let push t (f : Sim.fiber) =
  if t.len = Array.length t.fibers then begin
    sweep t;
    if 2 * t.len > Array.length t.fibers then grow t
  end;
  let i = t.len in
  t.fibers.(i) <- f;
  t.gens.(i) <- f.gen;
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
