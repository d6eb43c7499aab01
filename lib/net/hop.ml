type t = {
  sim : Engine.Sim.t;
  frames : Memory.Heap.buffer Engine.Ring.t;
  mutable last_due : int;
  mutable arrive : int -> unit; (* the one handler, built at create *)
}

(* Each frame's event carries its arrival time as the operand. *)
let create sim ~deliver =
  let h = { sim; frames = Engine.Ring.create (); last_due = 0; arrive = ignore } in
  h.arrive <-
    (fun at ->
      let frame = Engine.Ring.pop h.frames in
      assert (at = Engine.Sim.now h.sim);
      deliver frame);
  h

let send h ~at frame =
  assert (at >= h.last_due);
  h.last_due <- at;
  Engine.Ring.push h.frames frame;
  Engine.Sim.at h.sim ~time:at h.arrive at
