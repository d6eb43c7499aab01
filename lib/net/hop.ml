type t = {
  sim : Engine.Sim.t;
  frames : Memory.Heap.buffer Engine.Ring.t;
  due : int Engine.Ring.t; (* each in-flight frame's arrival time *)
  mutable last_due : int;
  mutable arrive : unit -> unit; (* the one handler, built at create *)
}

let create sim ~deliver =
  let h =
    {
      sim;
      frames = Engine.Ring.create ();
      due = Engine.Ring.create ();
      last_due = 0;
      arrive = ignore;
    }
  in
  h.arrive <-
    (fun () ->
      let at = Engine.Ring.pop h.due in
      let frame = Engine.Ring.pop h.frames in
      assert (at = Engine.Sim.now h.sim);
      deliver frame);
  h

let send h ~at frame =
  assert (at >= h.last_due);
  h.last_due <- at;
  Engine.Ring.push h.frames frame;
  Engine.Ring.push h.due at;
  Engine.Sim.at h.sim ~time:at h.arrive
