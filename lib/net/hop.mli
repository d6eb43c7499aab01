(** One FIFO stage a frame crosses between two devices: a fabric port's
    downlink, or a NIC pipeline of constant delay.

    Such a stage delivers its frames in the order it accepted them:
    a constant delay keeps the acceptance order, and a port's arrivals
    are serialized by its downlink, so each is at or after the one
    before. A stage therefore keeps its in-flight frames in one
    {!Engine.Ring} and schedules, per frame, the one handler it built
    at creation. That is the same event, at the same instant and with
    the same insertion sequence, as a closure per frame would be, and
    events of one instant still fire in insertion order, so the popped
    head is always the frame its event was scheduled for (checked
    against the recorded arrival time). A frame's trip through a stage
    allocates nothing once the rings have grown to the stage's peak
    occupancy.

    A frame is a {!Memory.Heap.buffer} from its fabric's frame heap
    (see {!Fabric}), and a stage moves the reference, never the bytes:
    {!send} hands the frame's ownership to the stage, and [deliver]
    hands it on to the next holder. *)

type t

val create : Engine.Sim.t -> deliver:(Memory.Heap.buffer -> unit) -> t
(** An empty stage; [deliver] runs, as a simulation event, once per
    frame at its arrival time, and owns the frame it is given. *)

val send : t -> at:Engine.Clock.t -> Memory.Heap.buffer -> unit
(** Accept a frame, and its ownership, that arrives at [at]. [at] must
    be no earlier than [now] or than the arrival of any frame still in
    flight. *)
