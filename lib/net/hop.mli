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
    occupancy. *)

type t

val create : Engine.Sim.t -> deliver:(string -> unit) -> t
(** An empty stage; [deliver] runs, as a simulation event, once per
    frame at its arrival time. *)

val send : t -> at:Engine.Clock.t -> string -> unit
(** Accept a frame that arrives at [at]. [at] must be no earlier than
    [now] or than the arrival of any frame still in flight. *)
