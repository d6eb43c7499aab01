(** A process-wide meter of the bytes the simulator itself copies.

    [Bytes] and [String] are the stdlib modules, except that
    [Bytes.blit], [Bytes.blit_string], [Bytes.sub], [Bytes.sub_string],
    [Bytes.copy] and [String.sub] add the bytes they move to one
    counter. The libraries on the datapath ([memory], [net], [tcp],
    [demikernel]) build with [-open Engine.Copies], so every copy they
    make is counted, with no marker at the call site. The counter is
    the simulator's host work, apart from the modelled copies a run
    charges (the [bytes_copied] ledger of [Memory.Heap]); the selfcheck
    and the [copies:] test pin its delta per run.

    A dev build compiles this module opaque, so none of its functions
    is inlined into a caller, including the stdlib ones it re-exports:
    code that needs inlined fixed-width loads takes [Stdlib.Bytes]
    itself, as [Net.Wire] does. *)

module Bytes : module type of struct
  include Stdlib.Bytes
end

module String : module type of struct
  include Stdlib.String
end

val moved : unit -> int
(** Bytes moved by the counted functions since the program started. *)
