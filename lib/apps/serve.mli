(** The server event loop shared by {!Echo}, {!Dkv} and {!Txnstore}: one
    coroutine multiplexing a listening socket and every accepted
    connection with [wait_any] (§4.2).

    It owns the accept/pop/close bookkeeping. Outstanding tokens live in
    one exact-length array in submission order, so [wait_any]'s
    lowest-ready-index rule serves completions in a fixed order. A pop
    replaced by the next pop shifts the array in place; only an accept
    (grow by one) or a close (shrink by one) reallocates it. A token's
    role — the listener, or which connection — is found in O(1). *)

val run :
  Demikernel.Pdpix.api ->
  name:string ->
  Demikernel.Pdpix.qd ->
  conn:(Demikernel.Pdpix.qd -> 'c) ->
  on_data:('c -> op:Demikernel.Pdpix.qtoken -> Demikernel.Pdpix.sga -> unit) ->
  unit
(** [run api ~name lqd ~conn ~on_data] serves the listening socket
    [lqd] until the simulation ends. [conn qd] builds a connection's
    state at accept; [on_data c ~op sga] handles one non-empty pop ([op]
    is the pop's token) before the next pop is posted. An empty pop
    (EOF) or a failed one closes the connection; a failed accept stops
    accepting. [name] labels the failure on an unexpected
    completion. *)
