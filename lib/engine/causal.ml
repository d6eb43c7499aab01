(* Demifleet: the cross-host causal-context recorder. One recorder per
   Sim.t; every host appends into the same time-ordered ring, so
   stitching needs no clock alignment. *)

type kind = Begin | Sent | Received | End

let kind_name = function
  | Begin -> "begin"
  | Sent -> "sent"
  | Received -> "received"
  | End -> "end"

let kinds = [| Begin; Sent; Received; End |]
let kind_tag k = match k with Begin -> 0 | Sent -> 1 | Received -> 2 | End -> 3

type event = {
  ev_kind : kind;
  ev_req : int;
  ev_msg : int;
  ev_parent : int;
  ev_hop : int;
  ev_host : string;
  ev_op : int;
  ev_time : Clock.t;
}

(* Ring layout: tag = kind, owner = host, operands a..e = req, msg,
   parent, hop, op. *)
type t = { log : Log.t; mutable next_req : int; mutable next_msg : int }

let create ?(capacity = 262_144) () =
  { log = Log.create ~capacity (); next_req = 0; next_msg = 0 }

let log t = t.log

(* Ids start at 1: a zero on the wire always means "no context", which
   is exactly what a recorder-off run writes. *)
let fresh_req t =
  t.next_req <- t.next_req + 1;
  t.next_req

let fresh_msg t =
  t.next_msg <- t.next_msg + 1;
  t.next_msg

let note t ~kind ~req ~msg ~parent ~hop ~host ~op ~now =
  Log.record t.log ~now ~tag:(kind_tag kind) ~label:"" ~owner:host ~aux:"" req msg parent hop op

let events t =
  List.map
    (fun (r : Log.row) ->
      {
        ev_kind = kinds.(r.tag); ev_req = r.a; ev_msg = r.b; ev_parent = r.c; ev_hop = r.d;
        ev_host = r.owner; ev_op = r.e; ev_time = r.ts;
      })
    (Log.rows t.log)
