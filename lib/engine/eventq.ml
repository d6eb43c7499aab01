type entry = { time : Clock.t; seq : int; fn : unit -> unit }

type t = {
  mutable heap : entry array;
  mutable len : int;
  mutable next_seq : int;
}

let dummy = { time = 0; seq = 0; fn = (fun () -> ()) }

let create () = { heap = Array.make 256 dummy; len = 0; next_seq = 0 }

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.len;
  t.heap <- heap

(* dlint-allow: transitive-alloc-in-hotpath -- the discrete-event substrate itself: one event record per scheduled event is the simulator's mechanism, not modeled datapath work (host cycle costs are charged via Cost, not by this allocation) *)
let add t ~time fn =
  assert (time < max_int);
  if t.len = Array.length t.heap then grow t;
  let e = { time; seq = t.next_seq; fn } in
  t.next_seq <- t.next_seq + 1;
  (* Sift up. *)
  let rec up i =
    if i = 0 then t.heap.(0) <- e
    else
      let parent = (i - 1) / 2 in
      if earlier e t.heap.(parent) then begin
        t.heap.(i) <- t.heap.(parent);
        up parent
      end
      else t.heap.(i) <- e
  in
  up t.len;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Eventq.pop: empty queue"
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    let last = t.heap.(t.len) in
    t.heap.(t.len) <- dummy;
    if t.len > 0 then begin
      (* Sift [last] down from the root. *)
      let rec down i =
        let l = (2 * i) + 1 in
        if l >= t.len then t.heap.(i) <- last
        else begin
          let c =
            if l + 1 < t.len && earlier t.heap.(l + 1) t.heap.(l) then l + 1
            else l
          in
          if earlier t.heap.(c) last then begin
            t.heap.(i) <- t.heap.(c);
            down c
          end
          else t.heap.(i) <- last
        end
      in
      down 0
    end;
    top.fn
  end

(* [max_int] is the "no event" sentinel, so the run loop reads one int
   per event and allocates nothing. *)
let top_time t = if t.len = 0 then max_int else t.heap.(0).time
