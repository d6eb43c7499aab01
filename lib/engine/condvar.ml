type t = { sim : Sim.t; mutable queue : (unit -> unit) list }

let create sim = { sim; queue = [] }

(* dlint-allow: transitive-alloc-in-hotpath scan-in-hotpath -- wakeup handoff: List.rev of the waiter queue (allocating the reversed list), bounded by blocked waiters, and [] (free) when nobody waits *)
let broadcast t =
  let waiters = List.rev t.queue in
  t.queue <- [];
  List.iter (fun resume -> Sim.schedule t.sim ~delay:0 resume) waiters

let wait_many sim cvs ~timeout =
  Fiber.suspend (fun resume ->
      let fired = ref false in
      let fire outcome =
        if not !fired then begin
          fired := true;
          resume outcome
        end
      in
      List.iter (fun cv -> cv.queue <- (fun () -> fire `Signaled) :: cv.queue) cvs;
      match timeout with
      | Some span -> Sim.schedule sim ~delay:(max 0 span) (fun () -> fire `Timeout)
      | None -> ())
