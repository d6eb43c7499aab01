type _ Effect.t += Sleep : unit Effect.t | Park : unit Effect.t

let continue_fiber sim (f : Sim.fiber) =
  match f.cont with
  | Some k ->
      f.cont <- None;
      Sim.set_running sim f;
      Effect.Deep.continue k ()
  | None -> invalid_arg "Fiber: resume of a fiber that is not parked"

(* Everything a suspension needs is built here, once per fiber: the
   record, its resume closure and the [Some] handlers [effc] returns.
   A sleep or a park then allocates only the captured continuation and
   the [Some] that parks it. *)
let spawn sim ?(name = "fiber") fn =
  let rec f =
    { Sim.cont = None; gen = 0; signaled = false; resume = (fun () -> continue_fiber sim f) }
  in
  let on_sleep =
    Some
      (fun k ->
        f.cont <- Some k;
        Sim.schedule sim ~delay:(Sim.sleep_span sim) f.resume)
  in
  let on_park = Some (fun k -> f.cont <- Some k) in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          let msg =
            Printf.sprintf "fiber %S raised: %s" name (Printexc.to_string e)
          in
          Printexc.raise_with_backtrace (Failure msg) bt);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Sleep -> on_sleep | Park -> on_park | _ -> None);
    }
  in
  Sim.schedule sim ~delay:0 (fun () ->
      Sim.set_running sim f;
      Effect.Deep.match_with fn () handler)

let sleep sim span =
  Sim.set_sleep_span sim span;
  Effect.perform Sleep

let park () = Effect.perform Park
