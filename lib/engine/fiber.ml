type _ Effect.t += Sleep : unit Effect.t | Park : unit Effect.t

let continue_fiber sim (f : Sim.fiber) =
  let k = f.cont in
  if k == Sim.no_cont then invalid_arg "Fiber: resume of a fiber that is not parked";
  f.cont <- Sim.no_cont;
  Sim.set_running sim f;
  Effect.Deep.continue k ()

(* Everything a suspension needs is built here, once per fiber: the
   record, its resume closure and the [Some] handlers [effc] returns.
   A sleep or a park then allocates only the continuation the effect
   runtime captures, parked in a plain field. *)
let spawn sim ?(name = "fiber") fn =
  let rec f =
    { Sim.cont = Sim.no_cont; gen = 0; signaled = false; resume = (fun () -> continue_fiber sim f) }
  in
  let on_sleep =
    Some
      (fun k ->
        f.cont <- k;
        Sim.schedule sim ~delay:(Sim.sleep_span sim) f.resume)
  in
  let on_park = Some (fun k -> f.cont <- k) in
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
