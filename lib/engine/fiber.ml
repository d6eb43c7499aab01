type _ Effect.t += Sleep : unit Effect.t | Park : unit Effect.t

let continue_fiber sim (f : Sim.fiber) =
  let k = f.cont in
  if k == Sim.no_cont then invalid_arg "Fiber: resume of a fiber that is not parked";
  f.cont <- Sim.no_cont;
  Sim.set_running sim f;
  Effect.Deep.continue k ()

(* The wakeup rule of a park: only the first of its events to run while
   the fiber is still in generation [g] ends it, bumping the
   generation. *)
let end_park sim (f : Sim.fiber) g signaled =
  if f.gen = g then begin
    f.gen <- g + 1;
    f.signaled <- signaled;
    continue_fiber sim f
  end

(* Everything a suspension needs is built here, once per fiber: the
   record, its three event callbacks and the [Some] handlers [effc]
   returns. A sleep or a park then allocates only the continuation the
   effect runtime captures, parked in a plain field. *)
let spawn sim ?(name = "fiber") fn =
  let rec f =
    {
      Sim.cont = Sim.no_cont;
      gen = 0;
      signaled = false;
      resume = (fun _ -> continue_fiber sim f);
      wake = (fun g -> end_park sim f g true);
      timeout = (fun g -> end_park sim f g false);
    }
  in
  let on_sleep =
    Some
      (fun k ->
        f.cont <- k;
        Sim.schedule sim ~delay:(Sim.sleep_span sim) f.resume 0)
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
  Sim.schedule sim ~delay:0
    (fun _ ->
      Sim.set_running sim f;
      Effect.Deep.match_with fn () handler)
    0

let sleep sim span =
  Sim.set_sleep_span sim span;
  Effect.perform Sleep

let park () = Effect.perform Park
