type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn sim ?(name = "fiber") fn =
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
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  register (fun v -> Effect.Deep.continue k v))
          | _ -> None);
    }
  in
  Sim.schedule sim ~delay:0 (fun () -> Effect.Deep.match_with fn () handler)

(* dlint-allow: transitive-alloc-in-hotpath -- fiber suspension: one resume closure per block/sleep, which is a scheduling transition, not steady-poll work *)
let sleep sim span =
  suspend (fun resume -> Sim.schedule sim ~delay:span (fun () -> resume ()))
