open Demikernel

type 'c role = Accept | Conn of Pdpix.qd * 'c

(* The outstanding tokens, in submission order: [wait_any] answers the
   lowest ready index, so this order decides which completion is served
   first. Entry [i] leaves either for its replacement (the array keeps
   its length and shifts in place) or with a resize (accept grows it by
   one, a close shrinks it by one). *)

let shift_out (qts : Pdpix.qtoken array) i =
  for j = i to Array.length qts - 2 do
    qts.(j) <- qts.(j + 1)
  done

let resize (qts : Pdpix.qtoken array) i ~extra =
  let n = Array.length qts in
  let out = Array.make (n - 1 + extra) 0 in
  Array.blit qts 0 out 0 i;
  Array.blit qts (i + 1) out i (n - 1 - i);
  out

let unexpected name = failwith (name ^ " server: unexpected completion")

let run (api : Pdpix.api) ~name lqd ~conn ~on_data =
  let roles = Hashtbl.create 16 in
  let qts = ref [| api.Pdpix.accept lqd |] in
  Hashtbl.replace roles !qts.(0) Accept;
  let rec loop () =
    let a = !qts in
    let i, completion = api.Pdpix.wait_any a in
    let qt = a.(i) in
    let role = Hashtbl.find roles qt in
    Hashtbl.remove roles qt;
    let last = Array.length a - 1 in
    (match role with
    | Accept -> (
        match completion with
        | Pdpix.Accepted qd ->
            let next = api.Pdpix.accept lqd in
            let c = conn qd in
            let pop = api.Pdpix.pop qd in
            let grown = resize a i ~extra:2 in
            grown.(last) <- next;
            grown.(last + 1) <- pop;
            Hashtbl.replace roles next Accept;
            Hashtbl.replace roles pop (Conn (qd, c));
            qts := grown
        | Pdpix.Failed _ -> qts := resize a i ~extra:0
        | _ -> unexpected name)
    | Conn (qd, c) -> (
        match completion with
        | Pdpix.Popped [] (* EOF *) | Pdpix.Failed _ ->
            api.Pdpix.close qd;
            qts := resize a i ~extra:0
        | Pdpix.Popped sga ->
            on_data c ~op:qt sga;
            let pop = api.Pdpix.pop qd in
            shift_out a i;
            a.(last) <- pop;
            Hashtbl.replace roles pop role
        | _ -> unexpected name));
    loop ()
  in
  loop ()
