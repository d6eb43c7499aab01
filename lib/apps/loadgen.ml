open Demikernel

(* ---------- the schedule ---------- *)

type op_kind = Get | Set

type op = { at_ns : int; kind : op_kind; key : int }

type plan = {
  gap : unit -> int;
  zipf : unit -> int;
  prng : Engine.Prng.t;
  get_ratio : float;
  mutable at : int;
}

let plan ~prng ~rate_per_sec ~keys ~theta ~get_ratio ~start_ns =
  let gap = Workload.poisson_interarrival prng ~rate_per_sec in
  let zipf = Workload.zipfian prng ~n:keys ~theta in
  { gap; zipf; prng; get_ratio; at = start_ns + gap () }

let peek_at pl = pl.at

let next pl =
  let at = pl.at in
  let kind = if Engine.Prng.float pl.prng < pl.get_ratio then Get else Set in
  let key = pl.zipf () in
  pl.at <- at + pl.gap ();
  { at_ns = at; kind; key }

(* ---------- request encoding ---------- *)

type target = Kv | Txn

let encode_request target ~kind ~key ~value =
  match (target, kind) with
  | Kv, Get -> Dkv.encode_command Dkv.Get ~key ~value:""
  | Kv, Set -> Dkv.encode_command Dkv.Set ~key ~value
  | Txn, Get -> Txnstore.encode_get key
  | Txn, Set -> Txnstore.encode_put key ~version:1 value

(* ---------- the PDPIX runner ---------- *)

type stats = {
  issued : int;
  completed : int;
  reconnects : int;
  latencies : Metrics.Hdr.t;
}

(* Per-connection client state. Responses arrive in request order on a
   TCP stream, so a FIFO of scheduled times pairs each complete framed
   response with its operation. *)
type lg_conn = {
  mutable qd : Pdpix.qd;
  mutable acc : Framing.accum;
  pending : int Queue.t; (* scheduled at_ns of in-flight requests *)
  mutable pop : Pdpix.qtoken;
  mutable unretired : (Pdpix.qtoken * Memory.Heap.buffer) list;
  mutable since_birth : int; (* completed ops on this incarnation *)
}

let run ~dst ?(target = Kv) ?(conns = 4) ?(keys = 256) ?(value_size = 32) ?(theta = 0.99)
    ?(get_ratio = 0.5) ?(churn_every = 0) ?(seed = 4242) ~rate_per_sec ~duration_ns ?on_done
    api =
  let prng = Engine.Prng.create (Int64.of_int seed) in
  let start = api.Pdpix.clock () in
  let pl = plan ~prng ~rate_per_sec ~keys ~theta ~get_ratio ~start_ns:start in
  let deadline = start + duration_ns in
  let grace = deadline + 2_000_000 in
  let latencies = Metrics.Hdr.create () in
  let issued = ref 0 and completed = ref 0 and reconnects = ref 0 in
  let value = String.make value_size 'v' in
  let connect () =
    let qd = api.Pdpix.socket Pdpix.Tcp in
    match api.Pdpix.wait (api.Pdpix.connect qd dst) with
    | Pdpix.Connected -> qd
    | Pdpix.Failed reason -> failwith ("loadgen: connect failed: " ^ reason)
    | _ -> failwith "loadgen: unexpected connect completion"
  in
  let states =
    Array.init conns (fun _ ->
        let qd = connect () in
        {
          qd;
          acc = Framing.create ();
          pending = Queue.create ();
          pop = api.Pdpix.pop qd;
          unretired = [];
          since_birth = 0;
        })
  in
  let rr = ref 0 in
  let issue o =
    let st = states.(!rr) in
    rr := (!rr + 1) mod conns;
    let body =
      encode_request target ~kind:o.kind ~key:(Workload.key_name o.key) ~value
    in
    let buf = api.Pdpix.alloc_str (Framing.encode body) in
    let qt = api.Pdpix.push st.qd [ buf ] in
    st.unretired <- (qt, buf) :: st.unretired;
    Queue.add o.at_ns st.pending;
    incr issued
  in
  (* Churn: retire this incarnation once it has no in-flight work, and
     open a fresh connection in its place — a new TCB arena slot. *)
  let maybe_churn st =
    if
      churn_every > 0
      && st.since_birth >= churn_every
      && Queue.is_empty st.pending
      && st.unretired = []
    then begin
      api.Pdpix.close st.qd;
      let qd = connect () in
      st.qd <- qd;
      st.acc <- Framing.create ();
      st.pop <- api.Pdpix.pop qd;
      st.since_birth <- 0;
      incr reconnects
    end
  in
  let on_pop st sga =
    (match sga with
    | [] -> failwith "loadgen: server closed the connection"
    | _ :: _ ->
        Framing.feed st.acc (Pdpix.sga_to_string sga);
        List.iter api.Pdpix.free sga);
    let rec drain () =
      match Framing.next st.acc with
      | Some _response ->
          (match Queue.take_opt st.pending with
          | Some at ->
              Metrics.Hdr.add latencies (api.Pdpix.clock () - at);
              incr completed;
              st.since_birth <- st.since_birth + 1
          | None -> failwith "loadgen: response with no request in flight");
          drain ()
      | None -> ()
    in
    drain ();
    maybe_churn st;
    st.pop <- api.Pdpix.pop st.qd
  in
  let rec loop () =
    let now = api.Pdpix.clock () in
    if now < grace then begin
      if peek_at pl <= now && now < deadline then issue (next pl)
      else begin
        (* Wait for any completion, but never past the next scheduled
           send (the open-loop pace) or the grace deadline. *)
        let owners =
          Array.of_list
            (Array.to_list states
            |> List.concat_map (fun st ->
                   (st.pop, (st, None))
                   :: List.map (fun (qt, buf) -> (qt, (st, Some (qt, buf)))) st.unretired))
        in
        let tokens = Array.map fst owners in
        let wake = if now < deadline then min (peek_at pl) grace else grace in
        match api.Pdpix.wait_any_t tokens ~timeout_ns:(max 1 (wake - now)) with
        | None -> ()
        | Some (i, completion) -> (
            let st, role = snd owners.(i) in
            match (role, completion) with
            | None, Pdpix.Popped sga -> on_pop st sga
            | None, Pdpix.Failed reason -> failwith ("loadgen: pop failed: " ^ reason)
            | Some (qt, buf), Pdpix.Pushed ->
                api.Pdpix.free buf;
                st.unretired <- List.filter (fun (q, _) -> q <> qt) st.unretired;
                maybe_churn st
            | Some (_, _), Pdpix.Failed reason ->
                failwith ("loadgen: push failed: " ^ reason)
            | _, _ -> failwith "loadgen: unexpected completion")
      end;
      loop ()
    end
  in
  loop ();
  Array.iter (fun st -> api.Pdpix.close st.qd) states;
  match on_done with
  | Some f -> f { issued = !issued; completed = !completed; reconnects = !reconnects; latencies }
  | None -> ()
