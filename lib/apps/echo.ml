open Demikernel

let server ?(port = 7) ?(persist = false) (api : Pdpix.api) =
  let lqd = api.Pdpix.socket Pdpix.Tcp in
  api.Pdpix.bind lqd (Net.Addr.endpoint 0 port);
  api.Pdpix.listen lqd ~backlog:64;
  let log = if persist then Some (api.Pdpix.open_log "echo.log") else None in
  let echo qd ~op:_ sga =
    (match log with
    | Some l -> (
        (* Synchronous persistence before the reply (Figure 7). *)
        match api.Pdpix.wait (api.Pdpix.push l sga) with
        | Pdpix.Pushed -> ()
        | _ -> failwith "echo: log append failed")
    | None -> ());
    let push_qt = api.Pdpix.push qd sga in
    match api.Pdpix.wait push_qt with
    | Pdpix.Pushed ->
        (* Ownership returned; UAF protection covers retransmits. *)
        List.iter api.Pdpix.free sga
    | Pdpix.Failed _ -> List.iter api.Pdpix.free sga
    | _ -> failwith "echo: unexpected push completion"
  in
  Serve.run api ~name:"echo" lqd ~conn:Fun.id ~on_data:echo

let payload_of_size api n = api.Pdpix.alloc_str (String.make (max 1 n) 'e')

let client ~dst ~msg_size ~count ?record ?on_done (api : Pdpix.api) =
  let qd = api.Pdpix.socket Pdpix.Tcp in
  (match api.Pdpix.wait (api.Pdpix.connect qd dst) with
  | Pdpix.Connected -> ()
  | Pdpix.Failed why -> failwith ("echo client: connect failed: " ^ why)
  | _ -> failwith "echo client: unexpected connect completion");
  let rec go n =
    if n > 0 then begin
      let start = api.Pdpix.clock () in
      let buf = payload_of_size api msg_size in
      (match api.Pdpix.wait (api.Pdpix.push qd [ buf ]) with
      | Pdpix.Pushed -> api.Pdpix.free buf
      | _ -> failwith "echo client: push failed");
      (* TCP may re-chunk the echo; pop until the whole message is
         back. *)
      let rec collect remaining =
        if remaining > 0 then
          match api.Pdpix.wait (api.Pdpix.pop qd) with
          | Pdpix.Popped (_ :: _ as sga) ->
              let n = Pdpix.sga_length sga in
              List.iter api.Pdpix.free sga;
              collect (remaining - n)
          | Pdpix.Popped [] -> failwith "echo client: server closed early"
          | _ -> failwith "echo client: pop failed"
      in
      collect (max 1 msg_size);
      (match record with Some f -> f (api.Pdpix.clock () - start) | None -> ());
      go (n - 1)
    end
  in
  go count;
  api.Pdpix.close qd;
  match on_done with Some f -> f () | None -> ()

let udp_server ?(port = 7) (api : Pdpix.api) =
  let qd = api.Pdpix.socket Pdpix.Udp in
  api.Pdpix.bind qd (Net.Addr.endpoint 0 port);
  let rec loop () =
    (match api.Pdpix.wait (api.Pdpix.pop qd) with
    | Pdpix.Popped_from (from, sga) ->
        (match api.Pdpix.wait (api.Pdpix.pushto qd from sga) with
        | Pdpix.Pushed -> List.iter api.Pdpix.free sga
        | _ -> failwith "udp echo: push failed")
    | Pdpix.Failed _ -> ()
    | _ -> failwith "udp echo: unexpected completion");
    loop ()
  in
  loop ()

let udp_client ~dst ~src_port ~msg_size ~count ?record ?on_done (api : Pdpix.api) =
  let qd = api.Pdpix.socket Pdpix.Udp in
  api.Pdpix.bind qd (Net.Addr.endpoint 0 src_port);
  let rec go n =
    if n > 0 then begin
      let start = api.Pdpix.clock () in
      let buf = payload_of_size api msg_size in
      (match api.Pdpix.wait (api.Pdpix.pushto qd dst [ buf ]) with
      | Pdpix.Pushed -> api.Pdpix.free buf
      | _ -> failwith "udp client: push failed");
      (match api.Pdpix.wait (api.Pdpix.pop qd) with
      | Pdpix.Popped_from (_, sga) -> List.iter api.Pdpix.free sga
      | _ -> failwith "udp client: pop failed");
      (match record with Some f -> f (api.Pdpix.clock () - start) | None -> ());
      go (n - 1)
    end
  in
  go count;
  match on_done with Some f -> f () | None -> ()

let stream_client ~dst ~msg_size ~count ~window ?on_done (api : Pdpix.api) =
  let qd = api.Pdpix.socket Pdpix.Tcp in
  (match api.Pdpix.wait (api.Pdpix.connect qd dst) with
  | Pdpix.Connected -> ()
  | _ -> failwith "stream client: connect failed");
  (* Keep [window] messages outstanding; count completions by bytes
     echoed back. *)
  let size = max 1 msg_size in
  let sent = ref 0 in
  let rx_bytes = ref 0 in
  let goal_bytes = count * size in
  let send_one () =
    let buf = payload_of_size api msg_size in
    let qt = api.Pdpix.push qd [ buf ] in
    incr sent;
    (qt, buf)
  in
  let outstanding_pushes = Queue.create () in
  (* Window is tracked in bytes because TCP pops re-chunk the stream. *)
  let rec fill () =
    if !sent < count && (!sent * size) - !rx_bytes < window * size then begin
      Queue.add (send_one ()) outstanding_pushes;
      fill ()
    end
  in
  fill ();
  let rec drain () =
    if !rx_bytes < goal_bytes then begin
      (* Retire completed pushes (freeing buffers) without blocking the
         pipeline: wait for the oldest push, then the next pop. *)
      (match Queue.take_opt outstanding_pushes with
      | Some (qt, buf) -> (
          match api.Pdpix.wait qt with
          | Pdpix.Pushed -> api.Pdpix.free buf
          | _ -> failwith "stream client: push failed")
      | None -> ());
      (match api.Pdpix.wait (api.Pdpix.pop qd) with
      | Pdpix.Popped (_ :: _ as sga) ->
          rx_bytes := !rx_bytes + Pdpix.sga_length sga;
          List.iter api.Pdpix.free sga
      | Pdpix.Popped [] -> failwith "stream client: eof"
      | _ -> failwith "stream client: pop failed");
      fill ();
      drain ()
    end
  in
  drain ();
  api.Pdpix.close qd;
  match on_done with Some f -> f () | None -> ()
