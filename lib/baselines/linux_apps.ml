module K = Oskernel.Kernel

let make_kernel sim fabric ~index ?(with_disk = false) ?(mode = K.Posix) () =
  let cost = Net.Fabric.cost fabric in
  let nic =
    Net.Dpdk_sim.create fabric ~mac:(Net.Addr.Mac.of_index index)
      ~ip:(Net.Addr.Ip.of_index index) ()
  in
  let ssd = if with_disk then Some (Net.Ssd_sim.create sim ~cost ~capacity:(1 lsl 30)) else None in
  K.create sim ~cost ~nic ?ssd ~mode ()

(* ---------- echo ---------- *)

let echo_udp_server sim kernel ~port ~persist =
  Engine.Fiber.spawn sim ~name:"linux-udp-echo" (fun () ->
      let fd = K.udp_socket kernel ~port in
      let rec loop () =
        (match K.recvfrom kernel fd ~block:true with
        | Some (from, payload) ->
            if persist then K.append_sync kernel payload;
            K.sendto kernel fd ~dst:from payload
        | None -> ());
        loop ()
      in
      loop ())

let echo_udp_client sim kernel ~dst ~src_port ~msg_size ~count ~record ~on_done =
  Engine.Fiber.spawn sim ~name:"linux-udp-echo-client" (fun () ->
      let fd = K.udp_socket kernel ~port:src_port in
      let payload = String.make (max 1 msg_size) 'e' in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          K.sendto kernel fd ~dst payload;
          (match K.recvfrom kernel fd ~block:true with
          | Some _ -> ()
          | None -> failwith "linux echo client: no reply");
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go count;
      on_done ())

let echo_tcp_server sim kernel ~port ~persist =
  Engine.Fiber.spawn sim ~name:"linux-tcp-echo" (fun () ->
      let lfd = K.tcp_listen kernel ~port in
      let fd = K.accept kernel lfd in
      let rec loop () =
        match K.recv kernel fd ~block:true with
        | Some payload ->
            if persist then K.append_sync kernel payload;
            K.send kernel fd payload;
            loop ()
        | None -> if not (K.at_eof kernel fd) then loop ()
      in
      loop ())

let echo_tcp_client sim kernel ~dst ~msg_size ~count ~record ~on_done =
  Engine.Fiber.spawn sim ~name:"linux-tcp-echo-client" (fun () ->
      let fd = K.connect kernel ~dst in
      let size = max 1 msg_size in
      let payload = String.make size 'e' in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          K.send kernel fd payload;
          let rec collect remaining =
            if remaining > 0 then
              match K.recv kernel fd ~block:true with
              | Some chunk -> collect (remaining - String.length chunk)
              | None -> failwith "linux tcp echo client: connection lost"
          in
          collect size;
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go count;
      on_done ())

(* ---------- UDP relay ---------- *)

let relay_server sim kernel ~port =
  Engine.Fiber.spawn sim ~name:"linux-relay" (fun () ->
      let fd = K.udp_socket kernel ~port in
      let sessions : (int, Net.Addr.endpoint) Hashtbl.t = Hashtbl.create 64 in
      let rec loop () =
        (match K.recvfrom kernel fd ~block:true with
        | Some (from, payload) when String.length payload >= 5 ->
            let b = Bytes.unsafe_of_string payload in
            let session = Net.Wire.get_u32 b 0 in
            let op = Net.Wire.get_u8 b 4 in
            if op = 0 then Hashtbl.replace sessions session from
            else (
              match Hashtbl.find_opt sessions session with
              | Some receiver -> K.sendto kernel fd ~dst:receiver payload
              | None -> ())
        | Some _ | None -> ());
        loop ()
      in
      loop ())

let relay_generator sim kernel ~dst ~src_port ~session ~msg_size ~count ~record ~on_done =
  Engine.Fiber.spawn sim ~name:"linux-relay-generator" (fun () ->
      let fd = K.udp_socket kernel ~port:src_port in
      let packet op =
        let b = Bytes.make (max 5 msg_size) 'g' in
        Net.Wire.set_u32 b 0 session;
        Net.Wire.set_u8 b 4 op;
        Bytes.unsafe_to_string b
      in
      K.sendto kernel fd ~dst (String.sub (packet 0) 0 5) (* register *);
      let payload = packet 1 in
      let rec go n =
        if n > 0 then begin
          let start = Engine.Sim.now sim in
          K.sendto kernel fd ~dst payload;
          (match K.recvfrom kernel fd ~block:true with
          | Some _ -> ()
          | None -> failwith "relay generator: no relayed packet");
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go count;
      on_done ())

(* ---------- KV store ---------- *)

let kv_server sim kernel ~port ~persist =
  Engine.Fiber.spawn sim ~name:"linux-kv" (fun () ->
      let lfd = K.tcp_listen kernel ~port in
      let store : (string, string) Hashtbl.t = Hashtbl.create 1024 in
      let conns : (K.fd * Apps.Framing.accum) list ref = ref [] in
      let handle fd msg =
        let response =
          match Apps.Dkv.parse_command msg with
          | Some (Apps.Dkv.Get, key, _) -> (
              match Hashtbl.find_opt store key with
              | Some value -> Apps.Dkv.encode_response Apps.Dkv.Ok ~value
              | None -> Apps.Dkv.encode_response Apps.Dkv.Not_found ~value:"")
          | Some (Apps.Dkv.Set, key, value) ->
              if persist then K.append_sync kernel msg;
              Hashtbl.replace store key value;
              Apps.Dkv.encode_response Apps.Dkv.Ok ~value:""
          | Some (Apps.Dkv.Del, key, _) ->
              if Hashtbl.mem store key then begin
                Hashtbl.remove store key;
                Apps.Dkv.encode_response Apps.Dkv.Ok ~value:""
              end
              else Apps.Dkv.encode_response Apps.Dkv.Not_found ~value:""
          | None -> Apps.Dkv.encode_response Apps.Dkv.Error ~value:""
        in
        K.send kernel fd (Apps.Framing.encode response)
      in
      (* epoll event loop: one wait, then syscalls only on ready fds. *)
      let rec loop () =
        K.wait_readable kernel (lfd :: List.map fst !conns);
        (if K.ready kernel lfd then
           match K.try_accept kernel lfd with
           | Some fd -> conns := (fd, Apps.Framing.create ()) :: !conns
           | None -> ());
        List.iter
          (fun (fd, acc) ->
            if K.ready kernel fd then
              match K.recv kernel fd ~block:false with
              | Some chunk ->
                  Apps.Framing.feed acc chunk;
                  let rec drain () =
                    match Apps.Framing.next acc with
                    | Some msg ->
                        handle fd msg;
                        drain ()
                    | None -> ()
                  in
                  drain ()
              | None -> ())
          !conns;
        loop ()
      in
      loop ())

(* Blocking framed receive over a kernel TCP connection. *)
let recv_framed kernel fd acc =
  let rec go () =
    match Apps.Framing.next acc with
    | Some msg -> Some msg
    | None -> (
        match K.recv kernel fd ~block:true with
        | Some chunk ->
            Apps.Framing.feed acc chunk;
            go ()
        | None -> if K.at_eof kernel fd then None else go ())
  in
  go ()

let kv_bench_client sim kernel ~dst ~keys ~value_size ~ops ~kind ~seed ~on_start ~record
    ~on_done =
  Engine.Fiber.spawn sim ~name:"linux-kv-client" (fun () ->
      let fd = K.connect kernel ~dst in
      let acc = Apps.Framing.create () in
      let prng = Engine.Prng.create (Int64.of_int seed) in
      let value = String.make value_size 'v' in
      let key_of i = Printf.sprintf "key:%012d" i in
      let roundtrip cmd key value =
        K.send kernel fd (Apps.Framing.encode (Apps.Dkv.encode_command cmd ~key ~value));
        match recv_framed kernel fd acc with
        | Some resp -> Apps.Dkv.parse_response resp
        | None -> None
      in
      (if kind = `Get then
         for i = 0 to keys - 1 do
           ignore (roundtrip Apps.Dkv.Set (key_of i) value)
         done);
      on_start ();
      let rec go n =
        if n > 0 then begin
          let key = key_of (Engine.Prng.int prng keys) in
          let start = Engine.Sim.now sim in
          (match kind with
          | `Get -> ignore (roundtrip Apps.Dkv.Get key "")
          | `Set -> ignore (roundtrip Apps.Dkv.Set key value));
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go ops;
      on_done ())

(* ---------- TxnStore ---------- *)

let txn_handle store msg =
  Apps.Txnstore.handle_request ~store (Bytes.unsafe_of_string msg) 0 (String.length msg)

let txn_replica sim kernel ~port =
  Engine.Fiber.spawn sim ~name:"linux-txn-replica" (fun () ->
      let lfd = K.tcp_listen kernel ~port in
      let fd = K.accept kernel lfd in
      let store : (string, int * string) Hashtbl.t = Hashtbl.create 1024 in
      let acc = Apps.Framing.create () in
      let rec loop () =
        match recv_framed kernel fd acc with
        | Some msg ->
            K.send kernel fd (Apps.Framing.encode (txn_handle store msg));
            loop ()
        | None -> ()
      in
      loop ())

let txn_replica_udp sim kernel ~port =
  Engine.Fiber.spawn sim ~name:"linux-txn-replica-udp" (fun () ->
      let fd = K.udp_socket kernel ~port in
      let store : (string, int * string) Hashtbl.t = Hashtbl.create 1024 in
      let rec loop () =
        (match K.recvfrom kernel fd ~block:true with
        | Some (from, msg) ->
            K.sendto kernel fd ~dst:from (txn_handle store msg)
        | None -> ());
        loop ()
      in
      loop ())

let txn_ycsb_client ?(transport = `Tcp) sim kernel ~replicas ~keys ~value_size ~txns ~theta
    ~seed ~record ~on_done =
  Engine.Fiber.spawn sim ~name:"linux-txn-client" (fun () ->
      let replica_arr = Array.of_list replicas in
      let tcp_conns =
        match transport with
        | `Tcp ->
            Some
              (Array.map (fun dst -> (K.connect kernel ~dst, Apps.Framing.create ())) replica_arr)
        | `Udp -> None
      in
      let udp_fd =
        match transport with `Udp -> Some (K.udp_socket kernel ~port:5999) | `Tcp -> None
      in
      let prng = Engine.Prng.create (Int64.of_int seed) in
      let next_key = Apps.Workload.zipfian prng ~n:keys ~theta in
      let value = String.make value_size 'w' in
      let rr = ref 0 in
      let rpc_one i msg =
        match (tcp_conns, udp_fd) with
        | Some conns, _ ->
            let fd, acc = conns.(i) in
            K.send kernel fd (Apps.Framing.encode msg);
            recv_framed kernel fd acc
        | None, Some fd -> (
            K.sendto kernel fd ~dst:replica_arr.(i) msg;
            match K.recvfrom kernel fd ~block:true with
            | Some (_, resp) -> Some resp
            | None -> None)
        | None, None -> assert false
      in
      let get key =
        let i = !rr mod Array.length replica_arr in
        incr rr;
        match rpc_one i (Apps.Txnstore.encode_get key) with
        | Some resp -> Apps.Txnstore.parse_get_response resp
        | None -> None
      in
      let put key ~version v =
        let msg = Apps.Txnstore.encode_put key ~version v in
        match (tcp_conns, udp_fd) with
        | Some conns, _ ->
            Array.iter (fun (fd, _) -> K.send kernel fd (Apps.Framing.encode msg)) conns;
            Array.iter (fun (fd, acc) -> ignore (recv_framed kernel fd acc)) conns
        | None, Some fd ->
            (* Overlap the three replications: all sends, then all acks. *)
            Array.iter (fun dst -> K.sendto kernel fd ~dst msg) replica_arr;
            Array.iter (fun _ -> ignore (K.recvfrom kernel fd ~block:true)) replica_arr
        | None, None -> assert false
      in
      for i = 0 to keys - 1 do
        put (Apps.Workload.key_name i) ~version:1 value
      done;
      let rec go n =
        if n > 0 then begin
          let key = Apps.Workload.key_name (next_key ()) in
          let start = Engine.Sim.now sim in
          let version = match get key with Some (v, _) -> v | None -> 0 in
          put key ~version:(version + 1) value;
          record (Engine.Sim.now sim - start);
          go (n - 1)
        end
      in
      go txns;
      on_done ())
