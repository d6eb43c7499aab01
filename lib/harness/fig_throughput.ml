open Demikernel

type netpipe_row = { system : string; msg_size : int; gbps : float }

let bandwidth_gbps ~msg_size ~rtt_ns =
  (* NetPIPE: one block in flight each way; bandwidth = 2*size/RTT. *)
  2. *. float_of_int (msg_size * 8) /. float_of_int rtt_ns

let best_rtt hist = max 1 (Metrics.Hdr.min hist)

let netpipe_count = 40

let fig8 ?(sizes = [ 64; 1024; 4096; 16384; 65536; 262144 ]) () =
  let measure system f =
    List.map
      (fun msg_size ->
        let hist = f msg_size in
        { system; msg_size; gbps = bandwidth_gbps ~msg_size ~rtt_ns:(best_rtt hist) })
      sizes
  in
  measure "Raw DPDK" (fun msg_size -> Common.raw_dpdk_rtt ~msg_size ~count:netpipe_count ())
  @ measure "Raw RDMA" (fun msg_size -> Common.raw_rdma_rtt ~msg_size ~count:netpipe_count ())
  @ measure "Catmint" (fun msg_size ->
        Observe.demi_echo_rtt ~msg_size ~count:netpipe_count ~proto:Common.Echo_tcp
          Demikernel.Boot.Catmint_os)
  @ (let udp_sizes = List.filter (fun s -> s <= 65_507) sizes @ [ 65_507 ] in
     List.map
       (fun msg_size ->
         let hist =
           Observe.demi_echo_rtt ~msg_size ~count:netpipe_count ~proto:Common.Echo_udp
             Demikernel.Boot.Catnip_os
         in
         { system = "Catnip (UDP)"; msg_size; gbps = bandwidth_gbps ~msg_size ~rtt_ns:(best_rtt hist) })
       udp_sizes)
  @ measure "Catnip (TCP)" (fun msg_size ->
        Observe.demi_echo_rtt ~msg_size ~count:netpipe_count ~proto:Common.Echo_tcp
          Demikernel.Boot.Catnip_os)

let print_fig8 rows =
  let table =
    Metrics.Table.create ~title:"Figure 8: NetPIPE single-stream bandwidth"
      ~columns:[ "system"; "msg size"; "Gbps" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [ r.system; string_of_int r.msg_size; Metrics.Table.cell_f r.gbps ])
    rows;
  Metrics.Table.print table

(* ---------- Figure 9 ---------- *)

type load_row = {
  system : string;
  offered_kops : float;
  achieved_kops : float;
  p50_ns : int;
  p99_ns : int;
}

(* Open-loop load generator as a PDPIX application: paced sends with
   embedded timestamps against an echo server, latency measured on the
   way back. Single coroutine; wait_any_t interleaves receive completions
   with the send schedule. *)
let demi_open_loop ?cost ?catmint_window ~flavor ~proto ~msg_size ~rate_per_sec ~duration_ns
    () =
  let w = Common.make_world ?cost () in
  let server =
    Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:1 ?catmint_window flavor
  in
  let client =
    Demikernel.Boot.make w.Common.sim w.Common.fabric ~index:2 ?catmint_window flavor
  in
  (match proto with
  | Common.Echo_tcp -> Demikernel.Boot.run_app server (Apps.Echo.server ~port:7)
  | Common.Echo_udp -> Demikernel.Boot.run_app server (Apps.Echo.udp_server ~port:7));
  let hist = Metrics.Hdr.create () in
  let received = ref 0 in
  Demikernel.Boot.run_app client (fun api ->
      let prng = Engine.Prng.create 77L in
      let start = api.Pdpix.clock () in
      let deadline = start + duration_ns in
      let grace = deadline + 500_000 in
      let next_send = ref start in
      let tail = String.make (max 0 (msg_size - 8)) 'o' in
      let payload now =
        let b = Bytes.create 8 in
        Net.Wire.set_u48 b 0 (now - start);
        Net.Wire.set_u16 b 6 0;
        Bytes.unsafe_to_string b ^ tail
      in
      let record_echo msg =
        if String.length msg >= 8 then begin
          let ts = Net.Wire.get_u48 (Bytes.unsafe_of_string msg) 0 in
          Metrics.Hdr.add hist (api.Pdpix.clock () - (start + ts));
          incr received
        end
      in
      let gap () =
        max 1 (int_of_float (Engine.Prng.exponential prng (1e9 /. rate_per_sec)))
      in
      match proto with
      | Common.Echo_udp ->
          let qd = api.Pdpix.socket Pdpix.Udp in
          api.Pdpix.bind qd (Net.Addr.endpoint 0 5001);
          let dst = Demikernel.Boot.endpoint server 7 in
          let pop = ref (api.Pdpix.pop qd) in
          let rec loop () =
            let now = api.Pdpix.clock () in
            if now < grace then begin
              if now >= !next_send && now < deadline then begin
                let buf = api.Pdpix.alloc_str (payload now) in
                (match api.Pdpix.wait (api.Pdpix.pushto qd dst [ buf ]) with
                | Pdpix.Pushed -> api.Pdpix.free buf
                | _ -> failwith "loadgen: push failed");
                next_send := !next_send + gap ()
              end
              else begin
                let wake = if now < deadline then min !next_send grace else grace in
                match api.Pdpix.wait_any_t [| !pop |] ~timeout_ns:(max 1 (wake - now)) with
                | Some (_, Pdpix.Popped_from (_, sga)) ->
                    record_echo (Pdpix.sga_to_string sga);
                    List.iter api.Pdpix.free sga;
                    pop := api.Pdpix.pop qd
                | Some _ -> failwith "loadgen: unexpected completion"
                | None -> ()
              end;
              loop ()
            end
          in
          loop ()
      | Common.Echo_tcp ->
          let qd = api.Pdpix.socket Pdpix.Tcp in
          (match api.Pdpix.wait (api.Pdpix.connect qd (Demikernel.Boot.endpoint server 7)) with
          | Pdpix.Connected -> ()
          | _ -> failwith "loadgen: connect failed");
          (* Fixed-size messages: reassemble by size on the way back. *)
          let acc = Buffer.create 1024 in
          let size = max 8 msg_size in
          let pop = ref (api.Pdpix.pop qd) in
          (* Each sent buffer stays owned by the libOS until its push
             token completes, so retirement (and the free) rides the
             same wait_any_t the receive path blocks on — the send
             pace never gates on push completions. Pushes on one
             connection complete in order, so the oldest unretired one
             is the only one that can complete next: the wait set is
             the pop and the head of a FIFO. *)
          let unretired = Queue.create () in
          let rec loop () =
            let now = api.Pdpix.clock () in
            if now < grace then begin
              if now >= !next_send && now < deadline then begin
                let buf = api.Pdpix.alloc_str (payload now) in
                Queue.add (api.Pdpix.push qd [ buf ], buf) unretired;
                next_send := !next_send + gap ()
              end
              else begin
                let wake = if now < deadline then min !next_send grace else grace in
                let qts =
                  match Queue.peek_opt unretired with
                  | Some (oldest, _) -> [| !pop; oldest |]
                  | None -> [| !pop |]
                in
                match api.Pdpix.wait_any_t qts ~timeout_ns:(max 1 (wake - now)) with
                | Some (0, Pdpix.Popped (_ :: _ as sga)) ->
                    Buffer.add_string acc (Pdpix.sga_to_string sga);
                    List.iter api.Pdpix.free sga;
                    let rec extract () =
                      if Buffer.length acc >= size then begin
                        let contents = Buffer.contents acc in
                        record_echo (String.sub contents 0 size);
                        Buffer.clear acc;
                        Buffer.add_substring acc contents size (String.length contents - size);
                        extract ()
                      end
                    in
                    extract ();
                    pop := api.Pdpix.pop qd
                | Some (0, _) -> failwith "loadgen: connection lost"
                | Some (_, Pdpix.Pushed) -> api.Pdpix.free (snd (Queue.pop unretired))
                | Some (_, _) -> failwith "loadgen: push failed"
                | None -> ()
              end;
              loop ()
            end
          in
          loop ());
  Demikernel.Boot.start server;
  Demikernel.Boot.start client;
  Common.run_world w;
  (* Armed by the heap sanitizer, the ownership oracle has watched both
     apps; a finding fails the point. *)
  (match Demikernel.Boot.ownership_findings server @ Demikernel.Boot.ownership_findings client with
  | [] -> ()
  | v :: _ -> failwith (Format.asprintf "loadgen: %a" Pdpix.pp_ownership_violation v));
  {
    Baselines.Kb_lib.offered_per_sec = rate_per_sec;
    achieved_per_sec = float_of_int !received /. (float_of_int duration_ns /. 1e9);
    latencies = hist;
  }

let kb_open_loop ?cost profile ~msg_size ~rate_per_sec ~duration_ns () =
  let w = Common.make_world ?cost () in
  let result = ref None in
  Baselines.Kb_lib.echo_open_loop profile w.Common.sim w.Common.fabric ~server_index:1
    ~client_index:2 ~msg_size ~rate_per_sec ~duration_ns (fun r -> result := Some r);
  Common.run_world w;
  match !result with Some r -> r | None -> failwith "open loop did not finish"

(* Offered loads in requests/second. *)
let rates =
  [
    100_000.; 250_000.; 500_000.; 750_000.; 1_000_000.; 1_250_000.; 1_500_000.; 2_000_000.;
    2_500_000.;
  ]

let fig9 ?(duration_ms = 20) () =
  let duration_ns = duration_ms * 1_000_000 in
  let msg_size = 64 in
  let point system (r : Baselines.Kb_lib.load_result) =
    {
      system;
      offered_kops = r.Baselines.Kb_lib.offered_per_sec /. 1e3;
      achieved_kops = r.Baselines.Kb_lib.achieved_per_sec /. 1e3;
      p50_ns = Metrics.Hdr.p50 r.Baselines.Kb_lib.latencies;
      p99_ns = Metrics.Hdr.p99 r.Baselines.Kb_lib.latencies;
    }
  in
  List.concat_map
    (fun rate ->
      [
        point "Catmint"
          (demi_open_loop ~flavor:Demikernel.Boot.Catmint_os ~proto:Common.Echo_tcp ~msg_size
             ~rate_per_sec:rate ~duration_ns ());
        point "Catnip (UDP)"
          (demi_open_loop ~flavor:Demikernel.Boot.Catnip_os ~proto:Common.Echo_udp ~msg_size
             ~rate_per_sec:rate ~duration_ns ());
        point "Catnip (TCP)"
          (demi_open_loop ~flavor:Demikernel.Boot.Catnip_os ~proto:Common.Echo_tcp ~msg_size
             ~rate_per_sec:rate ~duration_ns ());
        point "eRPC"
          (kb_open_loop Baselines.Kb_lib.erpc ~msg_size ~rate_per_sec:rate ~duration_ns ());
        point "Shenango"
          (kb_open_loop Baselines.Kb_lib.shenango ~msg_size ~rate_per_sec:rate ~duration_ns ());
        point "Caladan"
          (kb_open_loop Baselines.Kb_lib.caladan ~msg_size ~rate_per_sec:rate ~duration_ns ());
      ])
    rates

let print_fig9 rows =
  let table =
    Metrics.Table.create ~title:"Figure 9: latency vs offered load (64B echo)"
      ~columns:[ "system"; "offered kops"; "achieved kops"; "p50"; "p99" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          r.system;
          Metrics.Table.cell_f ~decimals:0 r.offered_kops;
          Metrics.Table.cell_f ~decimals:0 r.achieved_kops;
          Metrics.Table.cell_ns r.p50_ns;
          Metrics.Table.cell_ns r.p99_ns;
        ])
    rows;
  Metrics.Table.print table
