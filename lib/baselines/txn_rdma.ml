(* Per-operation CPU beyond the raw verbs: QP-per-connection cache
   pressure and bookkeeping (the §6.2/§7.6 inefficiencies). *)
let qp_overhead_ns = 500

let charge sim ns = if ns > 0 then Engine.Fiber.sleep sim ns

let make_rnic fabric ~index =
  let rnic =
    Net.Rdma_sim.create fabric ~mac:(Net.Addr.Mac.of_index index)
      ~ip:(Net.Addr.Ip.of_index index) ()
  in
  for _ = 1 to 256 do
    Net.Rdma_sim.post_recv rnic
  done;
  rnic

let replica sim fabric ~index =
  let cost = Net.Fabric.cost fabric in
  let rnic = make_rnic fabric ~index in
  let store = Apps.Txnstore.create_store () in
  (* The store writes each reply here; the post gathers it at once, so
     one buffer, grown to the largest reply, serves them all. *)
  let reply = ref (Bytes.create 1024) in
  let serve =
    {
      Net.Rdma_sim.batch = ignore;
      send_done = ignore;
      recv =
        (fun ~src_mac ~imm frame ->
          Net.Rdma_sim.post_recv rnic;
          (* Copy in, process, copy out. *)
          let len = Memory.Heap.length frame in
          charge sim (cost.Net.Cost.rdma_poll_ns + qp_overhead_ns + Net.Cost.copy_cost_ns cost len);
          let n =
            Apps.Txnstore.apply store (Memory.Heap.data frame) (Memory.Heap.offset frame) len
          in
          Memory.Heap.free frame;
          if n > Bytes.length !reply then reply := Bytes.create n;
          Apps.Txnstore.write_reply store !reply 0;
          charge sim (cost.Net.Cost.rdma_post_ns + qp_overhead_ns + Net.Cost.copy_cost_ns cost n);
          Net.Rdma_sim.post_send rnic ~dst:src_mac ~wr_id:0 ~imm !reply 0 n);
      write_done = (fun ~wr_id:_ ~ok:_ -> ());
    }
  in
  Engine.Fiber.spawn sim ~name:"txn-rdma-replica" (fun () ->
      let rec loop () =
        if Net.Rdma_sim.drain_cq rnic ~max:16 serve = 0 then
          ignore (Engine.Condvar.wait_many sim [ Net.Rdma_sim.cq_signal rnic ] ~timeout:max_int);
        loop ()
      in
      loop ())

let ycsb_client sim fabric ~index ~replica_indexes ~keys ~value_size ~txns ~theta ~seed ~record
    ~on_done =
  let cost = Net.Fabric.cost fabric in
  let rnic = make_rnic fabric ~index in
  let replicas = Array.of_list (List.map Net.Addr.Mac.of_index replica_indexes) in
  Engine.Fiber.spawn sim ~name:"txn-rdma-client" (fun () ->
      let prng = Engine.Prng.create (Int64.of_int seed) in
      let next_key = Apps.Workload.zipfian prng ~n:keys ~theta in
      let value = String.make value_size 'w' in
      let next_rpc = ref 1 in
      (* The request ids still unanswered, and the frames of the answers
         so far, of the one [rpc_many] in progress. *)
      let pending = ref [] in
      let responses = ref [] in
      let collect =
        {
          Net.Rdma_sim.batch = ignore;
          send_done = ignore;
          recv =
            (fun ~src_mac:_ ~imm frame ->
              Net.Rdma_sim.post_recv rnic;
              charge sim
                (cost.Net.Cost.rdma_poll_ns + qp_overhead_ns
                + Net.Cost.copy_cost_ns cost (Memory.Heap.length frame));
              if List.mem imm !pending then begin
                pending := List.filter (fun i -> i <> imm) !pending;
                responses := frame :: !responses
              end
              else Memory.Heap.free frame);
          write_done = (fun ~wr_id:_ ~ok:_ -> ());
        }
      in
      (* Each request is written once into this buffer, grown to the
         largest request; every post gathers it at once. *)
      let req = ref (Bytes.create 1024) in
      let request len =
        if len > Bytes.length !req then req := Bytes.create len;
        !req
      in
      (* Send the [len]-byte request in [req] to each listed replica,
         then collect the matching responses (request ids ride the imm
         field) as their frames; the caller frees them. *)
      let rpc_many targets len =
        pending :=
          List.map
            (fun target ->
              let id = !next_rpc in
              next_rpc := !next_rpc + 1;
              charge sim
                (cost.Net.Cost.rdma_post_ns + qp_overhead_ns + Net.Cost.copy_cost_ns cost len);
              Net.Rdma_sim.post_send rnic ~dst:replicas.(target) ~wr_id:0 ~imm:id !req 0 len;
              id)
            targets;
        responses := [];
        let rec await () =
          if !pending <> [] then begin
            if Net.Rdma_sim.drain_cq rnic ~max:16 collect = 0 then
              ignore (Engine.Condvar.wait_many sim [ Net.Rdma_sim.cq_signal rnic ] ~timeout:max_int);
            await ()
          end
        in
        await ();
        !responses
      in
      let rr = ref 0 in
      let all = List.init (Array.length replicas) Fun.id in
      let get key =
        let target = !rr mod Array.length replicas in
        incr rr;
        let len = Apps.Txnstore.get_len key in
        Apps.Txnstore.write_get (request len) 0 key;
        match rpc_many [ target ] len with
        | [ frame ] ->
            let hit =
              Apps.Txnstore.parse_get_view (Memory.Heap.data frame) (Memory.Heap.offset frame)
                (Memory.Heap.length frame)
            in
            Memory.Heap.free frame;
            hit
        | frames ->
            List.iter Memory.Heap.free frames;
            None
      in
      let put key ~version v =
        let len = Apps.Txnstore.put_len key v in
        Apps.Txnstore.write_put (request len) 0 key ~version v;
        List.iter Memory.Heap.free (rpc_many all len)
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
