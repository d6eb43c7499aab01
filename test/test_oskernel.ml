(* Tests for the legacy kernel I/O path. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bare = Net.Cost.bare_metal

let world () =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:bare () in
  (sim, fabric)

let kernel sim fabric ~index ?with_disk ?mode () =
  Baselines.Linux_apps.make_kernel sim fabric ~index ?with_disk ?mode ()

(* String payloads through the kernel's data calls: its one copy in
   blits the string, its one copy out makes a fresh one. *)
let of_string s b off = Bytes.blit_string s 0 b off (String.length s)
let send k fd s = Oskernel.Kernel.send k fd ~len:(String.length s) ~write:(of_string s)
let sendto k fd ~dst s = Oskernel.Kernel.sendto k fd ~dst ~len:(String.length s) ~write:(of_string s)
let append_sync k s = Oskernel.Kernel.append_sync k ~len:(String.length s) ~write:(of_string s)
let recv k fd ~block = Oskernel.Kernel.recv k fd ~block ~read:Bytes.sub_string
let recvfrom k fd ~block = Oskernel.Kernel.recvfrom k fd ~block ~read:Bytes.sub_string

let test_udp_roundtrip () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 () in
  let k2 = kernel sim fabric ~index:2 () in
  let got = ref None in
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.udp_socket k1 ~port:53 in
      match recvfrom k1 fd ~block:true with
      | Some (from, payload) ->
          got := Some payload;
          sendto k1 fd ~dst:from "reply"
      | None -> ());
  let reply = ref None in
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.udp_socket k2 ~port:54 in
      sendto k2 fd ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 53) "ping";
      match recvfrom k2 fd ~block:true with
      | Some (_, payload) -> reply := Some payload
      | None -> ());
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check (option string)) "server got" (Some "ping") !got;
  Alcotest.(check (option string)) "client got" (Some "reply") !reply

let test_tcp_roundtrip () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 () in
  let k2 = kernel sim fabric ~index:2 () in
  let got = ref "" in
  Engine.Fiber.spawn sim (fun () ->
      let lfd = Oskernel.Kernel.tcp_listen k1 ~port:80 in
      let fd = Oskernel.Kernel.accept k1 lfd in
      match recv k1 fd ~block:true with
      | Some payload ->
          got := payload;
          send k1 fd payload
      | None -> ());
  let echoed = ref "" in
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.connect k2 ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 80) in
      send k2 fd "kernel tcp";
      match recv k2 fd ~block:true with
      | Some payload -> echoed := payload
      | None -> ());
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  Alcotest.(check string) "server" "kernel tcp" !got;
  Alcotest.(check string) "client" "kernel tcp" !echoed

let test_kernel_copies_and_syscalls () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 () in
  let k2 = kernel sim fabric ~index:2 () in
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.udp_socket k1 ~port:53 in
      match recvfrom k1 fd ~block:true with
      | Some (from, payload) -> sendto k1 fd ~dst:from payload
      | None -> ());
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.udp_socket k2 ~port:54 in
      sendto k2 fd
        ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 53)
        (String.make 1000 'x');
      ignore (recvfrom k2 fd ~block:true));
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  (* Server copies the kB in (kernel->user) and out (user->kernel). *)
  let copied = (Memory.Heap.stats (Oskernel.Kernel.heap k1)).Memory.Heap.bytes_copied in
  check_bool "server copied at least 2kB" true (copied >= 2000);
  check_bool "syscalls counted" true (Oskernel.Kernel.syscalls k1 >= 3)

let test_uring_cheaper () =
  (* Same workload under posix and io_uring modes: uring finishes in
     less virtual time (cheaper crossings). *)
  let run mode =
    let sim, fabric = world () in
    let k1 = kernel sim fabric ~index:1 ~mode () in
    let k2 = kernel sim fabric ~index:2 ~mode () in
    let finish = ref 0 in
    Engine.Fiber.spawn sim (fun () ->
        let fd = Oskernel.Kernel.udp_socket k1 ~port:53 in
        let rec loop () =
          match recvfrom k1 fd ~block:true with
          | Some (from, payload) ->
              sendto k1 fd ~dst:from payload;
              loop ()
          | None -> loop ()
        in
        loop ());
    Engine.Fiber.spawn sim (fun () ->
        let fd = Oskernel.Kernel.udp_socket k2 ~port:54 in
        for _ = 1 to 20 do
          sendto k2 fd ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 53) "m";
          ignore (recvfrom k2 fd ~block:true)
        done;
        finish := Engine.Sim.now sim);
    Engine.Sim.run ~until:(Engine.Clock.s 2) sim;
    !finish
  in
  let posix = run Oskernel.Kernel.Posix in
  let uring = run Oskernel.Kernel.Uring in
  check_bool
    (Printf.sprintf "uring (%d) faster than posix (%d)" uring posix)
    true
    (uring < posix && uring > 0)

let test_append_sync_durable () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 ~with_disk:true () in
  let finished = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      append_sync k1 "durable record";
      finished := Engine.Sim.now sim);
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  (* write+fsync through ext4 to Optane: tens of microseconds. *)
  check_bool "took at least the device write" true (!finished > bare.Net.Cost.ssd_write_ns);
  check_bool "took the file-system cost too" true (!finished > bare.Net.Cost.kernel_file_ns)

let test_append_without_disk_fails () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 () in
  let failed = ref false in
  Engine.Fiber.spawn sim (fun () ->
      match append_sync k1 "x" with
      | () -> ()
      | exception Failure _ -> failed := true);
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_bool "raises without a disk" true !failed

let test_wait_readable_multiplexes () =
  let sim, fabric = world () in
  let k1 = kernel sim fabric ~index:1 () in
  let k2 = kernel sim fabric ~index:2 () in
  let served = ref 0 in
  Engine.Fiber.spawn sim (fun () ->
      let a = Oskernel.Kernel.udp_socket k1 ~port:10 in
      let b = Oskernel.Kernel.udp_socket k1 ~port:11 in
      let rec loop () =
        if !served < 2 then begin
          Oskernel.Kernel.wait_readable k1 [ a; b ];
          List.iter
            (fun fd ->
              match recvfrom k1 fd ~block:false with
              | Some _ -> incr served
              | None -> ())
            [ a; b ];
          loop ()
        end
      in
      loop ());
  Engine.Fiber.spawn sim (fun () ->
      let fd = Oskernel.Kernel.udp_socket k2 ~port:20 in
      sendto k2 fd ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 10) "a";
      Engine.Fiber.sleep sim 50_000;
      sendto k2 fd ~dst:(Net.Addr.endpoint (Net.Addr.Ip.of_index 1) 11) "b");
  Engine.Sim.run ~until:(Engine.Clock.s 1) sim;
  check_int "both sockets served through one wait loop" 2 !served

let suite =
  [
    Alcotest.test_case "kernel udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "kernel tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "kernel copies + syscall accounting" `Quick test_kernel_copies_and_syscalls;
    Alcotest.test_case "io_uring mode is cheaper" `Quick test_uring_cheaper;
    Alcotest.test_case "append_sync is durable and slow" `Quick test_append_sync_durable;
    Alcotest.test_case "append_sync without disk fails" `Quick test_append_without_disk_fails;
    Alcotest.test_case "wait_readable multiplexes" `Quick test_wait_readable_multiplexes;
  ]
