type entry = { path_suffix : string; rule : string; justification : string }

let copy = "unaccounted-copy"

(* Every entry is an audited decision: the file either models a DMA
   engine (a device moving bytes is not a host-CPU copy), performs the
   copy that its own cost/accounting layer charges, or serialises
   control metadata rather than payload. The TCP stack and interface
   are not listed: each of their copies carries its own inline
   dlint-allow saying whether it models device DMA or is an uncharged
   host copy of the simulator's representation, so a new copy there
   fails `dune runtest` until it is accounted or justified in place. *)
let entries =
  [
    {
      path_suffix = "lib/net/rdma_sim.ml";
      rule = copy;
      justification =
        "the RNIC device model: DMA engine moving bytes between registered regions \
         and the wire happens on the device, not the host CPU (the §2.1 offload split)";
    };
    {
      path_suffix = "lib/net/ssd_sim.ml";
      rule = copy;
      justification =
        "the NVMe device model: flash DMA on submission/completion, device-side by \
         definition";
    };
    {
      path_suffix = "lib/demikernel/catnap.ml";
      rule = copy;
      justification =
        "Catnap is the copy-based kernel-crossing libOS; its payload copies are the \
         measured overhead and are accounted by Oskernel.Kernel's charge_copy";
    };
    {
      path_suffix = "lib/demikernel/cattree.ml";
      rule = copy;
      justification =
        "frames log records for the storage write path; the device-side cost is \
         charged by Ssd_sim";
    };
  ]

let covers e ~path =
  let n = String.length path and m = String.length e.path_suffix in
  n >= m && String.sub path (n - m) m = e.path_suffix

let find ~path ~rule = List.find_opt (fun e -> e.rule = rule && covers e ~path) entries
