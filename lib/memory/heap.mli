(** The DMA-capable heap (§5.3).

    A Hoard-style pool allocator: memory comes in superblocks of
    fixed-size objects, with a LIFO free list per superblock. The
    superblock header carries everything zero-copy I/O coordination
    needs:

    - per-object reference state — one bit for the application
      reference and one counter for the libOS references (a buffer
      split into several TCP segments holds one per queued segment);
    - DMA registration state (an rkey), assigned either eagerly at
      superblock creation (DPDK/SPDK pool-backed mode) or lazily on the
      first [rkey] call (RDMA register-on-demand mode).

    Use-after-free protection falls out of that state: an object returns
    to the free list only when {e both} the application and the libOS
    have released it. *)

type t

type buffer
(** A handle to one allocated object. The payload lives in [data]
    between [offset] and [offset + length]; the space before [offset] is
    headroom that network stacks use to prepend headers without
    copying. *)

type mode =
  | Pool_backed  (** DPDK/SPDK style: DMA-capable from creation. *)
  | Register_on_demand  (** RDMA style: registered on first [rkey]. *)
  | Not_dma  (** Legacy-kernel heap: every I/O must copy. *)

type stats = {
  allocations : int;
  frees : int;
  live : int;
  superblocks : int;
  registered_superblocks : int;
  uaf_protected : int;
      (** Times an app free was deferred because the libOS still held a
          reference — each of these would have been a use-after-free bug
          under plain malloc. *)
  bytes_copied : int;
      (** Payload bytes copied by I/O paths that could not be zero-copy;
          recorded via [note_copy]. *)
}

exception Double_free
exception Bad_refcount

val poison_byte : char
(** The sanitizer's fill pattern ([0xDE]); exposed so tests can assert
    poisoning without duplicating the constant. *)

exception Canary_violation of string
(** Raised (in sanitizer mode) when a freed object is re-allocated and
    its poison fill has been overwritten — i.e. someone wrote through a
    stale reference after the slot was released. *)

val create : ?label:string -> ?headroom:int -> ?sanitize:bool -> mode:mode -> unit -> t
(** A fresh heap. [headroom] (default 128 B) is reserved at the front of
    every object for protocol headers. [sanitize] (default
    {!sanitize_default}) enables the heap sanitizer: freed objects are
    filled with a poison pattern, re-allocation verifies the poison
    canary (raising {!Canary_violation} on a write-after-free), and
    {!sanitizer_report} summarises leaks/double-frees at end of run. *)

val mode : t -> mode
val label : t -> string

val sanitizing : t -> bool

val set_sanitize_default : bool -> unit
(** Default [sanitize] for heaps created afterwards; lets the CLI /
    selfcheck harness arm the sanitizer globally without threading a
    flag through every [create] call. *)

val sanitize_default : unit -> bool

val alloc : ?site:string -> t -> int -> buffer
(** Allocate an object with at least [size] bytes of payload capacity.
    The application holds the only reference. [site] is a free-form
    allocation-site label the sanitizer attributes leaks and
    write-after-free diagnostics to. Raises [Invalid_argument] for sizes
    outside the size classes. *)

val alloc_of_string : ?site:string -> t -> string -> buffer
(** Allocate and fill with the string's bytes. *)

(** {1 Buffer accessors} *)

val data : buffer -> Bytes.t
val offset : buffer -> int
(** Absolute payload offset into [data]. *)

val rel_offset : buffer -> int
(** Payload offset relative to the object start (the coordinate system
    [set_bounds] uses). *)

val length : buffer -> int

val set_bounds : buffer -> offset:int -> length:int -> unit
(** Adjust the payload window; it must fit inside the object. *)

val set_length : buffer -> int -> unit
(** Adjust only the payload length, keeping the current offset. *)

val capacity : buffer -> int
(** Total object size including headroom. *)

val to_string : buffer -> string
(** Copy the payload out as a string. The heap does not record the
    copy: a caller on a datapath accounts it itself ({!note_copy} or
    [Host.charge_copy]). *)

val blit_string : string -> buffer -> unit
(** Fill the payload with a string; sets [length]. *)

(** {1 Reference counting and UAF protection} *)

val free : buffer -> unit
(** Drop the application reference. The object is recycled only once the
    libOS has also released it. Raises {!Double_free} if the app
    reference was already dropped. *)

val os_incref : buffer -> unit
(** LibOS takes a reference (e.g. segment handed to the NIC or queued
    for retransmit). *)

val os_decref : buffer -> unit
(** LibOS drops a reference. Raises {!Bad_refcount} if it holds none. *)

val app_live : buffer -> bool
val os_refs : buffer -> int

val is_slot_live : buffer -> bool
(** Whether the underlying slot is still allocated (to anyone). Test
    hook for UAF scenarios. *)

(** {1 DMA registration} *)

val rkey : buffer -> int
(** The registration key covering this buffer's superblock. In
    [Register_on_demand] mode the first call registers the superblock —
    the [get_rkey] flow of Catmint. Raises [Failure] in [Not_dma]
    mode. *)

val is_dma_capable : buffer -> bool
(** DMA-eligible: heap is a DMA heap {e and} the object's size class is
    above the 1 kB zero-copy threshold (§5.3). *)

(** {1 Accounting} *)

val note_copy : t -> int -> unit
(** Record payload bytes copied on an I/O path. *)

val stats : t -> stats
val live_objects : t -> int

val site : buffer -> string
(** The allocation-site label this buffer's slot was last allocated
    with ([""] when unlabeled). *)

val slot_id : buffer -> int
(** A stable identity for the underlying slot, unique within the heap
    (superblock creation index x slot). Two buffer handles alias the
    same object iff their [slot_id]s are equal — the identity key the
    PDPIX ownership oracle tracks state under, since structural
    equality on [buffer] is both meaningless (windows differ) and
    unsafe (superblock links are cyclic). Slot ids are reused after a
    true release, exactly like the memory itself. *)

(** {1 Sanitizer report} *)

type sanitizer_report = {
  heap_label : string;
  leaks : (string * int) list;
      (** Objects still live at end of run, grouped by allocation site
          and sorted by site label. *)
  canary_violations : int;
      (** Writes-after-free: raised at re-alloc plus poison damage found
          in free slots by the end-of-run scan. *)
  double_frees : int;
}

val sanitizer_report : t -> sanitizer_report option
(** [None] unless the heap was created with [~sanitize:true]. *)

val pp_sanitizer_report : Format.formatter -> sanitizer_report -> unit

val log_teardown : ?fmt:Format.formatter -> t -> unit
(** Print the sanitizer report (default to stderr) if sanitizing and
    there is anything to report. Hosts register this with
    [Sim.at_teardown]. *)
