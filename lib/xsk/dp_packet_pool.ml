(** Packet-metadata allocation, the subject of optimization O4.

    Without O4, every received packet allocates a fresh dp_packet metadata
    structure (an mmap-backed allocation in the paper's profile). With O4,
    metadata lives in a preallocated contiguous array whose
    packet-independent fields are initialized once; per-packet work is a
    cheap reset. The datapath charges [Costs.page_alloc] or
    [Costs.prealloc_init] per packet accordingly. Only the mode and the
    count are modelled: the buffer itself comes from the umem, so nothing
    would read a materialised slot array. *)

type mode = Per_packet_alloc | Preallocated

type t = { mode : mode; mutable allocations : int }

let create ~mode = { mode; allocations = 0 }

(** Per-packet metadata cost under this mode. *)
let metadata_cost t (costs : Ovs_sim.Costs.t) =
  match t.mode with
  | Per_packet_alloc -> costs.Ovs_sim.Costs.page_alloc
  | Preallocated -> costs.Ovs_sim.Costs.prealloc_init

(** Account one metadata acquisition (the buffer itself comes from the
    umem in the AF_XDP path; this models only the metadata structure). *)
let acquire t = t.allocations <- t.allocations + 1
