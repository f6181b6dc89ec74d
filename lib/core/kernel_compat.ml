(** Kernel capability detection (Sec 4: "OVS manages the XDP program: it
    uses the kernel version to determine the available XDP features...").

    Given a kernel version, decide whether AF_XDP exists at all, whether
    zero-copy driver mode is available, and whether need_wakeup can cut
    the busy-poll syscalls — the decisions the real netdev-afxdp.c makes
    at port-configuration time. *)

type version = { major : int; minor : int }

let v major minor = { major; minor }

let compare_version a b =
  match compare a.major b.major with 0 -> compare a.minor b.minor | c -> c

let at_least k m = compare_version k m >= 0

let parse s =
  match String.split_on_char '.' s with
  | major :: minor :: _ -> v (int_of_string major) (int_of_string minor)
  | _ -> invalid_arg ("Kernel_compat.parse: " ^ s)

type xdp_mode =
  | Xdp_unavailable  (** pre-4.18: no AF_XDP socket family *)
  | Xdp_skb  (** generic mode: works on any driver, one extra copy *)
  | Xdp_drv_copy  (** driver mode without zero-copy *)
  | Xdp_drv_zerocopy  (** driver mode with zero-copy umem *)

(** Select the best AF_XDP mode for a kernel and driver combination
    ([driver_native] / [driver_zerocopy] say what the NIC driver
    implements — the Fig 6 vendor differences). *)
let select_mode ~kernel ~driver_native ~driver_zerocopy =
  if not (at_least kernel (v 4 18)) then Xdp_unavailable
  else if driver_zerocopy && at_least kernel (v 5 0) then Xdp_drv_zerocopy
  else if driver_native then Xdp_drv_copy
  else Xdp_skb

(** need_wakeup (kernel 5.4) removes most tx kick syscalls. *)
let has_need_wakeup kernel = at_least kernel (v 5 4)

(** Whether the per-queue (Mellanox-style) XDP attachment is usable, vs
    whole-device (Intel-style) only — Fig 6. *)
type attach_model = Whole_device | Per_queue

let attach_model ~vendor =
  match vendor with
  | `Mellanox -> Per_queue
  | `Intel | `Other -> Whole_device

(** The AF_XDP options implied by a mode (copy mode costs an extra copy
    per packet; Sec 3.5 "Limitations"). *)
let afxdp_opts_of_mode mode =
  match mode with
  | Xdp_unavailable -> None
  | Xdp_skb | Xdp_drv_copy ->
      Some { Ovs_datapath.Dpif.afxdp_default with copy_mode = true }
  | Xdp_drv_zerocopy -> Some Ovs_datapath.Dpif.afxdp_default
