(** Ethernet MAC addresses, stored as a 48-bit value in a native [int]. *)

type t = int

let broadcast : t = 0xFFFF_FFFF_FFFF

let of_bytes (b : Bytes.t) ~(off : int) : t =
  let hi = Bytes.get_uint16_be b off in
  let mid = Bytes.get_uint16_be b (off + 2) in
  let lo = Bytes.get_uint16_be b (off + 4) in
  (hi lsl 32) lor (mid lsl 16) lor lo

let to_bytes (m : t) (b : Bytes.t) ~(off : int) =
  Bytes.set_uint16_be b off ((m lsr 32) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) ((m lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 4) (m land 0xFFFF)

(** Parse "aa:bb:cc:dd:ee:ff". Raises [Invalid_argument] on bad syntax. *)
let of_string s : t =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
      List.fold_left
        (fun acc part -> (acc lsl 8) lor int_of_string ("0x" ^ part))
        0 [ a; b; c; d; e; f ]
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let to_string (m : t) =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" ((m lsr 40) land 0xFF)
    ((m lsr 32) land 0xFF) ((m lsr 24) land 0xFF) ((m lsr 16) land 0xFF)
    ((m lsr 8) land 0xFF) (m land 0xFF)

let is_multicast (m : t) = (m lsr 40) land 0x01 = 1

(** A locally-administered unicast MAC derived from a small integer, handy
    for generating distinct endpoint addresses in workloads. *)
let of_index i : t = 0x0200_0000_0000 lor (i land 0xFFFF_FFFF)
