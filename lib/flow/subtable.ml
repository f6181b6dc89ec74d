(** One tuple-space-search subtable, the core of both classifiers.

    Slots [0 .. count - 1] are dense: slot [s]'s hash, covered key words
    and value sit at [s], the words and values in pages added as the
    subtable fills and never copied. An open-addressed index finds them:
    per position -1, or a slot number below the top bits of its hash, so
    a probe skips most other slots without touching them. The index
    doubles at half occupancy; a deletion shifts the rest of its probe
    run back (no tombstones) and moves the last slot into the freed one.
    The keys are plain ints, so the garbage collector follows no pointer
    for them, and growth leaves only the index and hashes as garbage. *)

module FK = Ovs_packet.Flow_key

type 'a t = {
  mask : FK.t;
  fields : int array;
  words : int array;
  width : int;
  mutable index : int array;  (** [tag h lor s] for slot [s] with hash [h] *)
  mutable home : int;  (** a hash's home position is [hash land home] *)
  mutable hashes : int array;
  mutable keys : int array array;  (** per page, [width] words per slot *)
  mutable slots : 'a array array;
  filler : 'a;
  mutable count : int;
  mutable hits : int;
}

(* A slot number takes the low [slot_bits] bits of an index entry, and
   the hash's top bits the rest. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let tag h = (h lsr slot_bits) lsl slot_bits

(* Slots per page: small, so a new subtable's first page of key words
   fits the minor heap. *)
let page_bits = 3
let page = 1 lsl page_bits

(* A new subtable's positions: few, because the slow path creates
   subtables on upcalls. *)
let initial_positions = 16

let create mask filler =
  let mask = FK.copy mask in
  let fields, words = FK.sparse_of_mask mask in
  let width = Array.length fields in
  { mask; fields; words; width;
    index = Array.make initial_positions (-1); home = initial_positions - 1;
    hashes = Array.make (initial_positions / 2) 0;
    keys = [| Array.make (page * width) 0 |]; slots = [| Array.make page filler |];
    filler; count = 0; hits = 0 }

(* FNV-1a over the words [st]'s mask covers, each masked, then mixed:
   FNV's low bits depend only on the words' low bits, so without the mix
   keys that differ only in high bits (address prefixes) would share a
   home position. The result is never negative. [key] need not be
   masked. *)
let hash st (key : FK.t) =
  let h = FK.hash_sparse st.fields st.words key in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

let find st (key : FK.t) =
  let h = hash st key in
  let t = tag h and index = st.index and home = st.home in
  let pos = ref (h land home) and found = ref (-2) in
  while !found = -2 do
    let e = Array.unsafe_get index !pos in
    if e < 0 then found := -1
    else if
      e land lnot slot_mask = t
      &&
      let s = e land slot_mask in
      FK.equal_sparse st.fields st.words
        (Array.unsafe_get st.keys (s lsr page_bits))
        ((s land (page - 1)) * st.width)
        key
    then found := e land slot_mask
    else pos := (!pos + 1) land home
  done;
  !found

(* Enter slot [s], with hash [h], at the first free position from its
   home. *)
let place st h s =
  let pos = ref (h land st.home) in
  while st.index.(!pos) >= 0 do
    pos := (!pos + 1) land st.home
  done;
  st.index.(!pos) <- tag h lor s

(* The position of slot [s]'s index entry. *)
let position st s =
  let pos = ref (st.hashes.(s) land st.home) in
  while st.index.(!pos) land slot_mask <> s do
    pos := (!pos + 1) land st.home
  done;
  !pos

let value st s = Array.unsafe_get (Array.unsafe_get st.slots (s lsr page_bits)) (s land (page - 1))

let set_value st s v = st.slots.(s lsr page_bits).(s land (page - 1)) <- v

(* [a] copied into a fresh array twice as long, the rest [fill]. *)
let extend a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Doubling the index at half occupancy keeps probe runs short. *)
let add st (key : FK.t) v =
  let s = st.count in
  if 2 * (s + 1) > st.home + 1 then begin
    let positions = 2 * (st.home + 1) in
    st.index <- Array.make positions (-1);
    st.home <- positions - 1;
    st.hashes <- extend st.hashes 0;
    for i = 0 to s - 1 do
      place st st.hashes.(i) i
    done
  end;
  let p = s lsr page_bits in
  if p = Array.length st.slots then begin
    st.keys <- extend st.keys [||];
    st.slots <- extend st.slots [||]
  end;
  if Array.length st.slots.(p) = 0 then begin
    st.keys.(p) <- Array.make (page * st.width) 0;
    st.slots.(p) <- Array.make page st.filler
  end;
  let h = hash st key in
  place st h s;
  st.hashes.(s) <- h;
  FK.store_sparse st.fields st.words key st.keys.(p) ((s land (page - 1)) * st.width);
  set_value st s v;
  st.count <- s + 1

(* Empty position [pos], then shift each later entry of the probe run
   back into the hole unless that would move it before its home
   position: every remaining entry stays reachable from its home. *)
let unplace st pos =
  let index = st.index and mask = st.home in
  let hole = ref pos and j = ref ((pos + 1) land mask) in
  while index.(!j) >= 0 do
    let home = st.hashes.(index.(!j) land slot_mask) land mask in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      index.(!hole) <- index.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- -1

let delete st s =
  unplace st (position st s);
  let last = st.count - 1 in
  if s < last then begin
    st.index.(position st last) <- tag st.hashes.(last) lor s;
    st.hashes.(s) <- st.hashes.(last);
    Array.blit
      st.keys.(last lsr page_bits) ((last land (page - 1)) * st.width)
      st.keys.(s lsr page_bits) ((s land (page - 1)) * st.width)
      st.width;
    set_value st s (value st last)
  end;
  set_value st last st.filler;
  st.count <- last

let iter st f =
  for s = 0 to st.count - 1 do
    f (value st s)
  done
