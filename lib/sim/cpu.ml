(** CPU execution contexts and time accounting.

    Every logical thread of execution in the model — a PMD thread, a kernel
    softirq context bound to a receive queue, a guest vCPU, the iperf/netperf
    application thread — is a [ctx]. Work performed on the fast path charges
    virtual nanoseconds to its context under one of the four categories that
    the paper's Table 4 reports (system / softirq / guest / user).

    A pipelined run's wall-clock time is the busy time of its bottleneck
    context; aggregate CPU consumption in "units of a hyperthread" is each
    context's busy time divided by that wall time. *)

type category = User | System | Softirq | Guest

(** Busy time per category. All-float, so the record is stored flat and
    charging adds in place rather than allocating a fresh boxed float per
    charge. *)
type times = {
  mutable user : Time.ns;
  mutable system : Time.ns;
  mutable softirq : Time.ns;
  mutable guest : Time.ns;
}

type ctx = { name : string; times : times }

type t = { mutable ctxs : ctx list }
(** A machine: the collection of execution contexts created for a run. *)

let create () = { ctxs = [] }

let ctx t name =
  let c = { name; times = { user = 0.; system = 0.; softirq = 0.; guest = 0. } } in
  t.ctxs <- c :: t.ctxs;
  c

let charge c cat (ns : Time.ns) =
  let a = c.times in
  match cat with
  | User -> a.user <- a.user +. ns
  | System -> a.system <- a.system +. ns
  | Softirq -> a.softirq <- a.softirq +. ns
  | Guest -> a.guest <- a.guest +. ns

let busy c =
  let a = c.times in
  a.user +. a.system +. a.softirq +. a.guest

let reset c =
  let a = c.times in
  a.user <- 0.;
  a.system <- 0.;
  a.softirq <- 0.;
  a.guest <- 0.

(** Busy time of the bottleneck context: the virtual wall time of a fully
    pipelined run in which every context processes the same packet stream. *)
let wall t = List.fold_left (fun acc c -> Float.max acc (busy c)) 0. t.ctxs

type breakdown = {
  bd_system : float;
  bd_softirq : float;
  bd_guest : float;
  bd_user : float;
  bd_total : float;
}
(** CPU consumption in units of a hyperthread, as in the paper's Table 4. *)

(** Aggregate consumption over a run of duration [wall]. A context that was
    busy for the whole wall time contributes 1.0 hyperthread. [poll_floor]
    lists contexts that busy-poll (PMD threads, DPDK cores): they burn their
    CPU even when idle, so they are rounded up to a full hyperthread. *)
let breakdown ?(poll_floor = []) t ~wall =
  if wall <= 0. then
    { bd_system = 0.; bd_softirq = 0.; bd_guest = 0.; bd_user = 0.; bd_total = 0. }
  else begin
    let sys = ref 0. and sirq = ref 0. and gst = ref 0. and usr = ref 0. in
    List.iter
      (fun c ->
        let polls = List.memq c poll_floor in
        let scale x = x /. wall in
        let a = c.times in
        let u = scale a.user and s = scale a.system in
        let si = scale a.softirq and g = scale a.guest in
        (* A polling thread spends its idle cycles spinning in the same
           category as its useful work; attribute the round-up to its
           dominant category. *)
        let u, s, si, g =
          if not polls then (u, s, si, g)
          else begin
            let tot = u +. s +. si +. g in
            let slack = Float.max 0. (1. -. tot) in
            let m = Float.max (Float.max u s) (Float.max si g) in
            if m = u then (u +. slack, s, si, g)
            else if m = si then (u, s, si +. slack, g)
            else if m = g then (u, s, si, g +. slack)
            else (u, s +. slack, si, g)
          end
        in
        usr := !usr +. u;
        sys := !sys +. s;
        sirq := !sirq +. si;
        gst := !gst +. g)
      t.ctxs;
    {
      bd_system = !sys;
      bd_softirq = !sirq;
      bd_guest = !gst;
      bd_user = !usr;
      bd_total = !sys +. !sirq +. !gst +. !usr;
    }
  end

let pp_breakdown ppf b =
  Fmt.pf ppf "system=%.1f softirq=%.1f guest=%.1f user=%.1f total=%.1f"
    b.bd_system b.bd_softirq b.bd_guest b.bd_user b.bd_total
