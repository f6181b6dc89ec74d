(** A global coverage-counter registry, modelled on OVS's COVERAGE_INC
    macros and the [ovs-appctl coverage/show] command.

    Any subsystem registers a named counter once (typically at module
    initialisation) and bumps it from its hot path; the registry renders
    the counters sorted by name for the appctl-style tooling. Counters
    are process-global — like real OVS coverage counters they aggregate
    over every datapath instance in the process — and resettable between
    measurement phases.

    {b Domain safety.} Real OVS coverage counters are per-thread and
    aggregated on read; this registry does the same per {e domain}. Each
    counter keeps a domain-local cell ([Domain.DLS]) that its hot-path
    {!incr} bumps without synchronization, plus a [merged] total protected
    by the registry mutex. A domain that is about to exit (or a
    measurement phase that wants a consistent global view) calls
    {!flush_domain} to fold its local cells into the merged totals — the
    domains engine does this on worker shutdown, so no increment is ever
    lost. Reads ({!read}, {!dump}, {!show}) return merged totals plus the
    {e calling} domain's unflushed local counts, which makes the
    single-domain (virtual-time) behaviour identical to the pre-redesign
    registry. Counts accumulated by another still-running domain are
    invisible until that domain flushes. *)

type counter = {
  name : string;
  mutable merged : int;  (** flushed totals; written under [mu] only *)
  local : int ref Domain.DLS.key;
      (** this domain's unflushed increments — no lock on the hot path *)
}

(* Guards the registry table and every [merged] field. *)
let mu = Mutex.create ()

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let with_mu f =
  Mutex.lock mu;
  let r = try f () with e -> Mutex.unlock mu; raise e in
  Mutex.unlock mu;
  r

(** Register (or fetch) the counter called [name]. The returned handle is
    stable: hot paths should call this once and keep the handle. *)
let counter name : counter =
  with_mu @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
      let c = { name; merged = 0; local = Domain.DLS.new_key (fun () -> ref 0) } in
      Hashtbl.add registry name c;
      c

(* Lock-free on the hot path: each domain bumps its own cell. *)
let incr ?(n = 1) (c : counter) =
  let r = Domain.DLS.get c.local in
  r := !r + n

(* The calling domain's view of a counter: flushed history plus its own
   pending increments. *)
let value c = c.merged + !(Domain.DLS.get c.local)

(** Fold the {e calling} domain's local counts into the merged totals.
    Worker domains must call this before exiting (the domains engine
    does); the main domain may call it any time for a consistent global
    view. *)
let flush_domain () =
  with_mu @@ fun () ->
  Hashtbl.iter
    (fun _ c ->
      let r = Domain.DLS.get c.local in
      if !r <> 0 then begin
        c.merged <- c.merged + !r;
        r := 0
      end)
    registry

let read name =
  match with_mu (fun () -> Hashtbl.find_opt registry name) with
  | Some c -> value c
  | None -> 0

(** All counters, sorted by name. [nonzero] drops the ones that never
    fired (coverage/show's default view). *)
let dump ?(nonzero = true) () =
  with_mu (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) registry [])
  |> List.map (fun c -> (c.name, value c))
  |> List.filter (fun (_, v) -> (not nonzero) || v > 0)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Render in coverage/show style. *)
let show ?(nonzero = true) () =
  let lines =
    dump ~nonzero ()
    |> List.map (fun (name, count) -> Printf.sprintf "%-32s %12d" name count)
  in
  String.concat "\n" (("counter" ^ String.make 25 ' ' ^ "total") :: lines)

(** Zero every counter (handles stay valid). Clears the merged totals and
    the calling domain's local cells — call it only at quiescent points
    (no other domain incrementing), as between measurement phases. *)
let reset () =
  with_mu @@ fun () ->
  Hashtbl.iter
    (fun _ c ->
      c.merged <- 0;
      Domain.DLS.get c.local := 0)
    registry
