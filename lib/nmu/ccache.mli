(** The computational cache: a learned-classifier tier over the installed
    megaflows, exact by construction. See [ccache.ml] for the model and
    the staleness rules. *)

module FK = Ovs_packet.Flow_key
module Dpcls = Ovs_flow.Dpcls

type 'a t

type train_stats = {
  ts_megaflows : int;
  ts_indexed : int;
  ts_remainder : int;
  ts_isets : int;
  ts_max_err : int;
}

val create : unit -> 'a t
val trained : 'a t -> bool
val generation : 'a t -> int
val hits : 'a t -> int

val last_train : 'a t -> train_stats option

(** [(model evaluations, search steps, validations)] of the most recent
    {!lookup}, for per-lookup cost charging. *)
val last_work : 'a t -> int * int * int

(** Forget the trained models. Must be called before any megaflow is
    removed from the backing classifier. *)
val invalidate : 'a t -> unit

(** (Re)train from the classifier's current megaflows. *)
val train : ?max_isets:int -> ?min_size:int -> 'a t -> 'a Dpcls.t -> train_stats

(** Exact lookup: [Some (entry, mask)] is the megaflow dpcls would have
    returned. Credits entry/iSet hit counts; work goes to {!last_work}. *)
val lookup : 'a t -> FK.t -> ('a Dpcls.entry * FK.t) option

(** {!lookup} without mutating any statistic or hit count. *)
val peek : 'a t -> FK.t -> ('a Dpcls.entry * FK.t) option

val render : 'a t -> string
