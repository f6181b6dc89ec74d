type year_entry = {
  year : int;
  new_features_loc : int;
  backports_loc : int;
}
val figure1 : year_entry list
type case_study = {
  feature : string;
  upstream_loc : int;
  backport_loc : int;
  upstream_commits_needed : int;
  followup_commits : int;
}
val erspan : case_study
val conncount : case_study
val predicted : unit -> (int * int * int) list
type churn_stats = {
  ch_rounds : int;
  ch_added : int;
  ch_deleted : int;
  ch_evicted : int;
  ch_retrains : int;
}
val churn :
  ?table:int ->
  ?seed:int ->
  ?subnet_of:(int -> int) ->
  ?mk_actions:(round:int -> k:int -> Ovs_ofproto.Action.t list) ->
  pipeline:Ovs_ofproto.Pipeline.t ->
  rounds:int ->
  rules_per_round:int ->
  revalidate:(unit -> int) -> retrain:(unit -> unit) -> unit -> churn_stats
