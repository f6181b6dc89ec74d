(** PMD receive-queue assignment (pmd-rxq-assign): distributing NIC
    receive queues over the dedicated poll-mode threads of O1, either
    round-robin or by measured load (OVS's cycles-based placement:
    longest-processing-time greedy). *)

type assignment = { queue_to_pmd : int array; n_pmds : int }

val round_robin : n_queues:int -> n_pmds:int -> assignment

val cycles_based : loads:float array -> n_pmds:int -> assignment
(** Queues sorted by descending measured load, each placed on the
    currently least-loaded PMD. Only load ratios matter. *)

val imbalance : assignment -> loads:float array -> float
(** Bottleneck PMD's load over the mean; 1.0 is a perfect split. *)

val effective_scaling : assignment -> loads:float array -> float
(** Ideal scaling ([n_pmds]) divided by the imbalance — the pipeline's
    actual throughput multiplier. *)
