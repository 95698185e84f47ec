(** The benchmark's workloads over an n=4, t=1 simulated group, each run
    checked by {!Gate}. *)

val n : int
(** Group size. *)

val cfg : unit -> Sintra.Config.t
(** {!Load.Sweep.sweep_cfg} defaults: 256-bit keys priced as 1024-bit,
    [max_batch] 256, pipeline depth 4, adaptive batching. *)

val deal : seed:string -> Sintra.Dealer.t
(** A cold key deal ({!Sintra.Dealer.deal}, no cache). *)

val build : dealer:Sintra.Dealer.t -> seed:string -> Sintra.Cluster.t
(** A fresh cluster over the dealt keys, engine seeded from [seed]. *)

(** Which channel a load workload drives. *)
type channel = Atomic | Secure

(** The client population. *)
type shape =
  | Open of { rate : float; parties : int list }
      (** open-loop Poisson arrivals, [rate] per virtual second in total,
          split evenly over [parties], until exactly [rate × duration]
          requests have been issued *)
  | Closed of { clients : int }
      (** closed-loop clients per party, zero think time *)

(** A load workload. *)
type load = {
  channel : channel;
  shape : shape;
  duration : float;
  (** virtual seconds of offered load: the closed loop's span; an open
      loop issues [rate × duration] requests.  Then a full drain. *)
  restart : bool;
  (** durable channels on every party, party 3 power-failed at a third of
      [duration] and restarted from its device at two thirds *)
  interval : int;     (** checkpoint interval in rounds (restart only) *)
}

(** Hooks a traced run installs before the simulation starts. *)
type probe = {
  on_cluster : Sintra.Cluster.t -> unit;
  around : (unit -> int) -> int;
      (** wraps the [Cluster.run] call (inside the timed region) *)
  on_round : (round:int -> batch:string -> unit) option;
      (** party 0's decided batches (non-durable atomic channel only) *)
}

val none : probe
(** No hooks. *)

(** Party 0's atomic channel and every runtime, sampled every 50 virtual
    ms while load is offered. *)
type channel_samples = {
  inflight : float list;     (** in-flight rounds *)
  queue : float list;        (** own queued payloads *)
  backlog_peak : int;        (** retained decided batches, peak *)
  orphans_peak : int;        (** buffered orphan messages, all parties, peak *)
  dropped_orphans : int;     (** orphans dropped, all parties, at the end *)
}

(** The durability layer on a restart workload. *)
type durable_info = {
  restore_ms : float;        (** host ms of the restart's [Durable.attach] *)
  replayed : int;            (** rounds replayed from the restarted device *)
  adopted : int;             (** peer snapshots adopted on restart *)
  checkpoints : int;         (** checkpoints stable at party 0 *)
  final_lag : int;
  (** rounds the restarted party is behind party 0 once the run has
      quiesced: rounds that finished while it was still catching up, with
      no later traffic to pull it forward *)
  dev0 : Store.Device.t;     (** party 0's device *)
}

(** One checked run of a load workload. *)
type result = {
  seed : string;
  cost : Clock.sample;       (** host cost of [Cluster.run] *)
  events : int;              (** simulation events *)
  rounds : int;              (** agreement rounds completed at party 0 *)
  payloads : int;            (** payloads delivered at party 0 *)
  vspan : float;             (** virtual time of party 0's last delivery *)
  latencies : float list;    (** submit→deliver, virtual seconds *)
  issued : int;              (** requests issued *)
  digest : string;           (** party 0's delivery digest *)
  catchup : float;           (** restart workloads: virtual seconds from the
                                 restart to party 0's round at the restart *)
  cluster : Sintra.Cluster.t;
  samples : channel_samples;
  durable : durable_info option;
}

type rig
(** A cluster with channels (and durability) on every party, before any
    load is attached. *)

val rig : dealer:Sintra.Dealer.t -> seed:string -> load -> rig
(** Build the cluster and channels for [load] — the set-up a run pays. *)

val run_load : ?probe:probe -> dealer:Sintra.Dealer.t -> seed:string -> load -> result
(** Drive [load] to quiescence and check it.
    @raise Gate.Failed on any correctness violation. *)

(** A checked schedule-exploration sweep. *)
type sweep = {
  seeds : int;
  seed_ms : float list;      (** host ms per seed, oracles included *)
  sweep_cost : Clock.sample;
  vopr_events : int;         (** simulation events over all seeds *)
}

val vopr_run : seed:string -> unit
(** One [Vopr.Workload.run] of the secure workload under the empty
    schedule; the first in a process pays the explorer's cold key deal. *)

val explore : base:string -> seeds:int -> sweep
(** [Vopr.Explorer.explore] over the secure workload with its full oracle
    suite.  @raise Gate.Failed if any seed fails an oracle. *)

val counter : Sintra.Cluster.t -> string -> float
(** A counter from the cluster's metrics registry; [0.0] if absent. *)
