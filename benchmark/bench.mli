(** The benchmark: named workloads, the untraced run (end-to-end metrics)
    and the traced run (per-layer metrics). *)

(** A named workload. *)
type workload = {
  name : string;
  load : Work.load;
  (** the load shape; on vopr-secure, the secure-channel load beside the
      explorer sweep *)
  min_iters : int;
  (** iterations always run; the virtual-time metrics pool exactly these *)
  vopr_seeds : int;   (** explorer seeds per iteration; 0 without a sweep *)
}

val workloads : smoke:bool -> workload list
(** trickle, saturate, recover and vopr-secure.  [smoke] shrinks every
    size for a seconds-long self-test. *)

val find : smoke:bool -> string -> workload option
(** A workload by name. *)

(** One reported metric. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;       (** how many measurements the value summarizes *)
}

(** What one run reports. *)
type outcome = {
  attempted : int;     (** requests issued plus explorer seeds *)
  metrics : metric list;
  spans : Tracer.t option;   (** the traced run's spans *)
  run_host_s : float;  (** traced run: host time of its [Cluster.run] *)
  run_span : int;      (** traced run: the span covering that call *)
}

val setup_reps : int
(** Cold set-ups per untraced run; [setup_s] is their median. *)

val setup_once : workload -> seed:int -> rep:int -> float
(** One cold set-up's host seconds: key deal, cluster and channels (and
    [Durable.attach] on recover; on vopr-secure, the explorer workload's
    first run, which pays its key deal).
    Meant to run in a fresh process. *)

val run :
  workload -> seed:int -> seconds:float -> trace:bool -> run_id:string ->
  smoke:bool -> setup:(rep:int -> float) -> outcome
(** Run one measurement.  Untraced: [setup] is called {!setup_reps} times
    (once when [smoke]),
    then iterations run until [seconds] have passed (at least
    [min_iters]).  Traced: one untraced and one traced iteration of the
    same seed, then the layer timings.
    @raise Gate.Failed on any correctness violation. *)
