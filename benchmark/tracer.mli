(** Benchmark-side tracing: in-memory spans, a host-time trace sink and a
    pass-through frame tap.  Nothing here changes the simulated schedule. *)

(** One recorded span; times are host CPU seconds. *)
type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;          (** parent span id, [-1] at a root *)
}

type t
(** A span recorder for one run. *)

val create : run_id:string -> t
(** An empty recorder; every written span carries [run_id]. *)

val span : t -> ?parent:int -> string -> (int -> 'a) -> 'a
(** [span tr ~parent name f] times [f id] as a span [id] under [parent]. *)

val self_times : t -> (span * float) list
(** Each span with its self time: duration minus its children's. *)

val subtree : t -> int -> span list
(** The span with the given id and all its descendants. *)

val write : t -> dir:string -> string
(** Write the spans as JSONL to [dir/spans-<run_id>.jsonl]; returns the
    path. *)

val family : string -> string
(** The instance family of a runtime pid: ["abc"], ["mvba"] ([.../mv.<r>]),
    ["vcbc"] ([.../p.<i>]) or ["aba"] ([.../ba.<a>]). *)

val families : string list
(** The four protocol families, in report order. *)

type attribution
(** Host time charged per instance family during one traced run. *)

val attribute : t -> attribution * Trace.Sink.t
(** A sink stamping host time on every dispatch ([Flow_end] ["msg"]) and
    charging the time since the previous dispatch to that dispatch's
    family, recorded as coalesced spans. *)

val start : attribution -> parent:int -> unit
(** Begin charging, recording spans under [parent] (call just before the
    simulation runs). *)

val finish : attribution -> unit
(** Close the open interval (call just after the simulation returns). *)

val total_ms : attribution -> string -> float
(** Host ms charged to a family (["other"] is the time before the first
    dispatch). *)

type frames
(** A frame sample. *)

val frames : unit -> frames
(** An empty sample that keeps every 8th frame, at most 4096. *)

val tap : frames -> src:int -> dst:int -> string -> Sim.Net.action
(** A pass-through [Cluster.set_intercept] hook: always [Deliver]. *)

val captured : frames -> (int * int * string) list
(** The kept frames (source, destination, envelope bytes), oldest first. *)
