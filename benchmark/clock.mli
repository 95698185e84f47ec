(** Host clocks and allocation counters for the benchmark. *)

val cpu : unit -> float
(** Process CPU seconds (user + system) — the benchmark's host clock. *)

val wall : unit -> float
(** Wall-clock seconds (run budgets and run ids). *)

val allocated_words : unit -> float
(** Words allocated so far: minor + major − promoted. *)

(** Host cost of one measured call. *)
type sample = {
  cpu_s : float;       (** CPU seconds *)
  words : float;       (** words allocated *)
  minor_gcs : int;     (** minor collections *)
  major_gcs : int;     (** major collections *)
  promoted : float;    (** words promoted to the major heap *)
}

val measure : (unit -> 'a) -> 'a * sample
(** Run the thunk once and report what it cost. *)

val per_call : budget:float -> (unit -> unit) -> float * float
(** [per_call ~budget f] is the median (CPU seconds, words) per call of
    [f] over five batches sized to fill about [budget] seconds. *)

val reference_ms : unit -> float
(** CPU ms of a fixed stdlib-only workload (integer arithmetic and a
    50k-entry hash table) that uses no repository code.  Its time moves
    with the host's speed, not with the program under test. *)

val reference_nominal_ms : float
(** The reference workload's time on the host speed that normalized
    times are quoted at: 25 ms. *)

val normalized : float -> reference_ms:float -> float
(** [normalized t ~reference_ms] rescales a host time [t] measured while
    the reference workload took [reference_ms] to the nominal host
    speed. *)

val peak_heap_mb : unit -> float
(** The major heap's high-water mark so far, in megabytes. *)
