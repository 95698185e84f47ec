(** The correctness gate: every check raises {!Failed} on a violation. *)

exception Failed of string
(** A correctness violation; the message says which check and why. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Failed} with a formatted message. *)

type log = (int * string) list
(** One party's deliveries, oldest first: (origin, payload). *)

val digest : log -> string
(** SHA-256 (hex) over the encoded delivery sequence. *)

val identical : (int * log) list -> unit
(** All listed parties' sequences have the same digest. *)

val contiguous_slice : what:string -> reference:log -> log -> unit
(** The log is a contiguous run of the reference sequence. *)

val slices_across_snapshots :
  what:string -> reference:log -> log * int list -> unit
(** [slices_across_snapshots ~what ~reference (log, jumps)]: consecutive
    deliveries are consecutive in the reference, except that after a
    snapshot adoption (the matching entry of [jumps], a running count
    sampled at each delivery, grew) the log may skip forward — never back.
    The first delivery may start anywhere. *)

val not_exactly_once : issued:string list -> log -> int
(** How many issued payloads occur other than exactly once in the log. *)

val exactly_once : issued:string list -> log -> unit
(** {!not_exactly_once} is zero. *)

val same_digest : what:string -> string -> string -> unit
(** Two digests are equal. *)
