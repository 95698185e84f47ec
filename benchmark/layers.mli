(** Per-layer timings: the benchmark's own calls into each layer's public
    functions at the workload's real key sizes, each recorded as a span. *)

type metric = string * float * string
(** Name, value, unit. *)

type ctx = {
  tr : Tracer.t;         (** span recorder *)
  parent : int;          (** parent span of every timing *)
  budget : float;        (** host seconds per timed operation *)
}

val bignum : ctx -> Sintra.Dealer.t -> metric list
(** [Nat.powmod], [Nat.powmod2] at the signing-key modulus,
    [Nat.Fixed_base.pow] at the discrete-log group, and words per powmod. *)

val crypto : ctx -> Sintra.Dealer.t -> metric list
(** Multi-signature RSA sign/verify, threshold-coin release, verify,
    assemble and a 3-share batch verification, and threshold-decryption
    share, verify and combine. *)

val wire : ctx -> Sintra.Dealer.t -> (int * int * string) list -> metric list
(** Envelope decode/encode and HMAC-SHA1/SHA-256 cost per KB over captured
    frames, and the median frame size.
    @raise Gate.Failed if no frame was captured or one does not decode. *)

val store : ctx -> records:Store.Log.record list -> log:string option -> metric list
(** Append cost per record on a fresh in-memory device, and the replay
    cost of [log] (default: the log those appends build).  Zero when there
    are no records. *)

val instances : ctx -> Sintra.Dealer.t -> reps:int -> metric list
(** Host ms from creation to decision of one RBC, CBC, ABA and MVBA
    instance on a fresh cluster (median of [reps]). *)
