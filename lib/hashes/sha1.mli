(** SHA-1 (FIPS 180-4). SINTRA uses SHA-1 for link authentication and as the
    160-bit hash inside its threshold schemes; kept for fidelity to the paper
    (SHA-256 is used where the repo needs a 256-bit PRF).  A context owns
    all of its state; the module has none. *)

type ctx

val init : unit -> ctx
(** A fresh hashing context. *)

val copy : ctx -> ctx
(** An independent context in the same state (a midstate): feeding or
    finishing either one leaves the other untouched. *)

val feed_string : ctx -> string -> unit
(** Absorb the next chunk of input. *)

val finish : ctx -> string
(** Finalize and return the 20-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot 20-byte digest. *)
