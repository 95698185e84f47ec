(** SHA-256 (FIPS 180-4), incremental and one-shot.  A context owns all of
    its state; the module has none. *)

type ctx

val init : unit -> ctx
(** A fresh hashing context. *)

val copy : ctx -> ctx
(** An independent context in the same state (a midstate): feeding or
    finishing either one leaves the other untouched. *)

val feed_string : ctx -> string -> unit
(** Absorb the next chunk of input. *)

val finish : ctx -> string
(** Finalize and return the 32-byte digest. The context must not be reused. *)

val digest : string -> string
(** One-shot 32-byte digest. *)

val digest_list : string list -> string
(** Digest of the concatenation, without building it.  Distinct lists can
    share a concatenation, so this is no key for a list of variable-length
    parts; use {!digest_framed}. *)

val digest_framed : string list -> string
(** Digest of the parts, each preceded by its length as 8 big-endian
    bytes: distinct lists never share an input, so the digest identifies
    the list (up to SHA-256 collisions). *)

val hex_of_digest : string -> string
(** Lowercase hex of an arbitrary byte string. *)
