(** Multi-signatures: the threshold-signature interface implemented by a
    vector of [k] ordinary RSA signatures from distinct parties
    (Section 2.1 of the paper).

    Drop-in interchangeable with {!Threshold_sig} — no protocol changes —
    trading longer messages for much cheaper computation; Figure 6 shows
    this is the better trade in most settings. *)

type public = {
  nparties : int;
  k : int;
  t : int;
  party_keys : Rsa.public array;   (** index [i-1] *)
}

type secret_share = {
  index : int;                     (** 1-based *)
  key : Rsa.secret;
}

type share = {
  origin : int;
  signature : string;
}

type keys = { public : public; shares : secret_share array }

val deal :
  drbg:Hashes.Drbg.t -> modulus_bits:int -> nparties:int -> k:int -> t:int ->
  unit -> keys
(** The trusted dealer: one independent RSA key pair per party.
    @raise Invalid_argument unless [t < k <= nparties - t]. *)

val release : public -> secret_share -> ctx:string -> string -> share
(** One ordinary (CRT) RSA signature. *)

val release_prehashed : public -> secret_share -> Rsa.prehash -> share
(** {!release} on a staged message. *)

val verify_share : public -> ctx:string -> string -> share -> bool
(** One RSA verification against the origin's public key.  Partially
    applied to a message, it hashes that message once for all the shares
    the closure checks. *)

val verify_share_prehashed : public -> Rsa.prehash -> share -> bool
(** {!verify_share} on a staged message: a (key, signature) pair that
    already passed against it is accepted without an exponentiation. *)

val assemble : public -> ctx:string -> string -> share list -> string
(** Concatenate [k] shares from distinct origins (length-prefixed).
    @raise Invalid_argument with fewer than [k] distinct origins. *)

val parse_assembled : string -> share list option
(** Decode {!assemble}'s framing; [None] on malformed input. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** At least [k] valid signatures from distinct parties, no duplicates;
    the message is hashed once, not once per signature. *)

val verify_prehashed : public -> Rsa.prehash -> signature:string -> bool
(** {!verify} on a staged message: each component is checked through it,
    so one already verified against the message under the same key (as a
    share or in an earlier certificate) costs a list probe. *)

val signature_bytes : public -> int
(** Size of an assembled multi-signature (larger than a threshold
    signature by ~[k]x — the wire-size cost Figure 6 trades against CPU). *)
