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

val verify_share : public -> ctx:string -> string -> share -> bool
(** One RSA verification against the origin's public key.  Partially
    applied to a message, it hashes that message once for all the shares
    the closure checks. *)

val assemble : public -> ctx:string -> string -> share list -> string
(** Concatenate [k] shares from distinct origins (length-prefixed).
    @raise Invalid_argument with fewer than [k] distinct origins. *)

val parse_assembled : string -> share list option
(** Decode {!assemble}'s framing; [None] on malformed input. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** At least [k] valid signatures from distinct parties, no duplicates;
    the message is hashed once, not once per signature. *)

val signature_bytes : public -> int
(** Size of an assembled multi-signature (larger than a threshold
    signature by ~[k]x — the wire-size cost Figure 6 trades against CPU). *)
