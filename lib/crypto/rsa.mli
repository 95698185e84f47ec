(** RSA with full-domain-hash signatures.

    Every SINTRA party holds an ordinary signing key (used by the atomic
    broadcast protocol to sign per-round messages), and the multi-signature
    implementation of threshold signatures is a vector of these.  Signing
    uses CRT, the optimization the paper credits for the fast
    multi-signature path (Figure 6). *)

type public = {
  n : Bignum.Nat.t;
  e : Bignum.Nat.t;
  n_ctx : Bignum.Nat.Montgomery.ctx;  (** [n]'s context, built once *)
}

type secret = {
  pub : public;
  d : Bignum.Nat.t;
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
  d_p : Bignum.Nat.t;     (** [d mod p-1] *)
  d_q : Bignum.Nat.t;     (** [d mod q-1] *)
  q_inv : Bignum.Nat.t;   (** [q^-1 mod p] *)
  p_ctx : Bignum.Nat.Montgomery.ctx;  (** [p]'s context, for CRT signing *)
  q_ctx : Bignum.Nat.Montgomery.ctx;  (** [q]'s context, for CRT signing *)
}

val public_key : n:Bignum.Nat.t -> e:Bignum.Nat.t -> public
(** [public_key ~n ~e] packages a public key with [n]'s
    {!Bignum.Nat.Montgomery} context.
    @raise Invalid_argument if [n] is even. *)

val default_e : Bignum.Nat.t
(** 65537. *)

val keygen : ?e:Bignum.Nat.t -> drbg:Hashes.Drbg.t -> bits:int -> unit -> secret
(** Deterministic (DRBG-driven) key generation with a [bits]-bit modulus. *)

val fdh : public -> ctx:string -> string -> Bignum.Nat.t
(** Full-domain hash of a message into [[0, n)], domain-separated by [ctx]
    (SINTRA binds every signature to its protocol instance).  It is the
    reduction mod [n] of an expansion that depends only on [ctx], the
    message and [n]'s byte length. *)

type prehash
(** A staged message: its FDH expansions, computed on first use and kept
    per expansion length (a function of the modulus byte length), so
    checking signatures under many keys hashes the message once per length;
    and the (key, signature) pairs that already verified against it, at
    most one per key, so a repeated check is a list probe.  Host-side only:
    outputs are those of {!fdh}, {!sign} and {!verify}. *)

val prehash : ctx:string -> string -> prehash
(** An empty stage for the message (no hashing happens yet). *)

val fdh_prehashed : public -> prehash -> Bignum.Nat.t
(** [fdh_prehashed pub (prehash ~ctx msg)] is [fdh pub ~ctx msg]. *)

val crt_power : secret -> Bignum.Nat.t -> Bignum.Nat.t
(** [x^d mod n] by the Chinese remainder theorem (~4x faster than the
    direct exponentiation). *)

val sign : secret -> ctx:string -> string -> string
(** FDH signature, as a fixed-width byte string. *)

val sign_prehashed : secret -> prehash -> string
(** {!sign} on a staged message, sharing its expansion. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** FDH verification: one short exponentiation ([e = 65537] is 17
    multiplications). *)

val verify_prehashed : public -> prehash -> signature:string -> bool
(** {!verify} against a staged message: [verify_prehashed pub (prehash ~ctx
    msg) ~signature] is [verify pub ~ctx ~signature msg].  A pair that
    passed before (the same [(n, e)] and signature bytes) is accepted
    without an exponentiation. *)

val signature_bytes : public -> int
(** Signature size, for wire-cost accounting. *)

val public_to_bytes : public -> string
(** A canonical encoding of the public key (for hashing/binding). *)
