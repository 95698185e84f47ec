(** The threshold-signature seam: Shoup RSA threshold signatures or
    multi-signatures behind one interface.

    The paper stresses that swapping one implementation for the other
    requires no change to the protocols that use threshold signatures; every
    SINTRA protocol goes through this module, and {!Config.tsig_scheme}
    picks the implementation (Figure 6 measures the difference). *)

type public =
  | Shoup_pub of Crypto.Threshold_sig.public
  | Multi_pub of Crypto.Multi_sig.public

type secret =
  | Shoup_sec of Crypto.Threshold_sig.public * Crypto.Threshold_sig.secret_share
  | Multi_sec of Crypto.Multi_sig.public * Crypto.Multi_sig.secret_share

type share =
  | Shoup_share of Crypto.Threshold_sig.share
  | Multi_share of Crypto.Multi_sig.share

val public_of_secret : secret -> public
(** The public key packaged inside a party's secret share. *)

val k : public -> int
(** The reconstruction threshold. *)

val share_origin : share -> int
(** The 1-based index of the releasing party. *)

val release : drbg:Hashes.Drbg.t -> secret -> ctx:string -> string -> share
(** This party's signature share on a message; [ctx] domain-separates
    protocol instances so shares cannot be replayed across them. *)

val verify_share : public -> ctx:string -> string -> share -> bool
(** Check one received share (and its proof) against the message.
    Partially applied to a message, the closure hashes it once for every
    multi-signature share it checks. *)

val assemble : public -> ctx:string -> string -> share list -> string
(** @raise Invalid_argument with fewer than [k] distinct valid-scheme
    shares. *)

val verify : public -> ctx:string -> signature:string -> string -> bool
(** Check an assembled group signature on a message. *)

val signature_bytes : public -> int
(** Wire size of an assembled signature, for bandwidth accounting. *)

(** Wire codec for shares. *)

val enc_share : Wire.Enc.t -> share -> unit
(** Encode a share (scheme-tagged) into a wire buffer. *)

val dec_share : Wire.Dec.t -> share
(** @raise Wire.Decode on malformed input. *)
