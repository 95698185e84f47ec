(** HMAC (RFC 2104) over SHA-1 or SHA-256.  SINTRA authenticates every
    point-to-point link with HMAC under a per-pair symmetric key from the
    dealer (the paper uses HMAC-SHA1 with 128-bit keys). *)

type algo = SHA1 | SHA256

type key
(** A prepared key: the hash midstates after the ipad and opad blocks.
    Build one per long-lived secret (e.g. per link) and reuse it; tagging
    never mutates it. *)

val key : algo:algo -> string -> key
(** [key ~algo secret] absorbs [secret]'s pad blocks (a secret longer than
    the 64-byte block is hashed first, per RFC 2104). *)

val mac_parts : key -> string list -> string
(** The tag of the concatenation of the parts, without building it: equal
    to [mac] over [String.concat "" parts]. *)

val verify_parts : key -> tag:string -> string list -> bool
(** Constant-time check of [tag] against {!mac_parts}. *)

val mac : algo:algo -> key:string -> string -> string
(** [mac ~algo ~key msg] is the authentication tag (20 or 32 bytes). *)

val verify : algo:algo -> key:string -> tag:string -> string -> bool
(** Constant-time tag check. *)
