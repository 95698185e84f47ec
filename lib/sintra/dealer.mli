(** The trusted dealer (Section 2): generates, from one seed, every key of
    a configuration — per-pair link-MAC keys, per-party RSA signing keys,
    the [(n, t+1, t)] coin, two threshold-signature keys (broadcast quorum
    [ceil((n+t+1)/2)] and agreement quorum [n-t]) and the [(n, t+1, t)]
    threshold-encryption keys.  Runs once at initialization, exactly as in
    the paper; key distribution is by construction (each party gets its
    [party_keys] record). *)

type party_keys = {
  index : int;                                     (** 0-based party id *)
  sign_sk : Crypto.Rsa.secret;
  sign_pks : Crypto.Rsa.public array;
  coin_pub : Crypto.Threshold_coin.public;
  coin_share : Crypto.Threshold_coin.secret_share;
  bc_tsig : Tsig.secret;                           (** broadcast quorum *)
  ag_tsig : Tsig.secret;                           (** agreement quorum *)
  enc_pub : Crypto.Threshold_enc.public;
  enc_share : Crypto.Threshold_enc.secret_share;
}

type t = {
  cfg : Config.t;
  mac_keys : string array array;
  parties : party_keys array;
  coin_pub : Crypto.Threshold_coin.public;
  bc_tsig_pub : Tsig.public;
  ag_tsig_pub : Tsig.public;
  enc_pub : Crypto.Threshold_enc.public;
  group : Crypto.Group.t;
}

val deal : seed:string -> Config.t -> t
(** Deterministic in [seed] and the configuration's actual key sizes. *)

val memo : seed:string -> Config.t -> t
(** [deal], memoized per domain by [seed] and the configuration fields
    [deal] reads ([n], [t], [tsig_scheme] and the four actual key sizes):
    same keys as [deal ~seed cfg], with [cfg] as the result's [cfg].  Key
    generation dominates a group's setup cost; call {!deal} only for a
    deliberately cold deal. *)

val net_mac_keys : t -> string array array
(** The MAC-key matrix in the symmetric layout {!Sim.Net.create} expects. *)
