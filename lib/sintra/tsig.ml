(* The threshold-signature abstraction used by the broadcast and agreement
   protocols: either Shoup's proper RSA threshold signatures or the
   multi-signature implementation (a vector of ordinary RSA signatures).
   The paper stresses that swapping one for the other requires no change to
   the protocols — this module is that seam. *)

type public =
  | Shoup_pub of Crypto.Threshold_sig.public
  | Multi_pub of Crypto.Multi_sig.public

type secret =
  | Shoup_sec of Crypto.Threshold_sig.public * Crypto.Threshold_sig.secret_share
  | Multi_sec of Crypto.Multi_sig.public * Crypto.Multi_sig.secret_share

type share =
  | Shoup_share of Crypto.Threshold_sig.share
  | Multi_share of Crypto.Multi_sig.share

let public_of_secret = function
  | Shoup_sec (p, _) -> Shoup_pub p
  | Multi_sec (p, _) -> Multi_pub p

let k = function
  | Shoup_pub p -> p.Crypto.Threshold_sig.k
  | Multi_pub p -> p.Crypto.Multi_sig.k

let share_origin = function
  | Shoup_share s -> s.Crypto.Threshold_sig.origin
  | Multi_share s -> s.Crypto.Multi_sig.origin

let release ~(drbg : Hashes.Drbg.t) (sec : secret) ~(ctx : string) (msg : string) : share =
  match sec with
  | Shoup_sec (pub, sk) -> Shoup_share (Crypto.Threshold_sig.release ~drbg pub sk ~ctx msg)
  | Multi_sec (pub, sk) -> Multi_share (Crypto.Multi_sig.release pub sk ~ctx msg)

(* Staged like [Multi_sig.verify_share]: a closure over one message shares
   that message's FDH memo across multi-signature shares. *)
let verify_share (pub : public) ~(ctx : string) (msg : string) : share -> bool =
  match pub with
  | Shoup_pub p ->
    (function
      | Shoup_share sh -> Crypto.Threshold_sig.verify_share p ~ctx msg sh
      | Multi_share _ -> false)
  | Multi_pub p ->
    let check = Crypto.Multi_sig.verify_share p ~ctx msg in
    (function
      | Multi_share sh -> check sh
      | Shoup_share _ -> false)

let assemble (pub : public) ~(ctx : string) (msg : string) (shares : share list) : string =
  match pub with
  | Shoup_pub p ->
    let shares =
      List.filter_map (function Shoup_share s -> Some s | Multi_share _ -> None) shares
    in
    Crypto.Threshold_sig.assemble p ~ctx msg shares
  | Multi_pub p ->
    let shares =
      List.filter_map (function Multi_share s -> Some s | Shoup_share _ -> None) shares
    in
    Crypto.Multi_sig.assemble p ~ctx msg shares

let verify (pub : public) ~(ctx : string) ~(signature : string) (msg : string) : bool =
  match pub with
  | Shoup_pub p -> Crypto.Threshold_sig.verify p ~ctx ~signature msg
  | Multi_pub p -> Crypto.Multi_sig.verify p ~ctx ~signature msg

let signature_bytes (pub : public) : int =
  match pub with
  | Shoup_pub p -> Crypto.Threshold_sig.signature_bytes p
  | Multi_pub p -> Crypto.Multi_sig.signature_bytes p

(* Wire codecs for shares. *)

let enc_share (b : Wire.Enc.t) (s : share) : unit =
  match s with
  | Shoup_share sh ->
    Wire.Enc.u8 b 0;
    Wire.Enc.int b sh.Crypto.Threshold_sig.origin;
    Wire.Enc.bytes b (Bignum.Nat.to_bytes_be sh.Crypto.Threshold_sig.x_i);
    Wire.Enc.bytes b (Bignum.Nat.to_bytes_be sh.Crypto.Threshold_sig.proof_v);
    Wire.Enc.bytes b (Bignum.Nat.to_bytes_be sh.Crypto.Threshold_sig.proof_x);
    Wire.Enc.bytes b (Bignum.Nat.to_bytes_be sh.Crypto.Threshold_sig.proof_z)
  | Multi_share sh ->
    Wire.Enc.u8 b 1;
    Wire.Enc.int b sh.Crypto.Multi_sig.origin;
    Wire.Enc.bytes b sh.Crypto.Multi_sig.signature

let dec_share (d : Wire.Dec.t) : share =
  match Wire.Dec.u8 d with
  | 0 ->
    let origin = Wire.Dec.int d in
    let x_i = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
    let proof_v = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
    let proof_x = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
    let proof_z = Bignum.Nat.of_bytes_be (Wire.Dec.bytes d) in
    Shoup_share { Crypto.Threshold_sig.origin; x_i; proof_v; proof_x; proof_z }
  | 1 ->
    let origin = Wire.Dec.int d in
    let signature = Wire.Dec.bytes d in
    Multi_share { Crypto.Multi_sig.origin; signature }
  | tag -> Wire.fail "Tsig.dec_share: bad tag %d" tag
