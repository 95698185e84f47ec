(* RSA with full-domain-hash signatures.

   Used for (a) each party's ordinary signing key in the atomic broadcast
   protocol, and (b) the multi-signature implementation of threshold
   signatures.  Signing uses the Chinese remainder theorem, the optimization
   the paper credits for the fast multi-signature path. *)

open Bignum

type public = {
  n : Nat.t;
  e : Nat.t;
  n_ctx : Nat.Montgomery.ctx;   (* built once, for every verification *)
}

type secret = {
  pub : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  d_p : Nat.t;       (* d mod p-1 *)
  d_q : Nat.t;       (* d mod q-1 *)
  q_inv : Nat.t;     (* q^{-1} mod p *)
  p_ctx : Nat.Montgomery.ctx;
  q_ctx : Nat.Montgomery.ctx;
}

let public_key ~(n : Nat.t) ~(e : Nat.t) : public = { n; e; n_ctx = Nat.Montgomery.create n }

let default_e = Nat.of_int 65537

let keygen ?(e = default_e) ~(drbg : Hashes.Drbg.t) ~(bits : int) () : secret =
  let random_bytes = Hashes.Drbg.random_bytes drbg in
  let half = bits / 2 in
  let e_big = Bigint.of_nat e in
  let rec gen_factor () =
    let p = Prime.gen_prime ~random_bytes half in
    let p1 = Bigint.of_nat (Nat.sub p Nat.one) in
    if Bigint.equal (Bigint.gcd e_big p1) Bigint.one then p else gen_factor ()
  in
  let p = gen_factor () in
  let rec gen_q () =
    let q = gen_factor () in
    if Nat.equal p q then gen_q () else q
  in
  let q = gen_q () in
  let p, q = if Nat.compare p q >= 0 then p, q else q, p in
  let n = Nat.mul p q in
  let p1 = Nat.sub p Nat.one and q1 = Nat.sub q Nat.one in
  let phi = Nat.mul p1 q1 in
  let d = Bigint.to_nat (Bigint.invmod e_big (Bigint.of_nat phi)) in
  let q_inv = Bigint.to_nat (Bigint.invmod (Bigint.of_nat q) (Bigint.of_nat p)) in
  {
    pub = public_key ~n ~e;
    d; p; q;
    d_p = Nat.rem d p1;
    d_q = Nat.rem d q1;
    q_inv;
    p_ctx = Nat.Montgomery.create p;
    q_ctx = Nat.Montgomery.create q;
  }

let signature_bytes (pub : public) : int = (Nat.numbits pub.n + 7) / 8

(* Full-domain hash of a message into [0, n), domain-separated by a context
   string (the protocol identifier in SINTRA), in two steps.  The expansion
   is [fdh_blocks] SHA-256 blocks in counter mode (at least 8 bytes longer
   than n), so it depends only on ctx, msg and n's byte length through the
   block count; only the final reduction depends on n. *)
let fdh_blocks (pub : public) : int = (signature_bytes pub + 8 + 31) / 32

let fdh_expand ~(ctx : string) ~(nblocks : int) (msg : string) : Nat.t =
  let buf = Buffer.create (32 * nblocks) in
  for i = 0 to nblocks - 1 do
    Buffer.add_string buf
      (Hashes.Sha256.digest_list
         [ "rsa-fdh|"; ctx; "|"; string_of_int i; "|"; msg ])
  done;
  Nat.of_bytes_be (Buffer.contents buf)

(* A staged message: its expansions, by block count, so that checking
   signatures from many keys hashes the message once per distinct count;
   and the (key, signature) pairs already verified against it.  A key has
   exactly one valid signature on a message (s < n, fixed width, and
   s -> s^e is a permutation), so [passed] holds at most one pair per key. *)
type prehash = {
  ph_ctx : string;
  ph_msg : string;
  mutable expanded : (int * Nat.t) list;
  mutable passed : (public * string) list;
}

let prehash ~(ctx : string) (msg : string) : prehash =
  { ph_ctx = ctx; ph_msg = msg; expanded = []; passed = [] }

let fdh_prehashed (pub : public) (ph : prehash) : Nat.t =
  let nblocks = fdh_blocks pub in
  let x =
    match List.assoc_opt nblocks ph.expanded with
    | Some x -> x
    | None ->
      let x = fdh_expand ~ctx:ph.ph_ctx ~nblocks ph.ph_msg in
      ph.expanded <- (nblocks, x) :: ph.expanded;
      x
  in
  Nat.rem x pub.n

let fdh (pub : public) ~(ctx : string) (msg : string) : Nat.t =
  fdh_prehashed pub (prehash ~ctx msg)

(* CRT exponentiation x^d mod n. *)
let crt_power (sk : secret) (x : Nat.t) : Nat.t =
  let mp = Nat.Montgomery.powmod sk.p_ctx x sk.d_p in
  let mq = Nat.Montgomery.powmod sk.q_ctx x sk.d_q in
  (* h = q_inv * (mp - mq) mod p *)
  let diff = Bigint.erem (Bigint.sub (Bigint.of_nat mp) (Bigint.of_nat mq)) (Bigint.of_nat sk.p) in
  let h = Nat.rem (Nat.mul sk.q_inv (Bigint.to_nat diff)) sk.p in
  Nat.add mq (Nat.mul h sk.q)

let sign_prehashed (sk : secret) (ph : prehash) : string =
  Nat.to_bytes_be ~len:(signature_bytes sk.pub) (crt_power sk (fdh_prehashed sk.pub ph))

let sign (sk : secret) ~(ctx : string) (msg : string) : string =
  sign_prehashed sk (prehash ~ctx msg)

let same_key (a : public) (b : public) : bool = Nat.equal a.n b.n && Nat.equal a.e b.e

(* A pair that passed before is accepted by a list probe; a pair that
   passes now is recorded. *)
let verify_prehashed (pub : public) (ph : prehash) ~(signature : string) : bool =
  List.exists (fun (k, s) -> same_key k pub && String.equal s signature) ph.passed
  || begin
    let ok =
      String.length signature = signature_bytes pub
      && begin
        let s = Nat.of_bytes_be signature in
        Nat.compare s pub.n < 0
        && Nat.equal (Nat.Montgomery.powmod pub.n_ctx s pub.e) (fdh_prehashed pub ph)
      end
    in
    if ok then ph.passed <- (pub, signature) :: ph.passed;
    ok
  end

let verify (pub : public) ~(ctx : string) ~(signature : string) (msg : string) : bool =
  verify_prehashed pub (prehash ~ctx msg) ~signature

let public_to_bytes (pub : public) : string =
  let nb = Nat.to_bytes_be pub.n and eb = Nat.to_bytes_be pub.e in
  Printf.sprintf "%d|%d|" (String.length nb) (String.length eb) ^ nb ^ eb
