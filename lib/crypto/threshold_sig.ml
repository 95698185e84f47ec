(* Shoup's practical RSA threshold signatures (EUROCRYPT 2000).

   Dealer: a safe-prime RSA modulus n = pq with p = 2p'+1, q = 2q'+1 and
   secret group order m = p'q'; public exponent e (prime, coprime to m);
   d = e^{-1} mod m shared with a degree-(k-1) polynomial over Z_m.
   Verification keys v (a generator of the cyclic group QR_n) and
   v_i = v^{s_i}.

   To sign a message hash x in Z_n*, party i releases
       x_i = x^{2*Delta*s_i} mod n,   Delta = nparties!
   together with a non-interactive proof (over the unknown-order group, so
   the response is an integer, not reduced) that
       log_{x^{4 Delta}} (x_i^2)  =  log_v (v_i).
   Any k valid shares combine by integer-Lagrange interpolation in the
   exponent to w = x^{4 Delta^2 d}; since gcd(4 Delta^2, e) = 1, an extended
   GCD step recovers y = x^d — a *standard* RSA signature verifiable with
   (n, e) alone, exactly as the paper requires. *)

open Bignum

type public = {
  rsa : Rsa.public;             (* RSA modulus n and prime public exponent e *)
  nparties : int;
  k : int;
  t : int;
  v : Nat.t;                    (* verification base, generator of QR_n *)
  vks : Nat.t array;            (* v_i = v^{s_i}, index i-1 *)
  v_tbl : Nat.Fixed_base.ctx;   (* fixed-base table for v, covering z = s_i*c + r *)
}

type secret_share = {
  index : int;                  (* 1-based *)
  s_i : Nat.t;                  (* polynomial share of d, mod m *)
}

(* The correctness proof carries its two Fiat-Shamir commitments (v^r and
   xtilde^r) and the integer response; the challenge is recomputed by the
   verifier as c = H(..., v', x').  Commitment-carrying proofs make the
   verification equations v^z = v' * v_i^c and xtilde^z = x' * (x_i^2)^c
   algebraic in the proof components — checkable for many shares at once by
   a small-exponent random linear combination (see {!Batch}), and with no
   modular inversions even one at a time. *)
type share = {
  origin : int;
  x_i : Nat.t;                  (* x^{2 Delta s_i} *)
  proof_v : Nat.t;              (* commitment v^r *)
  proof_x : Nat.t;              (* commitment xtilde^r *)
  proof_z : Nat.t;              (* integer response z = s_i*c + r *)
}

type keys = { public : public; shares : secret_share array }

let challenge_bits = 256

let deal ?(e = Nat.of_int 65537) ~(drbg : Hashes.Drbg.t) ~(modulus_bits : int) ~nparties ~k ~t ()
    : keys =
  if not (k > t && k <= nparties - t) then
    invalid_arg "Threshold_sig.deal: need t < k <= n - t";
  let random_bytes = Hashes.Drbg.random_bytes drbg in
  let half = modulus_bits / 2 in
  let p = Prime.gen_safe_prime ~random_bytes half in
  let rec gen_q () =
    let q = Prime.gen_safe_prime ~random_bytes half in
    if Nat.equal p q then gen_q () else q
  in
  let q = gen_q () in
  let n_mod = Nat.mul p q in
  let p' = Nat.shift_right (Nat.sub p Nat.one) 1 in
  let q' = Nat.shift_right (Nat.sub q Nat.one) 1 in
  let m = Nat.mul p' q' in
  let d = Bigint.to_nat (Bigint.invmod (Bigint.of_nat e) (Bigint.of_nat m)) in
  let shamir = Shamir.share_secret ~drbg ~modulus:m ~secret:d ~n:nparties ~k in
  (* v: square of a random unit is a QR; with overwhelming probability a
     generator of the cyclic group QR_n (order p'q'). *)
  let v =
    let r = Nat.add Nat.two (Nat.random_below ~random_bytes (Nat.sub n_mod (Nat.of_int 4))) in
    Nat.rem (Nat.sqr r) n_mod
  in
  (* Proof exponents reach z = s_i*c + r < 2^(|n| + 2*challenge_bits + 1);
     build v's window table wide enough that every v-power in release and
     verify_share is a table hit. *)
  let v_tbl =
    Nat.Fixed_base.create ~base:v ~modulus:n_mod
      ~max_bits:(Nat.numbits n_mod + (2 * challenge_bits) + 1)
  in
  let vks = Array.map (fun s -> Nat.Fixed_base.pow v_tbl s.Shamir.value) shamir in
  {
    public = { rsa = Rsa.public_key ~n:n_mod ~e; nparties; k; t; v; vks; v_tbl };
    shares = Array.map (fun s -> { index = s.Shamir.index; s_i = s.Shamir.value }) shamir;
  }

let delta (pub : public) : Nat.t = Shamir.delta pub.nparties

(* The value being signed: a full-domain hash of the message into Z_n,
   domain-separated by the protocol context. *)
let message_rep (pub : public) ~(ctx : string) (msg : string) : Nat.t =
  Rsa.fdh pub.rsa ~ctx msg

let hash_challenge (parts : Nat.t list) : Nat.t =
  let joined =
    String.concat "\x00" (List.map (fun p -> Nat.to_bytes_be p) parts)
  in
  let b0 = Hashes.Sha256.digest_list [ "tsig-chal|0|"; joined ] in
  let b1 = Hashes.Sha256.digest_list [ "tsig-chal|1|"; joined ] in
  Nat.shift_right (Nat.of_bytes_be (b0 ^ b1)) (512 - challenge_bits)

let release ~(drbg : Hashes.Drbg.t) (pub : public) (sk : secret_share) ~(ctx : string)
    (msg : string) : share =
  let x = message_rep pub ~ctx msg in
  let dlt = delta pub in
  let two_delta = Nat.shift_left dlt 1 in
  let n = pub.rsa.Rsa.n and pow = Nat.Montgomery.powmod pub.rsa.Rsa.n_ctx in
  let x_i = pow x (Nat.mul two_delta sk.s_i) in
  (* Proof of correctness over the unknown-order group QR_n. *)
  let xtilde = pow x (Nat.shift_left dlt 2) in
  let x_i_sq = Nat.rem (Nat.sqr x_i) n in
  (* r is drawn from [0, 2^(nbits + 2*challenge_bits)) so that z = s_i*c + r
     statistically hides s_i * c. *)
  let rbits = Nat.numbits n + 2 * challenge_bits in
  let r = Nat.random_bits ~random_bytes:(Hashes.Drbg.random_bytes drbg) rbits in
  let v' = Nat.Fixed_base.pow pub.v_tbl r in
  let x' = pow xtilde r in
  let c = hash_challenge [ pub.v; xtilde; pub.vks.(sk.index - 1); x_i_sq; v'; x' ] in
  let z = Nat.add (Nat.mul sk.s_i c) r in
  { origin = sk.index; x_i; proof_v = v'; proof_x = x'; proof_z = z }

(* The challenge a share's proof is checked against, given the message
   representative's xtilde = x^{4 Delta} (shared by every share on the same
   message — batch verification computes it once). *)
let share_challenge (pub : public) ~(xtilde : Nat.t) (s : share) : Nat.t =
  let x_i_sq = Nat.rem (Nat.sqr s.x_i) pub.rsa.Rsa.n in
  hash_challenge [ pub.v; xtilde; pub.vks.(s.origin - 1); x_i_sq; s.proof_v; s.proof_x ]

let xtilde_rep (pub : public) ~(ctx : string) (msg : string) : Nat.t =
  let x = message_rep pub ~ctx msg in
  Nat.Montgomery.powmod pub.rsa.Rsa.n_ctx x (Nat.shift_left (delta pub) 2)

let verify_share (pub : public) ~(ctx : string) (msg : string) (s : share) : bool =
  s.origin >= 1 && s.origin <= pub.nparties
  && Nat.compare s.x_i pub.rsa.Rsa.n < 0
  && not (Nat.is_zero s.x_i)
  && begin
    let n = pub.rsa.Rsa.n and pow = Nat.Montgomery.powmod pub.rsa.Rsa.n_ctx in
    let xtilde = xtilde_rep pub ~ctx msg in
    let x_i_sq = Nat.rem (Nat.sqr s.x_i) n in
    let c = share_challenge pub ~xtilde s in
    (* Check v^z = v' * v_i^c and xtilde^z = x' * (x_i^2)^c.  All exponents
       positive — no inversions; v^z hits v's fixed-base table (no
       squarings over the |n|+512-bit z) and the c-powers are short
       (challenge_bits).  Out-of-range commitments reject on the compare:
       the recomputed sides are reduced mod n. *)
    Nat.equal (Nat.Fixed_base.pow pub.v_tbl s.proof_z)
      (Nat.rem (Nat.mul s.proof_v (pow pub.vks.(s.origin - 1) c)) n)
    && Nat.equal (pow xtilde s.proof_z) (Nat.rem (Nat.mul s.proof_x (pow x_i_sq c)) n)
  end

(* The textbook verification path: both equations by plain modular
   exponentiation, no fixed-base table — the reference twin of
   {!verify_share} (compare {!Dleq.verify_reference}).  The equivalence
   tests hold the production and batch paths to exactly this accept set,
   and the amortization benchmarks measure k-share batch verification
   against k of these. *)
let verify_share_reference (pub : public) ~(ctx : string) (msg : string)
    (s : share) : bool =
  s.origin >= 1 && s.origin <= pub.nparties
  && Nat.compare s.x_i pub.rsa.Rsa.n < 0
  && not (Nat.is_zero s.x_i)
  && begin
    let n = pub.rsa.Rsa.n in
    let xtilde = xtilde_rep pub ~ctx msg in
    let x_i_sq = Nat.rem (Nat.sqr s.x_i) n in
    let c = share_challenge pub ~xtilde s in
    Nat.equal (Nat.powmod pub.v s.proof_z n)
      (Nat.rem (Nat.mul s.proof_v (Nat.powmod pub.vks.(s.origin - 1) c n)) n)
    && Nat.equal (Nat.powmod xtilde s.proof_z n)
         (Nat.rem (Nat.mul s.proof_x (Nat.powmod x_i_sq c n)) n)
  end

(* Combine k verified shares into a standard RSA signature on the FDH of
   [msg]: a string verifiable by {!verify}. *)
let assemble (pub : public) ~(ctx : string) (msg : string) (shares : share list) : string =
  let seen = Hashtbl.create 8 in
  let shares =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.origin || Hashtbl.length seen >= pub.k then false
        else begin Hashtbl.add seen s.origin (); true end)
      shares
  in
  if List.length shares < pub.k then invalid_arg "Threshold_sig.assemble: not enough distinct shares";
  let x = message_rep pub ~ctx msg in
  let points = List.map (fun s -> s.origin) shares in
  let nb = Bigint.of_nat pub.rsa.Rsa.n in
  (* w = prod x_i^{2 lambda_i}: one k-way multi-exponentiation per sign
     (the integer Lagrange coefficients are signed), then a single
     inversion folds the negative-exponent half in — against k separate
     signed powmods, the shared squaring chain does the combination in
     ~1/3 the multiplications at k = 3. *)
  let pos, neg =
    List.fold_left
      (fun (pos, neg) s ->
        let lam =
          Shamir.integer_lagrange_coeff ~n:pub.nparties ~points ~j:s.origin ~at:0
        in
        let e2 = Bigint.shift_left lam 1 in
        if Bigint.is_neg e2 then (pos, (s.x_i, Bigint.to_nat (Bigint.abs e2)) :: neg)
        else ((s.x_i, Bigint.to_nat e2) :: pos, neg))
      ([], []) shares
  in
  let p_part = Nat.Montgomery.powmod_multi pub.rsa.Rsa.n_ctx pos in
  let w =
    if neg = [] then Bigint.of_nat p_part
    else begin
      let n_part = Nat.Montgomery.powmod_multi pub.rsa.Rsa.n_ctx neg in
      Bigint.erem
        (Bigint.mul (Bigint.of_nat p_part)
           (Bigint.invmod (Bigint.of_nat n_part) nb))
        nb
    end
  in
  (* w = x^{e' d} with e' = 4*Delta^2; recover y = x^d via egcd(e', e) = 1. *)
  let dlt = Bigint.of_nat (delta pub) in
  let e' = Bigint.shift_left (Bigint.mul dlt dlt) 2 in
  let g, a, b = Bigint.egcd e' (Bigint.of_nat pub.rsa.Rsa.e) in
  if not (Bigint.equal g Bigint.one) then invalid_arg "Threshold_sig.assemble: gcd(e', e) <> 1";
  let y =
    Bigint.erem
      (Bigint.mul (Bigint.powmod_signed w a nb)
         (Bigint.powmod_signed (Bigint.of_nat x) b nb))
      nb
  in
  let nbytes = (Nat.numbits pub.rsa.Rsa.n + 7) / 8 in
  Nat.to_bytes_be ~len:nbytes (Bigint.to_nat y)

(* Verify an assembled signature: plain RSA verification, usable by anyone
   holding only (n, e). *)
let verify (pub : public) ~(ctx : string) ~(signature : string) (msg : string) : bool =
  Rsa.verify pub.rsa ~ctx ~signature msg

let signature_bytes (pub : public) : int = (Nat.numbits pub.rsa.Rsa.n + 7) / 8
