(* Cached and batched verification of shares and assembled signatures.

   Protocol verify paths go through this module so the two amortization
   mechanisms compose in one place:

   - the verified-share cache ([Config.share_cache]): a share or signature
     that already passed verification under the same
     (scheme, statement+share digest, sender, index) key is accepted for
     the price of a hash-table probe, so retransmits, replayed
     justifications and catch-up closings stop re-paying exponentiations;
   - batch verification ([Config.batch_verify]): same-statement share
     proofs are checked as one random-linear-combination equation
     (Crypto.Batch), with bisection isolating bad shares so Byzantine
     senders are still identified exactly.

   Acceptance is EXACTLY that of the reference one-at-a-time verifiers:
   cache keys cover the share bytes (a mutated retransmit misses and is
   verified for real), only shares that passed verification are inserted,
   and Crypto.Batch agrees with the single verifiers item by item.  Only
   the virtual-CPU charges move. *)

(* Cache schemes.  The key's digest covers the statement AND the share
   bytes, so a key identifies one concrete verification, not just a
   (statement, sender) slot — a corrupted retransmit cannot ride on an
   earlier honest share's entry. *)
let sch_tsig_share = "tsig-share"
let sch_tsig_sig = "tsig-sig"
let sch_coin = "coin"
let sch_enc = "enc-share"

let len_sum (parts : string list) : int =
  List.fold_left (fun a s -> a + String.length s) 0 parts

(* --- staged statements --- *)

(* The party's staged statement for (ctx, msg): its framed digest and FDH
   stage are computed at most once while the owning instance lives.
   Host-only — nothing here is charged.  A traced run also marks each
   staging with a "stage" instant naming the statement's digest, so a test
   can check that no statement is staged twice. *)
let stage (rt : Runtime.t) ~(ctx : string) (msg : string) : Crypto.Statement.t =
  let st, hit = Crypto.Statement.stage rt.Runtime.staged ~ctx msg in
  let tr = rt.Runtime.trace in
  if hit then Trace.Ctx.incr tr "verify.stage_hit"
  else begin
    Trace.Ctx.incr tr "verify.stage_miss";
    if Trace.Ctx.enabled tr then
      Trace.Ctx.instant tr ~pid:ctx ~cat:"verify"
        ~args:
          [ ("stmt",
             Trace.Event.Str
               (Hashes.Sha256.hex_of_digest (Crypto.Statement.digest st))) ]
        "stage"
  end;
  st

(* The S5 lint rule (cache-key-digest) checks that every Share_cache
   insertion is keyed through a framed Hashes digest; these are those
   digests.  [charge] names the meter the hashing cost lands on: the
   party's protocol CPU by default, or the storage core when a durability
   endpoint verifies checkpoint certificates out-of-band.

   A key over a staged statement hashes only the statement's digest and
   [extra] (the share or signature bytes), but charges what hashing the
   statement itself would: the simulated CPU pays per byte, as it always
   has; only the host stops rehashing the statement. *)
let key_digest (charge : Charge.t) (st : Crypto.Statement.t) (extra : string)
    : string =
  Charge.hash charge
    ~bytes:(String.length (Crypto.Statement.ctx st)
            + String.length (Crypto.Statement.msg st) + String.length extra);
  Hashes.Sha256.digest_framed [ Crypto.Statement.digest st; extra ]

let parts_digest (charge : Charge.t) (parts : string list) : string =
  Charge.hash charge ~bytes:(len_sum parts);
  Hashes.Sha256.digest_framed parts

let probe (rt : Runtime.t) ~(charge : Charge.t) ~(scheme : string)
    ~(digest : string) ~(sender : int) ~(index : int) : bool =
  rt.Runtime.cfg.Config.share_cache
  && begin
    if Crypto.Share_cache.mem rt.Runtime.cache ~scheme ~digest ~sender ~index
    then begin
      Charge.cache_hit charge;
      Trace.Ctx.incr rt.Runtime.trace "verify.cache_hit";
      true
    end
    else begin
      Trace.Ctx.incr rt.Runtime.trace "verify.cache_miss";
      false
    end
  end

let record (rt : Runtime.t) ~(group : string) ~(scheme : string)
    ~(digest : string) ~(sender : int) ~(index : int) : unit =
  if rt.Runtime.cfg.Config.share_cache then begin
    Crypto.Share_cache.add rt.Runtime.cache ~group ~scheme ~digest ~sender
      ~index;
    Trace.Ctx.gauge rt.Runtime.trace "verify.cache_size"
      (float_of_int (Crypto.Share_cache.size rt.Runtime.cache))
  end

(* --- threshold-signature shares --- *)

(* Release our share on (ctx, msg) through the staged statement, so the
   checks that follow on the same statement reuse its FDH expansion. *)
let tsig_release ?charge ?drbg (rt : Runtime.t) (sec : Tsig.secret)
    ~(ctx : string) (msg : string) : Tsig.share =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let drbg = Option.value drbg ~default:rt.Runtime.drbg in
  Charge.tsig_release charge;
  Tsig.release_prehashed ~drbg sec
    (Crypto.Statement.prehash (stage rt ~ctx msg))

let share_digest (charge : Charge.t) (st : Crypto.Statement.t)
    (share : Tsig.share) : string =
  key_digest charge st (Wire.encode (fun b -> Tsig.enc_share b share))

let tsig_share ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (share : Tsig.share) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let st = stage rt ~ctx msg in
  let digest = share_digest charge st share in
  let sender = Tsig.share_origin share in
  if probe rt ~charge ~scheme:sch_tsig_share ~digest ~sender ~index:sender
  then true
  else begin
    Charge.tsig_verify_share charge;
    let ok = Tsig.verify_share_prehashed pub (Crypto.Statement.prehash st) share in
    if ok then
      record rt ~group:ctx ~scheme:sch_tsig_share ~digest ~sender
        ~index:sender;
    ok
  end

(* Batch-verify same-message shares; [valid.(i)] reports share [i].  The
   combined random-linear-combination equation only exists for Shoup
   shares; multi-signature shares (independent RSA signatures) and
   singleton lists fall back to cached single verification. *)
let tsig_shares ?charge (rt : Runtime.t) ~(pub : Tsig.public) ~(ctx : string)
    (msg : string) (shares : Tsig.share list) : bool array =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let cfg = rt.Runtime.cfg in
  let st = stage rt ~ctx msg in
  let n = List.length shares in
  let valid = Array.make n false in
  let keyed = List.mapi (fun i s -> (i, share_digest charge st s, s)) shares in
  let fresh =
    List.filter
      (fun (i, digest, s) ->
        let sender = Tsig.share_origin s in
        if probe rt ~charge ~scheme:sch_tsig_share ~digest ~sender ~index:sender
        then begin
          valid.(i) <- true;
          false
        end
        else true)
      keyed
  in
  let shoup =
    List.filter_map
      (fun (i, d, s) ->
        match s with
        | Tsig.Shoup_share sh -> Some (i, d, sh)
        | Tsig.Multi_share _ -> None)
      fresh
  in
  let accept (i, digest, s) =
    valid.(i) <- true;
    let sender = Tsig.share_origin s in
    record rt ~group:ctx ~scheme:sch_tsig_share ~digest ~sender ~index:sender
  in
  if cfg.Config.batch_verify
     && List.length shoup = List.length fresh
     && List.length shoup >= 2
  then begin
    let p =
      match pub with
      | Tsig.Shoup_pub p -> p
      | Tsig.Multi_pub _ -> assert false (* shoup shares imply a shoup key *)
    in
    Charge.tsig_verify_share_batch charge ~k:(List.length shoup);
    Trace.Ctx.observe rt.Runtime.trace "verify.batch_size"
      (float_of_int (List.length shoup));
    let bad =
      match
        Crypto.Batch.tsig_shares p ~ctx msg (List.map (fun (_, _, s) -> s) shoup)
      with
      | Crypto.Batch.All_valid -> []
      | Crypto.Batch.Invalid idxs -> idxs
    in
    List.iteri
      (fun j (i, digest, sh) ->
        if not (List.mem j bad) then
          accept (i, digest, Tsig.Shoup_share sh))
      shoup
  end
  else begin
    (* Multi-signature shares of the same message share its staged FDH
       expansion. *)
    let ph = Crypto.Statement.prehash st in
    List.iter
      (fun (i, digest, s) ->
        Charge.tsig_verify_share charge;
        if Tsig.verify_share_prehashed pub ph s then accept (i, digest, s))
      fresh
  end;
  valid

(* --- assembled threshold signatures --- *)

(* Closings and vote justifications repeat the same (statement, signature)
   pair across many messages — the cache collapses all but the first
   verification to a probe. *)
let tsig_signature ?charge (rt : Runtime.t) ~(pub : Tsig.public)
    ~(ctx : string) ~(signature : string) (msg : string) : bool =
  let charge = Option.value charge ~default:rt.Runtime.charge in
  let st = stage rt ~ctx msg in
  let digest = key_digest charge st signature in
  if probe rt ~charge ~scheme:sch_tsig_sig ~digest ~sender:0 ~index:0 then true
  else begin
    Charge.tsig_verify charge ~k:(Tsig.k pub);
    let ok = Tsig.verify_prehashed pub (Crypto.Statement.prehash st) ~signature in
    if ok then
      record rt ~group:ctx ~scheme:sch_tsig_sig ~digest ~sender:0 ~index:0;
    ok
  end

(* --- threshold-decryption shares --- *)

let enc_dec_share (rt : Runtime.t) ~(group : string)
    ~(ct : Crypto.Threshold_enc.ciphertext)
    (s : Crypto.Threshold_enc.dec_share) : bool =
  let pub = rt.Runtime.keys.Dealer.enc_pub in
  let digest =
    parts_digest rt.Runtime.charge
      [ Crypto.Threshold_enc.ciphertext_to_bytes pub ct;
        string_of_int s.Crypto.Threshold_enc.origin;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.u_i;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a1;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.a2;
        Bignum.Nat.to_bytes_be s.Crypto.Threshold_enc.proof.Crypto.Dleq.response
      ]
  in
  let sender = s.Crypto.Threshold_enc.origin in
  if
    probe rt ~charge:rt.Runtime.charge ~scheme:sch_enc ~digest ~sender
      ~index:sender
  then true
  else begin
    Charge.enc_verify_share rt.Runtime.charge;
    let ok = Crypto.Threshold_enc.verify_dec_share pub ct s in
    if ok then record rt ~group ~scheme:sch_enc ~digest ~sender ~index:sender;
    ok
  end

(* --- threshold-coin shares --- *)

let coin_digest (rt : Runtime.t) ~(name : string)
    (s : Crypto.Threshold_coin.share) : string =
  parts_digest rt.Runtime.charge
    [ name;
      string_of_int s.Crypto.Threshold_coin.origin;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.value;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a1;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.a2;
      Bignum.Nat.to_bytes_be s.Crypto.Threshold_coin.proof.Crypto.Dleq.response ]

let coin_share (rt : Runtime.t) ~(group : string) ~(name : string)
    (s : Crypto.Threshold_coin.share) : bool =
  let digest = coin_digest rt ~name s in
  let sender = s.Crypto.Threshold_coin.origin in
  if
    probe rt ~charge:rt.Runtime.charge ~scheme:sch_coin ~digest ~sender
      ~index:sender
  then true
  else begin
    Charge.coin_verify_share rt.Runtime.charge;
    let ok =
      Crypto.Threshold_coin.verify_share rt.Runtime.keys.Dealer.coin_pub ~name
        s
    in
    if ok then record rt ~group ~scheme:sch_coin ~digest ~sender ~index:sender;
    ok
  end

(* Verify a justification's coin shares together: cached shares are
   skipped, the rest go through one RLC batch (or singles when batching is
   off).  Returns whether EVERY share is valid — the all-or-nothing
   contract of a J_coin justification. *)
let coin_shares (rt : Runtime.t) ~(group : string) ~(name : string)
    (shares : Crypto.Threshold_coin.share list) : bool =
  let cfg = rt.Runtime.cfg in
  let pub = rt.Runtime.keys.Dealer.coin_pub in
  let keyed = List.map (fun s -> (coin_digest rt ~name s, s)) shares in
  let fresh =
    List.filter
      (fun (digest, s) ->
        let sender = s.Crypto.Threshold_coin.origin in
        not
          (probe rt ~charge:rt.Runtime.charge ~scheme:sch_coin ~digest ~sender
             ~index:sender))
      keyed
  in
  let accept (digest, s) =
    let sender = s.Crypto.Threshold_coin.origin in
    record rt ~group ~scheme:sch_coin ~digest ~sender ~index:sender
  in
  match fresh with
  | [] -> true
  | _ :: _ when cfg.Config.batch_verify && List.length fresh >= 2 ->
    Charge.coin_verify_share_batch rt.Runtime.charge
      ~k:(List.length fresh);
    Trace.Ctx.observe rt.Runtime.trace "verify.batch_size"
      (float_of_int (List.length fresh));
    (match Crypto.Batch.coin_shares pub ~name (List.map snd fresh) with
     | Crypto.Batch.All_valid ->
       List.iter accept fresh;
       true
     | Crypto.Batch.Invalid bad ->
       (* Bisection proved the complement individually valid: cache it, so
          a justification retransmitted without its bad shares amortizes. *)
       List.iteri (fun j ks -> if not (List.mem j bad) then accept ks) fresh;
       false)
  | _ :: _ ->
    List.for_all
      (fun (digest, s) ->
        Charge.coin_verify_share rt.Runtime.charge;
        let ok = Crypto.Threshold_coin.verify_share pub ~name s in
        if ok then accept (digest, s);
        ok)
      fresh
