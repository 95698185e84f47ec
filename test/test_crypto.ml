(* Tests for the threshold-cryptography layer. *)

open Crypto

let drbg = Util.drbg ~seed:"crypto-tests" ()

(* Shared fixtures (key generation dominates runtime). *)
let group = lazy (Group.generate ~drbg:(Hashes.Drbg.fork drbg "grp") ~pbits:256 ~qbits:96)

let coin_keys =
  lazy (Threshold_coin.deal ~drbg:(Hashes.Drbg.fork drbg "coin") ~group:(Lazy.force group)
          ~n:4 ~k:2 ~t:1)

let tsig_keys =
  lazy (Threshold_sig.deal ~drbg:(Hashes.Drbg.fork drbg "tsig") ~modulus_bits:256
          ~nparties:4 ~k:3 ~t:1 ())

let msig_keys =
  lazy (Multi_sig.deal ~drbg:(Hashes.Drbg.fork drbg "msig") ~modulus_bits:256
          ~nparties:4 ~k:3 ~t:1 ())

let enc_keys =
  lazy (Threshold_enc.deal ~drbg:(Hashes.Drbg.fork drbg "enc") ~group:(Lazy.force group)
          ~n:4 ~k:2 ~t:1)

let rsa_key = lazy (Rsa.keygen ~drbg:(Hashes.Drbg.fork drbg "rsa") ~bits:256 ())

let nat = Alcotest.testable Bignum.Nat.pp Bignum.Nat.equal

let group_tests = [
  Alcotest.test_case "group law" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "law" in
    let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    let b = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    Alcotest.check nat "commute" (Group.mul g a b) (Group.mul g b a);
    Alcotest.check nat "identity" a (Group.mul g a (Group.one g));
    Alcotest.check nat "inverse" (Group.one g) (Group.mul g a (Group.inv g a));
    Alcotest.check nat "div" b (Group.div g (Group.mul g a b) a));

  Alcotest.test_case "pow laws" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "pow" in
    let x = Group.random_exponent g ~drbg:d in
    let y = Group.random_exponent g ~drbg:d in
    let gx = Group.pow_g g x in
    Alcotest.check nat "g^x^y = g^y^x"
      (Group.pow g gx y) (Group.pow g (Group.pow_g g y) x);
    Alcotest.check nat "members have order q"
      (Group.one g) (Group.pow g gx g.Group.q));

  Alcotest.test_case "membership" `Quick (fun () ->
    let g = Lazy.force group in
    Alcotest.(check bool) "generator" true (Group.is_member g g.Group.g);
    Alcotest.(check bool) "zero" false (Group.is_member g Bignum.Nat.zero);
    Alcotest.(check bool) "p" false (Group.is_member g g.Group.p);
    (* an element outside the order-q subgroup *)
    let outside = Bignum.Nat.of_int 2 in
    let member = Group.is_member g outside in
    let check = Bignum.Nat.equal (Bignum.Nat.powmod outside g.Group.q g.Group.p) Bignum.Nat.one in
    Alcotest.(check bool) "subgroup test consistent" check member);

  Alcotest.test_case "hash_to_group lands in subgroup" `Quick (fun () ->
    let g = Lazy.force group in
    List.iter
      (fun s ->
        let e = Group.hash_to_group g s in
        Alcotest.(check bool) s true (Group.is_member g e))
      [ ""; "a"; "coin|42"; String.make 1000 'z' ];
    Alcotest.(check bool) "distinct inputs distinct points" true
      (not (Bignum.Nat.equal (Group.hash_to_group g "a") (Group.hash_to_group g "b")));
    Alcotest.check nat "deterministic" (Group.hash_to_group g "a") (Group.hash_to_group g "a"));

  Alcotest.test_case "hash_to_exponent below q" `Quick (fun () ->
    let g = Lazy.force group in
    for i = 0 to 20 do
      let e = Group.hash_to_exponent g [ "x"; string_of_int i ] in
      if Bignum.Nat.compare e g.Group.q >= 0 then Alcotest.fail "exponent out of range"
    done);

  Alcotest.test_case "elt bytes roundtrip" `Quick (fun () ->
    let g = Lazy.force group in
    let e = Group.hash_to_group g "roundtrip" in
    Alcotest.check nat "same" e (Group.elt_of_bytes (Group.elt_to_bytes g e)));
]

let fastpath_tests = [
  Alcotest.test_case "mul_exp2 equals product of powers" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "exp2" in
    for _ = 1 to 10 do
      let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
      let b = Group.pow_g g (Group.random_exponent g ~drbg:d) in
      let ea = Group.random_exponent g ~drbg:d in
      let eb = Group.random_exponent g ~drbg:d in
      Alcotest.check nat "a^ea * b^eb"
        (Group.mul g (Group.pow g a ea) (Group.pow g b eb))
        (Group.mul_exp2 g a ea b eb)
    done);

  Alcotest.test_case "precompute table matches plain pow" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "tbl" in
    let a = Group.pow_g g (Group.random_exponent g ~drbg:d) in
    let tbl = Group.precompute g a in
    for _ = 1 to 10 do
      let e = Group.random_exponent g ~drbg:d in
      Alcotest.check nat "a^e" (Group.pow g a e) (Group.pow_table tbl e)
    done;
    (* the group's own generator table agrees with pow_g *)
    let e = Group.random_exponent g ~drbg:d in
    Alcotest.check nat "g table" (Group.pow_g g e) (Group.pow_table g.Group.g_tbl e));

  Alcotest.test_case "dleq fast verify == reference verify" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq-eq" in
    for i = 1 to 10 do
      let x = Group.random_exponent g ~drbg:d in
      let g2 = Group.hash_to_group g (Printf.sprintf "base-%d" i) in
      let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
      let h1_tbl = Group.precompute g h1 in
      let ctx = Printf.sprintf "ctx-%d" i in
      let pf = Dleq.prove g ~drbg:d ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
      (* honest proofs: both verifiers accept *)
      List.iter
        (fun (label, ok) -> Alcotest.(check bool) label true ok)
        [ "fast", Dleq.verify g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 pf;
          "fast+tbl", Dleq.verify g ~ctx ~h1_tbl ~g1:g.Group.g ~h1 ~g2 ~h2 pf;
          "reference", Dleq.verify_reference g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 pf ];
      (* forged proofs: both verifiers agree (and reject) *)
      let tweak = Bignum.Nat.rem (Bignum.Nat.add pf.Dleq.response Bignum.Nat.one) g.Group.q in
      let forged = [
        { pf with Dleq.response = tweak };
        { pf with Dleq.a1 = Group.mul g pf.Dleq.a1 g.Group.g };
        { pf with Dleq.a2 = Group.mul g pf.Dleq.a2 g.Group.g };
        { Dleq.a1 = Group.one g; a2 = Group.one g; response = Bignum.Nat.zero };
      ] in
      List.iter
        (fun bad ->
          let fast = Dleq.verify g ~ctx ~h1_tbl ~g1:g.Group.g ~h1 ~g2 ~h2 bad in
          let slow = Dleq.verify_reference g ~ctx ~g1:g.Group.g ~h1 ~g2 ~h2 bad in
          Alcotest.(check bool) "verifiers agree" slow fast;
          Alcotest.(check bool) "forgery rejected" false fast)
        forged
    done);

  Alcotest.test_case "make rejects an even modulus" `Quick (fun () ->
    (* Montgomery arithmetic needs gcd(p, 2^64) = 1; Group.make must refuse
       an even p before any table is built on top of it. *)
    let even_p = Bignum.Nat.of_int 22 and q = Bignum.Nat.of_int 7 in
    Alcotest.check_raises "even p"
      (Invalid_argument "Group.make: modulus must be odd")
      (fun () -> ignore (Group.make ~p:even_p ~q ~g:(Bignum.Nat.of_int 2))));
]

let shamir_tests = [
  Alcotest.test_case "interpolation recovers secret" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 424242 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh1") ~modulus:q ~secret ~n:5 ~k:3
    in
    let open Shamir in
    (* every 3-subset recovers the secret *)
    let subsets = [ [0;1;2]; [0;2;4]; [1;3;4]; [2;3;4] ] in
    List.iter
      (fun idx ->
        let sel = List.map (fun i -> shares.(i)) idx in
        Alcotest.check nat "recovered" secret (interpolate ~modulus:q ~shares:sel ~at:0))
      subsets);

  Alcotest.test_case "k-1 shares give a different polynomial" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 7 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh2") ~modulus:q ~secret ~n:5 ~k:3
    in
    (* interpolating only 2 shares yields the line through them - almost
       surely not the secret *)
    let sel = [ shares.(0); shares.(1) ] in
    Alcotest.(check bool) "wrong" false
      (Bignum.Nat.equal secret (Shamir.interpolate ~modulus:q ~shares:sel ~at:0)));

  Alcotest.test_case "interpolate at share points" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    let secret = Bignum.Nat.of_int 99 in
    let shares =
      Shamir.share_secret ~drbg:(Hashes.Drbg.fork drbg "sh3") ~modulus:q ~secret ~n:4 ~k:2
    in
    let sel = [ shares.(1); shares.(3) ] in
    Alcotest.check nat "f(1)" shares.(0).Shamir.value
      (Shamir.interpolate ~modulus:q ~shares:sel ~at:1));

  Alcotest.test_case "rejects bad parameters" `Quick (fun () ->
    let q = (Lazy.force group).Group.q in
    Alcotest.check_raises "k > n" (Invalid_argument "Shamir.share_secret: need 1 <= k <= n")
      (fun () ->
        ignore
          (Shamir.share_secret ~drbg ~modulus:q ~secret:Bignum.Nat.one ~n:3 ~k:4)));

  Alcotest.test_case "integer lagrange coefficients are integral" `Quick (fun () ->
    (* Delta-scaled coefficients must divide exactly for every subset. *)
    List.iter
      (fun points ->
        List.iter
          (fun j ->
            ignore (Shamir.integer_lagrange_coeff ~n:7 ~points ~j ~at:0))
          points)
      [ [1;2;3]; [2;4;6]; [1;5;7]; [3;4;5;6;7] ]);

  Alcotest.test_case "delta is n!" `Quick (fun () ->
    Alcotest.check nat "5!" (Bignum.Nat.of_int 120) (Shamir.delta 5);
    Alcotest.check nat "1" Bignum.Nat.one (Shamir.delta 1));
]

let dleq_tests = [
  Alcotest.test_case "honest proof verifies" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq1" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "ok" true
      (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "wrong statement rejected" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq2" in
    let x = Group.random_exponent g ~drbg:d in
    let y = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 y in (* unequal logs *)
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "rejected" false
      (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "context separation" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq3" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"ctx-A" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    Alcotest.(check bool) "other ctx rejected" false
      (Dleq.verify g ~ctx:"ctx-B" ~g1:g.Group.g ~h1 ~g2 ~h2 proof));

  Alcotest.test_case "serialization roundtrip" `Quick (fun () ->
    let g = Lazy.force group in
    let d = Hashes.Drbg.fork drbg "dleq4" in
    let x = Group.random_exponent g ~drbg:d in
    let g2 = Group.hash_to_group g "second base" in
    let h1 = Group.pow_g g x and h2 = Group.pow g g2 x in
    let proof = Dleq.prove g ~drbg:d ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 ~x in
    match Dleq.of_bytes g (Dleq.to_bytes g proof) with
    | None -> Alcotest.fail "roundtrip failed"
    | Some p ->
      Alcotest.(check bool) "still verifies" true
        (Dleq.verify g ~ctx:"c" ~g1:g.Group.g ~h1 ~g2 ~h2 p));
]

let coin_tests =
  let release i name =
    let keys = Lazy.force coin_keys in
    Threshold_coin.release ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "c%d%s" i name))
      keys.Threshold_coin.public keys.Threshold_coin.shares.(i) ~name
  in
  [
    Alcotest.test_case "shares verify" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      for i = 0 to 3 do
        Alcotest.(check bool) (string_of_int i) true
          (Threshold_coin.verify_share keys.Threshold_coin.public ~name:"n1" (release i "n1"))
      done);

    Alcotest.test_case "share for another coin rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      Alcotest.(check bool) "cross-name" false
        (Threshold_coin.verify_share keys.Threshold_coin.public ~name:"n2" (release 0 "n1")));

    Alcotest.test_case "all k-subsets agree" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let shares = List.init 4 (fun i -> release i "flip") in
      let value pair = Threshold_coin.assemble pub ~name:"flip" pair ~len:16 in
      let pairs =
        [ [List.nth shares 0; List.nth shares 1];
          [List.nth shares 0; List.nth shares 2];
          [List.nth shares 1; List.nth shares 3];
          [List.nth shares 2; List.nth shares 3] ]
      in
      let values = List.map value pairs in
      Util.check_all_equal "coin value" values);

    Alcotest.test_case "different names give independent coins" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let v name = Threshold_coin.assemble pub ~name [ release 0 name; release 1 name ] ~len:16 in
      Alcotest.(check bool) "differ" true (v "name-a" <> v "name-b"));

    Alcotest.test_case "insufficient shares rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      Alcotest.check_raises "1 < k"
        (Invalid_argument "Threshold_coin.assemble: not enough distinct shares")
        (fun () -> ignore (Threshold_coin.assemble pub ~name:"x" [ release 0 "x" ] ~len:1)));

    Alcotest.test_case "duplicate origins do not count twice" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let s = release 0 "dup" in
      Alcotest.check_raises "dup"
        (Invalid_argument "Threshold_coin.assemble: not enough distinct shares")
        (fun () -> ignore (Threshold_coin.assemble pub ~name:"dup" [ s; s ] ~len:1)));

    Alcotest.test_case "tampered share rejected" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let s = release 0 "tamper" in
      let bad = { s with Threshold_coin.value = Group.pow pub.Threshold_coin.group s.Threshold_coin.value (Bignum.Nat.of_int 2) } in
      Alcotest.(check bool) "rejected" false
        (Threshold_coin.verify_share pub ~name:"tamper" bad));

    Alcotest.test_case "coin bits are roughly balanced" `Quick (fun () ->
      let keys = Lazy.force coin_keys in
      let pub = keys.Threshold_coin.public in
      let ones = ref 0 in
      for i = 0 to 99 do
        let name = Printf.sprintf "bal-%d" i in
        if Threshold_coin.assemble_bit pub ~name [ release 0 name; release 1 name ]
        then incr ones
      done;
      if !ones < 25 || !ones > 75 then
        Alcotest.failf "coin badly biased: %d/100 ones" !ones);
  ]

let rsa_tests = [
  Alcotest.test_case "sign/verify roundtrip" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let s = Rsa.sign sk ~ctx:"ctx" "message" in
    Alcotest.(check bool) "ok" true (Rsa.verify sk.Rsa.pub ~ctx:"ctx" ~signature:s "message");
    Alcotest.(check bool) "wrong msg" false
      (Rsa.verify sk.Rsa.pub ~ctx:"ctx" ~signature:s "other");
    Alcotest.(check bool) "wrong ctx" false
      (Rsa.verify sk.Rsa.pub ~ctx:"ctx2" ~signature:s "message"));

  Alcotest.test_case "signature length and garbage rejection" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let s = Rsa.sign sk ~ctx:"c" "m" in
    Alcotest.(check int) "length" (Rsa.signature_bytes sk.Rsa.pub) (String.length s);
    Alcotest.(check bool) "short" false
      (Rsa.verify sk.Rsa.pub ~ctx:"c" ~signature:"short" "m");
    Alcotest.(check bool) "zeros" false
      (Rsa.verify sk.Rsa.pub ~ctx:"c" ~signature:(String.make (String.length s) '\000') "m"));

  Alcotest.test_case "crt power equals plain power" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    let x = Bignum.Nat.of_int 123456789 in
    Alcotest.check nat "equal"
      (Bignum.Nat.powmod x sk.Rsa.d sk.Rsa.pub.Rsa.n)
      (Rsa.crt_power sk x));

  Alcotest.test_case "fdh stays below modulus" `Quick (fun () ->
    let sk = Lazy.force rsa_key in
    for i = 0 to 20 do
      let h = Rsa.fdh sk.Rsa.pub ~ctx:"c" (string_of_int i) in
      if Bignum.Nat.compare h sk.Rsa.pub.Rsa.n >= 0 then Alcotest.fail "fdh out of range"
    done);
]

let tsig_tests =
  let release i msg =
    let keys = Lazy.force tsig_keys in
    Threshold_sig.release ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "t%d%s" i msg))
      keys.Threshold_sig.public keys.Threshold_sig.shares.(i) ~ctx:"pid" msg
  in
  [
    Alcotest.test_case "shares verify, cross-message rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      let s = release 0 "m" in
      Alcotest.(check bool) "good" true (Threshold_sig.verify_share pub ~ctx:"pid" "m" s);
      Alcotest.(check bool) "wrong msg" false (Threshold_sig.verify_share pub ~ctx:"pid" "m2" s);
      Alcotest.(check bool) "wrong ctx" false (Threshold_sig.verify_share pub ~ctx:"pid2" "m" s));

    Alcotest.test_case "assembled signature is standard RSA and subset-independent" `Quick
      (fun () ->
        let keys = Lazy.force tsig_keys in
        let pub = keys.Threshold_sig.public in
        let shares = List.init 4 (fun i -> release i "payload") in
        let pick idx = List.map (List.nth shares) idx in
        let s1 = Threshold_sig.assemble pub ~ctx:"pid" "payload" (pick [0;1;2]) in
        let s2 = Threshold_sig.assemble pub ~ctx:"pid" "payload" (pick [1;2;3]) in
        let s3 = Threshold_sig.assemble pub ~ctx:"pid" "payload" (pick [0;2;3]) in
        (* x^d mod n is unique, so different share subsets must produce the
           identical standard RSA signature. *)
        Alcotest.(check string) "subset independence 1" s1 s2;
        Alcotest.(check string) "subset independence 2" s1 s3;
        Alcotest.(check bool) "verifies" true
          (Threshold_sig.verify pub ~ctx:"pid" ~signature:s1 "payload");
        (* and it verifies as a plain RSA signature under (n, e) *)
        Alcotest.(check bool) "plain RSA" true
          (let rsa = pub.Threshold_sig.rsa in
           Rsa.verify (Rsa.public_key ~n:rsa.Rsa.n ~e:rsa.Rsa.e)
             ~ctx:"pid" ~signature:s1 "payload"));

    Alcotest.test_case "too few shares rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      Alcotest.check_raises "2 < 3"
        (Invalid_argument "Threshold_sig.assemble: not enough distinct shares")
        (fun () ->
          ignore (Threshold_sig.assemble pub ~ctx:"pid" "m" [ release 0 "m"; release 1 "m" ])));

    Alcotest.test_case "forged share rejected" `Quick (fun () ->
      let keys = Lazy.force tsig_keys in
      let pub = keys.Threshold_sig.public in
      let s = release 1 "m" in
      let bad = { s with Threshold_sig.x_i = Bignum.Nat.add s.Threshold_sig.x_i Bignum.Nat.one } in
      Alcotest.(check bool) "rejected" false
        (Threshold_sig.verify_share pub ~ctx:"pid" "m" bad);
      (* claiming another origin also fails: the verification key differs *)
      let stolen = { s with Threshold_sig.origin = 3 } in
      Alcotest.(check bool) "stolen origin" false
        (Threshold_sig.verify_share pub ~ctx:"pid" "m" stolen));
  ]

let msig_tests =
  let release i msg =
    let keys = Lazy.force msig_keys in
    Multi_sig.release keys.Multi_sig.public keys.Multi_sig.shares.(i) ~ctx:"pid" msg
  in
  [
    Alcotest.test_case "multi-signature roundtrip" `Quick (fun () ->
      let keys = Lazy.force msig_keys in
      let pub = keys.Multi_sig.public in
      let shares = [ release 0 "m"; release 2 "m"; release 3 "m" ] in
      List.iter
        (fun s ->
          Alcotest.(check bool) "share ok" true (Multi_sig.verify_share pub ~ctx:"pid" "m" s))
        shares;
      let sig_ = Multi_sig.assemble pub ~ctx:"pid" "m" shares in
      Alcotest.(check bool) "verifies" true (Multi_sig.verify pub ~ctx:"pid" ~signature:sig_ "m");
      Alcotest.(check bool) "wrong msg" false
        (Multi_sig.verify pub ~ctx:"pid" ~signature:sig_ "m'"));

    Alcotest.test_case "predicted size matches" `Quick (fun () ->
      let keys = Lazy.force msig_keys in
      let pub = keys.Multi_sig.public in
      let sig_ = Multi_sig.assemble pub ~ctx:"pid" "m" [ release 0 "m"; release 1 "m"; release 2 "m" ] in
      Alcotest.(check int) "size" (Multi_sig.signature_bytes pub) (String.length sig_));

    Alcotest.test_case "garbage and duplicates rejected" `Quick (fun () ->
      let keys = Lazy.force msig_keys in
      let pub = keys.Multi_sig.public in
      Alcotest.(check bool) "garbage" false
        (Multi_sig.verify pub ~ctx:"pid" ~signature:"zzzz" "m");
      (* duplicated origins must not reach the threshold *)
      let s0 = release 0 "m" and s1 = release 1 "m" in
      let forged =
        Multi_sig.assemble { pub with Multi_sig.k = 2 } ~ctx:"pid" "m" [ s0; s1 ]
      in
      Alcotest.(check bool) "only 2 distinct" false
        (Multi_sig.verify pub ~ctx:"pid" ~signature:forged "m"));
  ]

(* --- shared FDH: one expansion per message, reduced per key --- *)

(* The multi-signature verdict with one independent [Rsa.verify] per share:
   nothing hashed once and shared. *)
let reference_msig_verify (pub : Multi_sig.public) ~ctx ~signature msg : bool =
  match Multi_sig.parse_assembled signature with
  | None -> false
  | Some shares ->
    let origins = List.map (fun s -> s.Multi_sig.origin) shares in
    let distinct = List.sort_uniq compare origins in
    List.length distinct >= pub.Multi_sig.k
    && List.length distinct = List.length shares
    && List.for_all
         (fun (s : Multi_sig.share) ->
           s.origin >= 1 && s.origin <= pub.Multi_sig.nparties
           && Rsa.verify pub.Multi_sig.party_keys.(s.origin - 1) ~ctx
                ~signature:s.signature msg)
         shares

(* [assemble]'s framing without its filtering, so tests can build
   duplicate and out-of-range origins. *)
let frame (shares : Multi_sig.share list) : string =
  Printf.sprintf "%04d" (List.length shares)
  ^ String.concat ""
      (List.map
         (fun (s : Multi_sig.share) ->
           Printf.sprintf "%04d%08d" s.origin (String.length s.signature) ^ s.signature)
         shares)

let flip_last (sig_ : string) : string =
  let b = Bytes.of_string sig_ in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* Four parties whose moduli have 32, 33, 64 and 32 bytes.  The FDH
   expansion is two SHA-256 blocks for 32 and 33 bytes and three for 64, so
   one memo must keep an expansion per length. *)
let mixed_msig =
  lazy
    (let shares =
       Array.mapi
         (fun i bits ->
           let d = Hashes.Drbg.fork drbg (Printf.sprintf "mixed-%d" i) in
           { Multi_sig.index = i + 1; key = Rsa.keygen ~drbg:d ~bits () })
         [| 256; 264; 512; 256 |]
     in
     { Multi_sig.public =
         { Multi_sig.nparties = 4; k = 3; t = 1;
           party_keys = Array.map (fun s -> s.Multi_sig.key.Rsa.pub) shares };
       shares })

let shared_fdh_tests =
  let check_cases (keys : Multi_sig.keys) =
    let pub = keys.Multi_sig.public in
    let ctx = "pid" and msg = "the statement" in
    let sh o = Multi_sig.release pub keys.Multi_sig.shares.(o - 1) ~ctx msg in
    let honest = List.map sh [ 1; 2; 3; 4 ] in
    let with_nth j f = List.mapi (fun i s -> if i = j then f s else s) honest in
    let cases =
      [ ("honest 1..4", true, honest);
        ("honest 1,2,3", true, List.map sh [ 1; 2; 3 ]);
        ("honest 4,2,3", true, List.map sh [ 4; 2; 3 ]);
        ("duplicate origin", false, List.map sh [ 1; 1; 2; 3 ]);
        ("too few", false, List.map sh [ 2; 3 ]);
        ("origin 0", false,
         { (sh 1) with Multi_sig.origin = 0 } :: List.map sh [ 2; 3; 4 ]);
        ("origin n+1", false,
         List.map sh [ 1; 2; 3 ] @ [ { (sh 4) with Multi_sig.origin = 5 } ]) ]
      @ List.concat_map
          (fun j ->
            [ (Printf.sprintf "forged at %d" j, false,
               with_nth j (fun s -> { s with Multi_sig.signature = flip_last s.signature }));
              (Printf.sprintf "truncated at %d" j, false,
               with_nth j (fun s ->
                 { s with
                   Multi_sig.signature =
                     String.sub s.signature 0 (String.length s.signature - 1) }));
              (Printf.sprintf "wrong message at %d" j, false,
               with_nth j (fun s ->
                 Multi_sig.release pub keys.Multi_sig.shares.(s.Multi_sig.origin - 1)
                   ~ctx "another statement")) ])
          [ 0; 1; 2; 3 ]
    in
    List.iter
      (fun (name, want, shares) ->
        let signature = frame shares in
        let reference = reference_msig_verify pub ~ctx ~signature msg in
        let shared = Multi_sig.verify pub ~ctx ~signature msg in
        Alcotest.(check bool) (name ^ ": reference verdict") want reference;
        Alcotest.(check bool) (name ^ ": shared-FDH verdict") reference shared;
        (* The staged per-share check agrees with Rsa.verify share by share. *)
        let check = Multi_sig.verify_share pub ~ctx msg in
        List.iteri
          (fun i (s : Multi_sig.share) ->
            let ref_ok =
              s.origin >= 1 && s.origin <= 4
              && Rsa.verify pub.Multi_sig.party_keys.(s.origin - 1) ~ctx
                   ~signature:s.signature msg
            in
            Alcotest.(check bool) (Printf.sprintf "%s: share %d" name i) ref_ok (check s))
          shares)
      cases
  in
  [
    Alcotest.test_case "shared-FDH Multi_sig.verify = per-share Rsa.verify" `Quick
      (fun () -> check_cases (Lazy.force msig_keys));

    Alcotest.test_case "shared-FDH with mixed modulus byte lengths" `Quick (fun () ->
      let keys = Lazy.force mixed_msig in
      let pubs = keys.Multi_sig.public.Multi_sig.party_keys in
      Alcotest.(check (list int)) "byte lengths" [ 32; 33; 64; 32 ]
        (Array.to_list (Array.map Rsa.signature_bytes pubs));
      check_cases keys;
      (* One memo serves every key, in either order of first use. *)
      List.iter
        (fun order ->
          let ph = Rsa.prehash ~ctx:"c" "m" in
          List.iter
            (fun i ->
              let pk = pubs.(i) and sk = keys.Multi_sig.shares.(i).Multi_sig.key in
              let signature = Rsa.sign sk ~ctx:"c" "m" in
              Alcotest.(check bool) "prehashed accepts" true
                (Rsa.verify_prehashed pk ph ~signature);
              Alcotest.(check bool) "prehashed rejects" false
                (Rsa.verify_prehashed pk ph ~signature:(flip_last signature));
              Alcotest.check nat "s^e = fdh" (Rsa.fdh pk ~ctx:"c" "m")
                (Bignum.Nat.Montgomery.powmod pk.Rsa.n_ctx
                   (Bignum.Nat.of_bytes_be signature) pk.Rsa.e))
            order)
        [ [ 0; 1; 2; 3 ]; [ 2; 1; 3; 0 ] ]);
  ]

let enc_tests =
  let dec_share i ct =
    let keys = Lazy.force enc_keys in
    Threshold_enc.dec_share ~drbg:(Hashes.Drbg.fork drbg (Printf.sprintf "d%d" i))
      keys.Threshold_enc.public keys.Threshold_enc.shares.(i) ct
  in
  [
    Alcotest.test_case "encrypt/decrypt roundtrip" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e1") pub ~label:"L" "the plaintext" in
      Alcotest.(check bool) "valid" true (Threshold_enc.ciphertext_valid pub ct);
      match dec_share 0 ct, dec_share 2 ct with
      | Some d0, Some d2 ->
        Alcotest.(check bool) "share0" true (Threshold_enc.verify_dec_share pub ct d0);
        Alcotest.(check bool) "share2" true (Threshold_enc.verify_dec_share pub ct d2);
        (match Threshold_enc.combine pub ct [ d0; d2 ] with
         | Some m -> Alcotest.(check string) "plaintext" "the plaintext" m
         | None -> Alcotest.fail "combine failed")
      | _ -> Alcotest.fail "dec_share failed");

    Alcotest.test_case "subset independence" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e2") pub ~label:"L" "msg!" in
      let ds = List.filter_map (fun i -> dec_share i ct) [ 0; 1; 2; 3 ] in
      let m pair = Threshold_enc.combine pub ct pair in
      let pairs =
        [ [List.nth ds 0; List.nth ds 1]; [List.nth ds 1; List.nth ds 2];
          [List.nth ds 0; List.nth ds 3] ]
      in
      List.iter
        (fun p -> Alcotest.(check (option string)) "same" (Some "msg!") (m p))
        pairs);

    Alcotest.test_case "tampered ciphertext rejected (CCA)" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e3") pub ~label:"L" "secret" in
      let flip (s : string) =
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
        Bytes.to_string b
      in
      Alcotest.(check bool) "payload tamper" false
        (Threshold_enc.ciphertext_valid pub { ct with Threshold_enc.c = flip ct.Threshold_enc.c });
      Alcotest.(check bool) "label tamper" false
        (Threshold_enc.ciphertext_valid pub { ct with Threshold_enc.label = "L2" });
      Alcotest.(check bool) "u tamper" false
        (Threshold_enc.ciphertext_valid pub
           { ct with Threshold_enc.u = Group.pow pub.Threshold_enc.group ct.Threshold_enc.u (Bignum.Nat.of_int 2) });
      (* decryption shares are refused for invalid ciphertexts *)
      Alcotest.(check bool) "no share" true
        (dec_share 0 { ct with Threshold_enc.label = "L2" } = None));

    Alcotest.test_case "forged decryption share rejected" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e4") pub ~label:"L" "x" in
      match dec_share 0 ct with
      | None -> Alcotest.fail "no share"
      | Some d ->
        let bad = { d with Threshold_enc.u_i = Group.pow pub.Threshold_enc.group d.Threshold_enc.u_i (Bignum.Nat.of_int 3) } in
        Alcotest.(check bool) "rejected" false (Threshold_enc.verify_dec_share pub ct bad));

    Alcotest.test_case "ciphertext serialization roundtrip" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e5") pub ~label:"lbl" "round trip" in
      match Threshold_enc.ciphertext_of_bytes (Threshold_enc.ciphertext_to_bytes pub ct) with
      | None -> Alcotest.fail "decode failed"
      | Some ct' ->
        Alcotest.(check bool) "equal" true (ct = ct');
        Alcotest.(check bool) "still valid" true (Threshold_enc.ciphertext_valid pub ct'));

    Alcotest.test_case "empty and large messages" `Quick (fun () ->
      let keys = Lazy.force enc_keys in
      let pub = keys.Threshold_enc.public in
      List.iter
        (fun msg ->
          let ct = Threshold_enc.encrypt ~drbg:(Hashes.Drbg.fork drbg "e6") pub ~label:"L" msg in
          let ds = List.filter_map (fun i -> dec_share i ct) [ 1; 3 ] in
          Alcotest.(check (option string)) (Printf.sprintf "len %d" (String.length msg))
            (Some msg) (Threshold_enc.combine pub ct ds))
        [ ""; String.make 5000 'q' ]);
  ]

let suite =
  group_tests @ fastpath_tests @ shamir_tests @ dleq_tests @ coin_tests
  @ rsa_tests @ tsig_tests @ msig_tests @ shared_fdh_tests @ enc_tests
