(* Hash, HMAC and DRBG tests against published vectors. *)

let hex = Hashes.Sha256.hex_of_digest

let check_hex name expected actual = Alcotest.(check string) name expected (hex actual)

let sha256_vectors = [
  (* FIPS 180-4 / NIST CAVS *)
  "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
  "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  String.make 1_000_000 'a',
  "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
]

let sha1_vectors = [
  "", "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  "abc", "a9993e364706816aba3e25717850c26c9cd0d89d";
  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
  "84983e441c3bd26ebaae4aa1f95129e5e54670f1";
  String.make 1_000_000 'a', "34aa973cd4c4daa4f61eeb2bdbad27316534016f";
]

(* Bytes 0, 1, 2, ...: the message of length [len] is this pattern's prefix. *)
let pattern (len : int) : string = String.init len (fun i -> Char.chr (i land 0xff))

let sha1_hex s = hex (Hashes.Sha1.digest s)
let sha256_hex s = hex (Hashes.Sha256.digest s)

(* One line "<sha1> <sha256>\n" per length 0..200 — every padding case of
   both kernels, one and four blocks deep.  The pin is the SHA-256 of all
   201 lines, computed independently with coreutils:
     for L in $(seq 0 200); do
       printf '%s %s\n' "$(head -c $L pattern.bin | sha1sum | cut -d' ' -f1)" \
                        "$(head -c $L pattern.bin | sha256sum | cut -d' ' -f1)"
     done | sha256sum
   where pattern.bin holds the bytes 0x00..0xc7. *)
let boundary_lines () : string =
  String.concat ""
    (List.init 201 (fun len ->
       let m = pattern len in
       sha1_hex m ^ " " ^ sha256_hex m ^ "\n"))

(* Feed [m] split at [k], or copy the midstate at [k] and finish both. *)
module type HASH = sig
  type ctx
  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed_string : ctx -> string -> unit
  val finish : ctx -> string
  val digest : string -> string
end

let check_splits (name : string) (module H : HASH) : unit =
  for len = 0 to 200 do
    let m = pattern len in
    let want = H.digest m in
    for k = 0 to len do
      let ctx = H.init () in
      H.feed_string ctx (String.sub m 0 k);
      H.feed_string ctx (String.sub m k (len - k));
      if H.finish ctx <> want then
        Alcotest.failf "%s: length %d split at %d differs from one-shot" name len k
    done
  done

(* The pieces of a random split of [m] into up to five parts. *)
let random_parts (d : Hashes.Drbg.t) (m : string) : string list =
  let cuts =
    List.sort_uniq compare
      (List.init (Hashes.Drbg.int d 5) (fun _ -> Hashes.Drbg.int d (String.length m + 1)))
  in
  let rec go pos = function
    | [] -> [ String.sub m pos (String.length m - pos) ]
    | c :: rest -> String.sub m pos (c - pos) :: go c rest
  in
  go 0 cuts

(* The Drbg output stream (int, bytes, float, bool, rejection draws and a
   fork), pinned by digest: every seeded run in the repository replays
   only while this stream stays the same. *)
let drbg_stream () : string =
  let d = Hashes.Drbg.create ~seed:"drbg-pin" in
  let b = Buffer.create 4096 in
  for i = 1 to 300 do
    Buffer.add_string b (string_of_int (Hashes.Drbg.int d (i * 7919)));
    Buffer.add_char b ',';
    if i mod 7 = 0 then Buffer.add_string b (Hashes.Drbg.bytes d (i mod 13));
    if i mod 11 = 0 then Buffer.add_string b (string_of_float (Hashes.Drbg.float d 1.0));
    if i mod 5 = 0 then Buffer.add_string b (if Hashes.Drbg.bool d then "T" else "F");
    if i mod 17 = 0 then
      Buffer.add_string b (string_of_int (Hashes.Drbg.int d ((max_int / 3) + 1)))
  done;
  Buffer.add_string b (Hashes.Drbg.bytes (Hashes.Drbg.fork d "child") 40);
  Buffer.contents b

let suite = [
  Alcotest.test_case "sha256 vectors" `Quick (fun () ->
    List.iter
      (fun (msg, want) ->
        check_hex (Printf.sprintf "len %d" (String.length msg)) want
          (Hashes.Sha256.digest msg))
      sha256_vectors);

  Alcotest.test_case "sha1 vectors" `Quick (fun () ->
    List.iter
      (fun (msg, want) ->
        check_hex (Printf.sprintf "len %d" (String.length msg)) want
          (Hashes.Sha1.digest msg))
      sha1_vectors);

  Alcotest.test_case "sha256 incremental = one-shot" `Quick (fun () ->
    let msg = String.init 1000 (fun i -> Char.chr (i mod 251)) in
    (* feed in awkward chunk sizes crossing block boundaries *)
    List.iter
      (fun chunk ->
        let ctx = Hashes.Sha256.init () in
        let pos = ref 0 in
        while !pos < String.length msg do
          let take = min chunk (String.length msg - !pos) in
          Hashes.Sha256.feed_string ctx (String.sub msg !pos take);
          pos := !pos + take
        done;
        Alcotest.(check string) (Printf.sprintf "chunk %d" chunk)
          (hex (Hashes.Sha256.digest msg)) (hex (Hashes.Sha256.finish ctx)))
      [ 1; 3; 63; 64; 65; 127; 999 ]);

  Alcotest.test_case "sha256 padding boundary lengths" `Quick (fun () ->
    (* lengths around the 55/56-byte padding edge must not collide *)
    let digests =
      List.init 130 (fun i -> hex (Hashes.Sha256.digest (String.make i 'x')))
    in
    let distinct = List.sort_uniq compare digests in
    Alcotest.(check int) "all distinct" 130 (List.length distinct));

  Alcotest.test_case "digest_list equals concatenation" `Quick (fun () ->
    Alcotest.(check string) "equal"
      (hex (Hashes.Sha256.digest "foobarbaz"))
      (hex (Hashes.Sha256.digest_list [ "foo"; "bar"; "baz" ])));

  Alcotest.test_case "hmac-sha256 rfc4231" `Quick (fun () ->
    (* RFC 4231 test case 1 *)
    let key = String.make 20 '\x0b' in
    check_hex "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key "Hi There");
    (* RFC 4231 test case 2 *)
    check_hex "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:"Jefe"
         "what do ya want for nothing?");
    (* long key (> block size) forces the key-hash path *)
    let longkey = String.make 131 '\xaa' in
    check_hex "tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
      (Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:longkey
         "Test Using Larger Than Block-Size Key - Hash Key First"));

  Alcotest.test_case "hmac-sha1 rfc2202" `Quick (fun () ->
    let sha1 ~key msg = Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA1 ~key msg in
    check_hex "tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
      (sha1 ~key:(String.make 20 '\x0b') "Hi There");
    check_hex "tc2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
      (sha1 ~key:"Jefe" "what do ya want for nothing?");
    check_hex "tc3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
      (sha1 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'));
    check_hex "tc4" "4c9007f4026250c6bc8414f9bf50c86c2d7235da"
      (sha1 ~key:(String.init 25 (fun i -> Char.chr (i + 1))) (String.make 50 '\xcd'));
    check_hex "tc5" "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"
      (sha1 ~key:(String.make 20 '\x0c') "Test With Truncation");
    check_hex "tc6" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
      (sha1 ~key:(String.make 80 '\xaa')
         "Test Using Larger Than Block-Size Key - Hash Key First");
    check_hex "tc7" "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"
      (sha1 ~key:(String.make 80 '\xaa')
         "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"));

  Alcotest.test_case "sha1/sha256 lengths 0..200 match coreutils" `Quick (fun () ->
    Alcotest.(check string) "digest of digests"
      "e2197fd79ebba2d2b96c8ef5d539fdc82eb90bca96d4e55ab991e21130a39319"
      (sha256_hex (boundary_lines ())));

  Alcotest.test_case "incremental = one-shot at every split point" `Quick (fun () ->
    check_splits "sha1" (module Hashes.Sha1);
    check_splits "sha256" (module Hashes.Sha256));

  Alcotest.test_case "copy is an independent midstate" `Quick (fun () ->
    let check (name : string) (module H : HASH) =
      let m = pattern 150 in
      for k = 0 to 150 do
        let a = H.init () in
        H.feed_string a (String.sub m 0 k);
        let b = H.copy a in
        (* Diverge the copy, finish it first: the original must not see it. *)
        H.feed_string b "divergent tail";
        let tb = H.finish b in
        H.feed_string a (String.sub m k (150 - k));
        if H.finish a <> H.digest m then
          Alcotest.failf "%s: copy at %d disturbed the original" name k;
        if tb <> H.digest (String.sub m 0 k ^ "divergent tail") then
          Alcotest.failf "%s: copy at %d is not the same midstate" name k
      done
    in
    check "sha1" (module Hashes.Sha1);
    check "sha256" (module Hashes.Sha256));

  Alcotest.test_case "keyed mac_parts = one-shot mac" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"hmac-parts" in
    List.iter
      (fun algo ->
        List.iter
          (fun klen ->
            let secret = Hashes.Drbg.bytes d klen in
            let key = Hashes.Hmac.key ~algo secret in
            for len = 0 to 150 do
              let m = Hashes.Drbg.bytes d len in
              let parts = random_parts d m in
              let want = Hashes.Hmac.mac ~algo ~key:secret m in
              if Hashes.Hmac.mac_parts key parts <> want then
                Alcotest.failf "key length %d, message %d: parts differ" klen len;
              if not (Hashes.Hmac.verify_parts key ~tag:want parts) then
                Alcotest.failf "key length %d, message %d: verify_parts rejects" klen len
            done;
            (* The key is reusable: a second tag of the same message agrees. *)
            Alcotest.(check string) "reusable key"
              (Hashes.Hmac.mac ~algo ~key:secret "again")
              (Hashes.Hmac.mac_parts key [ "ag"; ""; "ain" ]))
          [ 0; 1; 20; 64; 65; 131 ])
      [ Hashes.Hmac.SHA1; Hashes.Hmac.SHA256 ]);

  Alcotest.test_case "drbg stream pinned" `Quick (fun () ->
    Alcotest.(check string) "stream digest"
      "c54a74b3179b8426bf2fd836ba281d6d8dbd5b2fd04c071ba9cc7fd6ec4ce58c"
      (sha256_hex (drbg_stream ()));
    Alcotest.(check string) "hex_of_digest" "00017f80feff"
      (hex "\x00\x01\x7f\x80\xfe\xff"));

  Alcotest.test_case "hmac verify accepts/rejects" `Quick (fun () ->
    let tag = Hashes.Hmac.mac ~algo:Hashes.Hmac.SHA256 ~key:"k" "msg" in
    Alcotest.(check bool) "good" true
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k" ~tag "msg");
    Alcotest.(check bool) "bad msg" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k" ~tag "msg2");
    Alcotest.(check bool) "bad key" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k2" ~tag "msg");
    Alcotest.(check bool) "truncated tag" false
      (Hashes.Hmac.verify ~algo:Hashes.Hmac.SHA256 ~key:"k"
         ~tag:(String.sub tag 0 10) "msg"));

  Alcotest.test_case "drbg determinism" `Quick (fun () ->
    let a = Hashes.Drbg.create ~seed:"s" in
    let b = Hashes.Drbg.create ~seed:"s" in
    Alcotest.(check string) "same stream" (Hashes.Drbg.bytes a 100) (Hashes.Drbg.bytes b 100);
    let c = Hashes.Drbg.create ~seed:"s'" in
    Alcotest.(check bool) "different seed differs" true
      (Hashes.Drbg.bytes c 100 <> Hashes.Drbg.bytes (Hashes.Drbg.create ~seed:"s") 100));

  Alcotest.test_case "drbg chunking irrelevant" `Quick (fun () ->
    let a = Hashes.Drbg.create ~seed:"s" in
    let b = Hashes.Drbg.create ~seed:"s" in
    let one = Hashes.Drbg.bytes a 64 in
    let parts = String.concat "" (List.init 64 (fun _ -> Hashes.Drbg.bytes b 1)) in
    Alcotest.(check string) "equal" one parts);

  Alcotest.test_case "drbg int bounds" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"ints" in
    for _ = 1 to 1000 do
      let v = Hashes.Drbg.int d 7 in
      if v < 0 || v >= 7 then Alcotest.fail "out of range"
    done;
    Alcotest.check_raises "zero bound" (Invalid_argument "Drbg.int: non-positive bound")
      (fun () -> ignore (Hashes.Drbg.int d 0)));

  Alcotest.test_case "drbg int covers range" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"cover" in
    let seen = Array.make 10 false in
    for _ = 1 to 500 do seen.(Hashes.Drbg.int d 10) <- true done;
    Alcotest.(check bool) "all hit" true (Array.for_all (fun x -> x) seen));

  Alcotest.test_case "drbg fork independence" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"s" in
    let f1 = Hashes.Drbg.fork d "a" in
    let f2 = Hashes.Drbg.fork d "b" in
    Alcotest.(check bool) "forks differ" true
      (Hashes.Drbg.bytes f1 32 <> Hashes.Drbg.bytes f2 32));

  Alcotest.test_case "drbg reseed changes stream" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"s" in
    let before = Hashes.Drbg.bytes d 32 in
    Hashes.Drbg.reseed d "extra";
    Alcotest.(check bool) "differs" true (before <> Hashes.Drbg.bytes d 32));

  Alcotest.test_case "drbg float in bounds" `Quick (fun () ->
    let d = Hashes.Drbg.create ~seed:"floats" in
    for _ = 1 to 100 do
      let v = Hashes.Drbg.float d 2.5 in
      if v < 0.0 || v >= 2.5 then Alcotest.fail "out of range"
    done);
]
